"""Positional index + ExactPhraseScorer correctness.

Phrase semantics per ``search/ExactPhraseScorer.java``: positions
conjunction with offset alignment, phraseFreq = number of aligned starts,
idf = sum of term idfs (``BM25Similarity.java:173-186``). Checked against a
brute-force positional oracle over the same analyzer output, pre- and
post-merge.
"""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.analysis import get_analyzer
from lucene_solr_ray.index import build_index, merge_index
from lucene_solr_ray.search import IndexSearcher, PhraseQuery
from lucene_solr_ray.sources import generate_table

N_DOCS = 400


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("pcorpus")
    tbl = generate_table(N_DOCS, seed=7)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("pindex"))
    build_index(str(d), out, rows_per_partition=100, store_positions=True)
    texts = tbl["content"].to_pylist()
    return out, texts


def brute_phrase(texts, terms):
    """(doc, freq) via per-doc position scan on the same analyzer."""
    ana = get_analyzer("standard")
    out = []
    for i, t in enumerate(texts):
        toks, pos = ana.tokens_with_positions(t)
        by_term = {}
        for tok, p in zip(toks, pos):
            by_term.setdefault(tok, []).append(p)
        if any(term not in by_term for term in terms):
            continue
        starts = set(by_term[terms[0]])
        for off, term in enumerate(terms[1:], 1):
            starts &= {p - off for p in by_term[term]}
        if starts:
            out.append((i, len(starts)))
    return out


PHRASES = [
    ("return", "0"),          # from 'return 0' style lines? may be rare
    ("the", "quick"),         # stopwords removed -> never matches
    ("quick", "brown"),       # comment bigram
    ("brown", "fox"),
]


@pytest.mark.parametrize("terms", PHRASES)
def test_phrase_matches_brute_force(pos_index, terms):
    idx, texts = pos_index
    s = IndexSearcher(idx)
    docs, scores = s._score_phrase(PhraseQuery(tuple(terms)))
    want = brute_phrase(texts, list(terms))
    assert docs.tolist() == [d for d, _ in want]
    # freq check via score round-trip: recompute expected scores
    if want:
        from lucene_solr_ray.codec import NORM_TABLE
        from lucene_solr_ray.search import bm25

        idf_sum = np.float32(0.0)
        for t in terms:
            idf_sum = idf_sum + bm25.idf(s.doc_freq(t), s.max_doc)
        freqs = np.array([f for _, f in want], np.int64)
        exp = bm25.score_postings(freqs, s.norms.norm[docs], idf_sum,
                                  s._cache)
        np.testing.assert_array_equal(scores, exp)


def test_phrase_search_api_and_empty(pos_index):
    idx, texts = pos_index
    s = IndexSearcher(idx)
    t = s.search(PhraseQuery(("zzz", "qqq")), k=5)
    assert t.num_rows == 0


def test_sloppy_phrase(pos_index, tmp_path_factory, ray_session):
    import pyarrow as pa
    import pyarrow.parquet as pq2

    from lucene_solr_ray.index import build_index

    docs = [
        "alpha beta gamma",        # exact "alpha gamma"? no (gap 2)
        "alpha gamma",             # exact match
        "alpha xx gamma",          # slop 1: span 1 after offset adjust
        "gamma alpha",             # reversed: slop 2 window
        "alpha xx yy zz gamma",    # needs slop 3
    ]
    d = tmp_path_factory.mktemp("sloppy")
    tbl = pa.table({
        "repo": pa.array(["r"] * 5), "path": pa.array(["p"] * 5),
        "commit": pa.array(["c"] * 5), "lang": pa.array(["txt"] * 5),
        "content": pa.array(docs),
    })
    pq2.write_table(tbl, str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("sloppyidx"))
    build_index(str(d), out, rows_per_partition=10, store_positions=True)
    s = IndexSearcher(out)

    def hits(slop):
        t = s.search(PhraseQuery(("alpha", "gamma"), slop=slop), k=10)
        return t["doc_id"].to_pylist()

    assert hits(0) == [1]
    assert set(hits(1)) == {0, 1, 2}          # "beta"/"xx" gap = span 1
    assert set(hits(2)) >= {0, 1, 2, 3}       # reversed within slop 2
    assert set(hits(3)) == {0, 1, 2, 3, 4}
    # monotone superset property
    for k in range(3):
        assert set(hits(k)) <= set(hits(k + 1))
    # sloppyFreq: exact match scores higher than slop-1 match of same doc len
    t = s.search(PhraseQuery(("alpha", "gamma"), slop=1), k=10).to_pydict()
    by = dict(zip(t["doc_id"], t["score"]))
    assert by[1] > by[2]


def test_phrase_identical_after_merge(pos_index, ray_session):
    idx, texts = pos_index
    before = IndexSearcher(idx)
    q = PhraseQuery(("quick", "brown"))
    want = before.search(q, k=50).to_pydict()
    merge_index(idx, hot_df_threshold=40, salt_group_size=2)
    after = IndexSearcher(idx)
    got = after.search(q, k=50).to_pydict()
    assert got == want
    # multi-term positional data survives compaction + salting
    q2 = PhraseQuery(("brown", "fox"))
    assert (after.search(q2, k=50).to_pydict()
            == before.search(q2, k=50).to_pydict())


def test_merged_positions_identical_to_segments(tmp_path_factory,
                                                ray_session):
    """The vectorized positional compaction must preserve every term's
    (docs, tfs, positions) exactly (merged vs pre-merge readers)."""
    import numpy as np
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index, merge_index
    from lucene_solr_ray.search.readers import MergedReader
    from lucene_solr_ray.sources import generate_table

    d = tmp_path_factory.mktemp("pm_corpus")
    pq.write_table(generate_table(400, seed=31), str(d / "c.parquet"),
                   row_group_size=50)
    out = str(tmp_path_factory.mktemp("pm_index"))
    build_index(str(d), out, rows_per_partition=50, store_positions=True)
    seg = MergedReader(out)  # before the merge: the segments' own files
    merge_index(out, hot_df_threshold=50, salt_group_size=2)
    mrg = MergedReader(out)
    terms = seg.unique_terms()
    assert np.array_equal(terms, mrg.unique_terms())
    rng = np.random.default_rng(3)
    sample = list(terms[rng.choice(terms.size, 200, replace=False)]) + \
        ["return", "def", "0"]
    for t in sample:
        a = seg.postings_with_positions(t)
        b = mrg.postings_with_positions(t)
        for x, y in zip(a, b):
            assert np.array_equal(x, y), t


def test_sloppy2_vectorized_equals_cursor_walk():
    """Property: the closed-form 2-term sloppy freq equals the reference
    cursor walk on random position lists."""
    import numpy as np

    from lucene_solr_ray.search.searcher import (
        _sloppy_freq,
        _sloppy_freq2_flat,
    )

    rng = np.random.default_rng(17)
    for trial in range(50):
        nc = int(rng.integers(1, 8))
        datas = []
        for term in range(2):
            docs = np.arange(nc, dtype=np.int64)
            tfs = rng.integers(1, 6, nc).astype(np.int32)
            pos_runs = []
            for c in range(nc):
                p = np.sort(rng.choice(40, tfs[c], replace=False))
                d = np.diff(np.concatenate(([0], p))).astype(np.uint32)
                d[0] = p[0]
                pos_runs.append(d)
            datas.append((docs, tfs, np.concatenate(pos_runs)))
        cand = np.arange(nc, dtype=np.int64)
        lookups = []
        for docs, tfs, pos in datas:
            cum = np.concatenate(([0], np.cumsum(tfs)))
            idx = np.searchsorted(docs, cand)
            lookups.append((idx, cum, pos))
        for slop in (0, 1, 2, 5, 40):
            want = np.array([_sloppy_freq(lookups, ci, slop)
                             for ci in range(nc)])
            got = _sloppy_freq2_flat(None, cand, datas, slop)
            assert np.allclose(got, want), (trial, slop)
