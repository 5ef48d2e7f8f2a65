"""Offsets in postings (the .pay half of Lucene50PostingsFormat:
IndexOptions ..._AND_OFFSETS) + offset-based highlighting
(postingshighlight/PostingsHighlighter.java parity)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def off_idx(tmp_path_factory, ray_session):
    from lucene_solr_ray.index import build_index

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "a fox and another fox crossed the road",
        "no relevant animals in this document at all",
        "fox " * 200,  # multi-block positions (ttf > 128)
    ]
    d = tmp_path_factory.mktemp("off_src")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "content": pa.array(docs),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("off_idx") / "idx")
    build_index(str(d), out, text_field="content",
                store_positions=True, store_offsets=True,
                rows_per_partition=10)
    return out, docs


def test_offsets_match_retokenization(off_idx):
    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.search.readers import MergedReader

    out, docs = off_idx
    r = MergedReader(out)
    assert r.has_offsets
    ana = get_analyzer("standard")
    for term in ("fox", "quick", "road"):
        d_ids, tfs, off = r.term_offsets(term)
        cum = np.zeros(d_ids.size + 1, np.int64)
        np.cumsum(2 * tfs.astype(np.int64), out=cum[1:])
        for i, doc in enumerate(d_ids.tolist()):
            sl = off[cum[i]:cum[i + 1]].astype(np.int64)
            starts = np.cumsum(sl[0::2])
            ends = starts + sl[1::2]
            text = docs[doc]
            # every span slices the source text to exactly the term
            for s, e in zip(starts.tolist(), ends.tolist()):
                assert text[s:e].lower() == term
            # spans == ALL occurrences found by re-tokenization
            toks, pos, ss, ee = __import__(
                "lucene_solr_ray.analysis.tokenizer",
                fromlist=["tokenize_with_spans"],
            ).tokenize_with_spans(text.lower())
            want = [(s2, e2) for t2, s2, e2 in zip(toks, ss, ee)
                    if t2 == term]
            assert list(zip(starts.tolist(), ends.tolist())) == want


def test_offset_highlight_matches_reanalysis(off_idx):
    from lucene_solr_ray.search import IndexSearcher, TermQuery
    from lucene_solr_ray.search.extras import highlight_results

    out, docs = off_idx
    s = IndexSearcher(out)
    q = TermQuery("fox")
    res = s.search(q, k=10)
    via_offsets = highlight_results(s, q, res, use_offsets=True)
    via_reanalysis = highlight_results(s, q, res)
    assert via_offsets["snippet"].to_pylist() == \
        via_reanalysis["snippet"].to_pylist()
    assert any("<em>fox</em>" in x
               for x in via_offsets["snippet"].to_pylist())


def test_positions_still_correct_with_offsets(off_idx):
    """Offsets ride alongside positions without disturbing the pos
    stream: phrase query works on the same index."""
    from lucene_solr_ray.search import IndexSearcher
    from lucene_solr_ray.search.query import PhraseQuery

    out, docs = off_idx
    s = IndexSearcher(out)
    hits = s.search(PhraseQuery(["quick", "brown", "fox"]), k=10)
    assert hits["doc_id"].to_pylist() == [0]


def test_offsets_error_without_flag(tmp_path_factory, ray_session):
    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.search.readers import MergedReader

    d = tmp_path_factory.mktemp("nooff_src")
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "content": pa.array(["plain text"]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("nooff_idx") / "idx")
    build_index(str(d), out, text_field="content", store_positions=True)
    r = MergedReader(out)
    assert not r.has_offsets
    with pytest.raises(ValueError):
        r.term_offsets("plain")
    with pytest.raises(ValueError):
        build_index(str(d), out, text_field="content",
                    store_offsets=True)  # needs positions


def test_checkindex_covers_offset_stream(off_idx):
    """CheckIndex verifies the offsets stream (length == 2*ttf, no
    zero-length spans) alongside postings/positions."""
    from lucene_solr_ray.index.check import check_index

    out, _docs = off_idx
    rep = check_index(out)
    assert rep["ok"] and rep["terms_checked"] > 0


def test_passage_ranking():
    """PostingsHighlighter passage scoring: the passage with more
    distinct/high-idf matches wins; output keeps document order."""
    from lucene_solr_ray.search.extras import rank_passages

    text = ("Nothing relevant here. The quick fox jumps over the fox. "
            "A single fox appears. No matches in this one.")
    # char spans of the word "fox" occurrences + "quick"
    spans = []
    import re
    for m in re.finditer(r"fox", text):
        spans.append((m.start(), m.end(), "fox"))
    m = re.search(r"quick", text)
    spans.append((m.start(), m.end(), "quick"))

    out = rank_passages(text, spans, {"fox": 1.0, "quick": 3.0},
                        max_passages=2)
    assert len(out) == 2
    # best passage = the one with quick (weight 3) + two fox hits
    best = max(out, key=lambda x: x[0])
    assert "<em>quick</em>" in best[1] and "<em>fox</em>" in best[1]
    # document order preserved in the returned list
    assert out[0][1].startswith("The <em>quick</em>")
    assert "single" in out[1][1]
    # no-match passages never surface
    assert all("Nothing relevant" not in frag for _s, frag in out)
