"""End-to-end: corpus -> distributed build -> BM25 search vs oracle.

The control-vs-distributed equivalence strategy of the reference
(``BaseDistributedSearchTestCase``) + golden-score tests
(``TestSimilarityBase.correctnessTestCore``): the Ray-built index must score
rank- and float32-score-identically to the single-process oracle.
"""

import hashlib
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.analysis import get_analyzer
from lucene_solr_ray.index import IndexManifest, build_index, merge_index
from lucene_solr_ray.oracle import OracleIndex
from lucene_solr_ray.search import (
    BooleanQuery,
    IndexSearcher,
    MatchAllDocsQuery,
    PrefixQuery,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from lucene_solr_ray.sources import generate_table

N_DOCS = 600


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    tbl = generate_table(N_DOCS, seed=42)
    # two files, small row groups -> several partitions
    pq.write_table(tbl.slice(0, 350), str(d / "a.parquet"), row_group_size=100)
    pq.write_table(tbl.slice(350), str(d / "b.parquet"), row_group_size=100)
    return str(d)


@pytest.fixture(scope="module")
def index_dir(corpus_dir, tmp_path_factory, ray_session):
    out = str(tmp_path_factory.mktemp("index"))
    build_index(corpus_dir, out, rows_per_partition=100)
    return out


@pytest.fixture(scope="module")
def oracle(corpus_dir):
    import pyarrow.dataset as pads

    tbl = pads.dataset(corpus_dir).to_table(columns=["content"])
    return OracleIndex(tbl["content"].to_pylist())


@pytest.fixture(scope="module")
def searcher(index_dir):
    return IndexSearcher(index_dir)



def _seg_table(d):
    import os as _os

    import pyarrow.dataset as pads

    files = sorted(_os.path.join(d, f) for f in _os.listdir(d)
                   if f.endswith(".parquet"))
    return pads.dataset(files, format="parquet").to_table()

def test_manifest_and_stats(index_dir, oracle):
    man = IndexManifest.load(index_dir)
    assert man.max_doc == N_DOCS
    assert man.sum_total_term_freq == oracle.sum_ttf
    assert man.num_partitions >= 6
    assert float(np.float32(man.avgdl)) == float(oracle.avgdl)


def test_sha256_invariant(index_dir, corpus_dir):
    import pyarrow.dataset as pads

    src = pads.dataset(corpus_dir).to_table(columns=["content"])
    texts = src["content"].to_pylist()
    norms = pads.dataset(os.path.join(index_dir, "norms")).to_table()
    got = dict(zip(norms["doc_id"].to_pylist(),
                   norms["content_sha256"].to_pylist()))
    for i, t in enumerate(texts):
        assert got[i] == hashlib.sha256(t.encode()).digest()


def test_doc_freq_matches_oracle(searcher, oracle):
    for term in ["return", "def", "quick", "flushwrite", "zzz_not_a_term"]:
        assert searcher.doc_freq(term) == oracle.df.get(term, 0)


TERMS = ["return", "def", "none", "quick", "0x1f", "value_count"]


@pytest.mark.parametrize("term", TERMS)
def test_term_query_rank_and_score_identity(searcher, oracle, term):
    got = searcher.search(TermQuery(term), k=20).to_pydict()
    want = oracle.search([term], k=20)
    assert got["doc_id"] == [d for d, _ in want]
    # float32 bit equality
    assert got["score"] == [float(s) for _, s in want], term


@pytest.mark.parametrize("mode", ["OR", "AND"])
def test_bool_query_identity(searcher, oracle, mode):
    terms = ["return", "quick", "def"]
    tq = [TermQuery(t) for t in terms]
    q = (BooleanQuery.build(should=tq) if mode == "OR"
         else BooleanQuery.build(must=tq))
    got = searcher.search(q, k=25).to_pydict()
    want = oracle.search(terms, k=25, mode=mode)
    assert got["doc_id"] == [d for d, _ in want]
    assert got["score"] == pytest.approx([float(s) for _, s in want],
                                         abs=1e-6)


def test_stopword_query_empty(searcher):
    # stopwords never enter the index (TestSimilarity2.java:115 analogue)
    assert searcher.search(TermQuery("the"), k=10).num_rows == 0
    assert searcher.doc_freq("the") == 0


def test_must_not_and_filter(searcher, oracle):
    q = BooleanQuery.build(must=[TermQuery("return")],
                           must_not=[TermQuery("quick")])
    got = searcher.search(q, k=1000).to_pydict()
    want = [
        (d, s) for d, s in oracle.search(["return"], k=10**9)
        if oracle.tf[d].get("quick", 0) == 0
    ]
    want.sort(key=lambda h: (-h[1], h[0]))
    assert got["doc_id"] == [d for d, _ in want][:1000]


def test_match_all(searcher):
    t = searcher.search(MatchAllDocsQuery(), k=5)
    assert t["doc_id"].to_pylist() == [0, 1, 2, 3, 4]
    assert searcher.count(MatchAllDocsQuery()) == N_DOCS


def test_multiterm_rewrites(searcher, oracle):
    vocab = set(oracle.df)
    # prefix
    pref_terms = {t for t in vocab if t.startswith("get")}
    want_docs = sorted({
        d for t in pref_terms for d in range(oracle.n) if oracle.tf[d].get(t)
    })
    got = searcher.search(PrefixQuery("get"), k=10**6)
    assert got["doc_id"].to_pylist() == want_docs
    # wildcard
    wc = {t for t in vocab if t.startswith("hash") and t.endswith("key")}
    want_docs = sorted({
        d for t in wc for d in range(oracle.n) if oracle.tf[d].get(t)
    })
    assert (searcher.search(WildcardQuery("hash*key"), k=10**6)
            ["doc_id"].to_pylist() == want_docs)
    # regex + range agree with brute force over the dictionary
    rx_terms = set(searcher.reader.terms_matching(
        lambda t: t.startswith("num")))
    assert rx_terms == {t for t in vocab if t.startswith("num")}
    rng = searcher.reader.terms_in_range("aa", "ab")
    assert rng == sorted(t for t in vocab if "aa" <= t <= "ab")


def test_searchafter_paging(searcher):
    q = TermQuery("return")
    page1 = searcher.search(q, k=5).to_pydict()
    after = (page1["score"][-1], page1["doc_id"][-1])
    page2 = searcher.search(q, k=5, after=after).to_pydict()
    full = searcher.search(q, k=10).to_pydict()
    assert page1["doc_id"] + page2["doc_id"] == full["doc_id"]


def test_merged_index_identical_results(index_dir, searcher, oracle,
                                        ray_session):
    # merge with aggressive salting so the salted path is exercised
    merge_index(index_dir, hot_df_threshold=50, salt_group_size=2)
    merged = IndexSearcher(index_dir)
    from lucene_solr_ray.search.readers import MergedReader

    assert isinstance(merged.reader, MergedReader)
    for term in TERMS:
        a = searcher.search(TermQuery(term), k=30).to_pydict()
        b = merged.search(TermQuery(term), k=30).to_pydict()
        assert a == b, term
    assert merged.doc_freq("return") == oracle.df["return"]


def test_sharded_search_rank_identity(index_dir, searcher, ray_session):
    """Control-vs-sharded equivalence at two parallelism levels (the
    BaseDistributedSearchTestCase analogue): doc-sharded scatter/gather
    with global stats must match the single-process searcher exactly."""
    from lucene_solr_ray.search import (
        BooleanQuery,
        MatchAllDocsQuery,
        PrefixQuery,
        search_sharded,
    )

    queries = [
        TermQuery("return"),
        TermQuery("zzz_not_a_term"),
        BooleanQuery.build(should=[TermQuery("return"), TermQuery("quick"),
                                   TermQuery("def")]),
        BooleanQuery.build(must=[TermQuery("return"), TermQuery("def")],
                           must_not=[TermQuery("quick")]),
        MatchAllDocsQuery(),
        PrefixQuery("get"),
    ]
    want = [searcher.search(q, k=15).to_pydict() for q in queries]
    for num_shards in (2, 6, 9):
        got = search_sharded(index_dir, queries, k=15,
                             num_shards=num_shards).to_pydict()
        for qi, w in enumerate(want):
            m = [i for i, q in enumerate(got["query_id"]) if q == qi]
            assert [got["doc_id"][i] for i in m] == w["doc_id"], (
                num_shards, qi)
            assert [got["score"][i] for i in m] == w["score"], (
                num_shards, qi)


def test_resume_skips_and_is_deterministic(corpus_dir, index_dir,
                                           tmp_path_factory, ray_session):
    import pyarrow.dataset as pads

    # fresh build in a new dir -> identical segment tables
    out2 = str(tmp_path_factory.mktemp("index2"))
    build_index(corpus_dir, out2, rows_per_partition=100)
    a = _seg_table(os.path.join(index_dir, "segments"))
    b = _seg_table(os.path.join(out2, "segments"))
    assert a.sort_by([("term", "ascending"), ("pid", "ascending")]).equals(
        b.sort_by([("term", "ascending"), ("pid", "ascending")]))
    # delete half the outputs+checkpoints, rebuild, byte-identical content
    ckpts = sorted(os.listdir(os.path.join(out2, "_checkpoints")))
    for c in ckpts[::2]:
        pid = c.split("-")[1].split(".")[0]
        os.remove(os.path.join(out2, "_checkpoints", c))
        os.remove(os.path.join(out2, "segments", f"part-{pid}.parquet"))
    build_index(corpus_dir, out2, rows_per_partition=100)
    b2 = _seg_table(os.path.join(out2, "segments"))
    assert b.sort_by([("term", "ascending"), ("pid", "ascending")]).equals(
        b2.sort_by([("term", "ascending"), ("pid", "ascending")]))


def test_build_deterministic_across_parallelism(corpus_dir,
                                                tmp_path_factory,
                                                ray_session):
    """Parallelism-independence (FIXTURES §4): the same corpus built with
    concurrency 1 and with the default pool yields byte-identical segment
    content (pure function of partition plan, not scheduling)."""
    import pyarrow.dataset as pads

    out1 = str(tmp_path_factory.mktemp("par1"))
    build_index(corpus_dir, out1, rows_per_partition=100, concurrency=1)
    out2 = str(tmp_path_factory.mktemp("par8"))
    build_index(corpus_dir, out2, rows_per_partition=100, concurrency=8)
    a = _seg_table(os.path.join(out1, "segments"))
    b = _seg_table(os.path.join(out2, "segments"))
    key = [("term", "ascending"), ("pid", "ascending")]
    assert a.sort_by(key).equals(b.sort_by(key))


def test_checkpoint_invalidated_by_changed_input(tmp_path_factory,
                                                 ray_session):
    """A checkpoint only resumes for the SAME input slice: appending docs
    to the corpus rebuilds the partitions whose plan changed (incremental
    rebuild), never serves stale segments."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    d = tmp_path_factory.mktemp("growing")
    tbl = generate_table(200, seed=33)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("gidx"))
    build_index(str(d), out, rows_per_partition=100)
    man1 = IndexManifest.load(out)
    assert man1.max_doc == 200
    # grow the corpus file (same name, more rows)
    tbl2 = generate_table(300, seed=33)
    pq.write_table(tbl2, str(d / "c.parquet"), row_group_size=100)
    build_index(str(d), out, rows_per_partition=100)
    man2 = IndexManifest.load(out)
    assert man2.max_doc == 300 and man2.num_partitions == 3
    norms = pads.dataset(os.path.join(out, "norms")).to_table()
    assert norms.num_rows == 300
    s = IndexSearcher(out)
    assert s.count(MatchAllDocsQuery()) == 300


def test_rebuild_invalidates_merged_view(tmp_path_factory, ray_session):
    import pyarrow.dataset as pads

    from lucene_solr_ray.search.readers import MergedReader, SegmentsReader

    d = tmp_path_factory.mktemp("remcorpus")
    pq.write_table(generate_table(150, seed=44), str(d / "c.parquet"),
                   row_group_size=50)
    out = str(tmp_path_factory.mktemp("remidx"))
    build_index(str(d), out, rows_per_partition=50)
    merge_index(out)
    assert isinstance(IndexSearcher(out).reader, MergedReader)
    # corpus grows -> rebuild drops the stale merged view
    pq.write_table(generate_table(250, seed=44), str(d / "c.parquet"),
                   row_group_size=50)
    build_index(str(d), out, rows_per_partition=50)
    s = IndexSearcher(out)
    assert isinstance(s.reader, SegmentsReader)
    assert s.count(MatchAllDocsQuery()) == 250
    # re-merge restores the merged view over the new contents
    merge_index(out)
    s2 = IndexSearcher(out)
    assert isinstance(s2.reader, MergedReader)
    assert s2.count(MatchAllDocsQuery()) == 250


def test_roll_forward_ingest_new_files(tmp_path_factory, ray_session):
    """Appending NEW corpus files (names sorting after existing ones)
    reuses every existing checkpoint and builds only the new partitions —
    the addDocument/roll-forward ingest path."""
    import json

    d = tmp_path_factory.mktemp("rollcorpus")
    pq.write_table(generate_table(100, seed=55), str(d / "a.parquet"),
                   row_group_size=50)
    out = str(tmp_path_factory.mktemp("rollidx"))
    build_index(str(d), out, rows_per_partition=50)
    ck = os.path.join(out, "_checkpoints", "part-00000.json")
    mtime_before = os.path.getmtime(ck)
    # new file, later in sort order
    pq.write_table(generate_table(100, seed=56), str(d / "b.parquet"),
                   row_group_size=50)
    build_index(str(d), out, rows_per_partition=50)
    man = IndexManifest.load(out)
    assert man.max_doc == 200 and man.num_partitions == 4
    assert os.path.getmtime(ck) == mtime_before  # old partition untouched


def test_merge_ignores_stale_staging_dir(corpus_dir, tmp_path_factory,
                                         ray_session):
    """A crashed prior merge's merged.tmp must not leak files into the
    published view (ADVICE r1 medium: duplicated chunk rows would
    double-count postings)."""
    out = str(tmp_path_factory.mktemp("stale_idx"))
    build_index(corpus_dir, out, rows_per_partition=100)
    stale = os.path.join(out, "merged.tmp")
    os.makedirs(stale, exist_ok=True)
    # plant junk that WOULD double postings if carried over
    seg = sorted(os.listdir(os.path.join(out, "segments")))[0]
    with open(os.path.join(stale, "terms-stalejunk.parquet"), "wb") as f:
        f.write(b"not a real parquet")
    merge_index(out)
    from lucene_solr_ray.index.check import check_merged

    assert "terms-stalejunk.parquet" not in os.listdir(
        os.path.join(out, "merged"))
    assert check_merged(out, sample_terms=100)["ok"]


def test_docvalues_queries_numeric_and_string(index_dir, corpus_dir):
    """DocValuesTermsQuery/DocValuesRangeQuery over both value types
    (sandbox DocValuesNumbersQuery folds into the terms form)."""
    from lucene_solr_ray.search.query import (
        DocValuesRangeQuery,
        DocValuesTermsQuery,
    )

    s = IndexSearcher(index_dir)
    langs = s.docvalues("lang")
    want = np.flatnonzero(np.isin(langs, np.asarray(["java", "python"])))
    got = s._docs_only(DocValuesTermsQuery("lang", ("java", "python")))
    assert np.array_equal(got, want)
    # numeric semantics over an injected DV column (the accessor cache
    # is the per-searcher docvalues store)
    rng = np.random.default_rng(4)
    vals = rng.integers(0, 1000, s.max_doc)
    s._docvalues = {"num": vals}
    lo, hi = 250, 750
    want_n = np.flatnonzero((vals >= lo) & (vals < hi))
    got_n = s._docs_only(DocValuesRangeQuery("num", lo, hi, True, False))
    assert np.array_equal(got_n, want_n)
    # numbers-as-terms (DocValuesNumbersQuery shape)
    got_t = s._docs_only(DocValuesTermsQuery("num", (5, 17, 400)))
    assert np.array_equal(got_t,
                          np.flatnonzero(np.isin(vals, [5, 17, 400])))
    # open bounds
    assert s._docs_only(DocValuesRangeQuery("num")).size == s.max_doc


def test_stopword_only_partition_builds_empty_segment(tmp_path_factory,
                                                      ray_session):
    """A partition whose text analyzes to no tokens writes an empty
    segment, and search and merge over its neighbours stay correct — with
    positions off, on, and on with offsets."""
    import pyarrow as pa

    from lucene_solr_ray.index.check import check_merged

    d = tmp_path_factory.mktemp("stop_corpus")
    tbl = generate_table(200, seed=17)
    content = ["the and of a to in"] * 100 + [
        f"foo row {i}" if i % 3 == 0 else f"bar row {i}"
        for i in range(100, 200)]
    tbl = tbl.set_column(tbl.schema.get_field_index("content"), "content",
                         pa.array(content, pa.string()))
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    want = [i for i in range(100, 200) if i % 3 == 0]
    for opts in ({}, {"store_positions": True},
                 {"store_positions": True, "store_offsets": True}):
        out = str(tmp_path_factory.mktemp("stop_idx"))
        man = build_index(str(d), out, rows_per_partition=100, **opts)
        assert man.num_partitions == 2
        assert man.partitions[0]["num_terms"] == 0, opts
        before = IndexSearcher(out).search(TermQuery("foo"), k=200)
        assert sorted(before.to_pydict()["doc_id"]) == want, opts
        merge_index(out)
        after = IndexSearcher(out).search(TermQuery("foo"), k=200)
        assert after.to_pydict() == before.to_pydict(), opts
        assert check_merged(out)["ok"], opts


def test_bit_packed_index_refused(tmp_path_factory, ray_session):
    """An index whose manifest records the removed bit-packed encoding
    (``byte_aligned: false``) is refused on open instead of decoded."""
    import json

    from lucene_solr_ray.index.build import build_segment, plan_partitions

    d = tmp_path_factory.mktemp("bp_corpus")
    pq.write_table(generate_table(100, seed=5), str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("bp_idx"))
    build_index(str(d), out, rows_per_partition=100)
    path = os.path.join(out, "manifest.json")
    with open(path) as f:
        man = json.load(f)
    man["byte_aligned"] = False
    with open(path, "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="bit-packed"):
        IndexSearcher(out)
    with pytest.raises(ValueError, match="bit-packed"):
        merge_index(out)
    part = plan_partitions(str(d), 100)[0]
    with pytest.raises(ValueError, match="byte_aligned"):
        build_segment(part, str(tmp_path_factory.mktemp("bp_seg")),
                      text_field="content", analyzer_name="standard",
                      byte_aligned=False)
