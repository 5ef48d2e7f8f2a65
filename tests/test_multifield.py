"""Multi-field index: per-field sub-indexes, shared doc-id space,
cross-field boolean queries, keyword fields."""

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_multi_index
from lucene_solr_ray.search import (
    BooleanQuery,
    FieldedQuery,
    MultiFieldSearcher,
    PrefixQuery,
    TermQuery,
)
from lucene_solr_ray.sources import generate_table


@pytest.fixture(scope="module")
def midx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("mcorpus")
    tbl = generate_table(300, seed=13)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("mindex"))
    build_multi_index(str(d), out, {
        "content": {"analyzer": "standard"},
        "lang": {"analyzer": "keyword"},
        "path": {"analyzer": "simple_nostop"},
    }, rows_per_partition=100)
    return out, tbl


def test_keyword_field_exact_match(midx):
    out, tbl = midx
    s = MultiFieldSearcher(out)
    langs = tbl["lang"].to_pylist()
    want = sorted(i for i, v in enumerate(langs) if v == "python")
    q = FieldedQuery("lang", TermQuery("python"))
    docs, _ = s._score(q)
    assert docs.tolist() == want


def test_cross_field_boolean(midx):
    out, tbl = midx
    s = MultiFieldSearcher(out)
    q = BooleanQuery.build(
        must=[TermQuery("return"),
              FieldedQuery("lang", TermQuery("java"))],
    )
    docs, scores = s._score(q)
    langs = tbl["lang"].to_pylist()
    content_docs = set(s._score(TermQuery("return"))[0].tolist())
    want = sorted(d for d in content_docs if langs[d] == "java")
    assert docs.tolist() == want
    # cross-field score = content BM25 + keyword-field BM25 contribution
    assert (scores > 0).all()


def test_path_field_prefix(midx):
    out, tbl = midx
    s = MultiFieldSearcher(out)
    docs, _ = s._score(FieldedQuery("path", TermQuery("pkg7")))
    paths = tbl["path"].to_pylist()
    want = sorted(i for i, p in enumerate(paths) if "pkg7/" in p)
    assert docs.tolist() == want


def test_default_field_unchanged(midx):
    out, _ = midx
    s = MultiFieldSearcher(out)
    t = s.search(TermQuery("return"), k=5)
    assert t.num_rows > 0  # default field = content, full machinery works
    t2 = s.search(PrefixQuery("get"), k=5)
    assert t2.num_rows > 0


def test_fielded_query_parsing(midx):
    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.search import parse_query

    out, tbl = midx
    s = MultiFieldSearcher(out)
    q = parse_query("+return +lang:java", get_analyzer("standard"),
                    fields={"lang", "path"})
    docs, _ = s._score(q)
    langs = tbl["lang"].to_pylist()
    content_docs = set(s._score(TermQuery("return"))[0].tolist())
    assert docs.tolist() == sorted(
        d for d in content_docs if langs[d] == "java"
    )
    # unknown prefix stays a plain term (e.g. "foo:bar" w/o fields param)
    q2 = parse_query("lang:java", get_analyzer("standard"))
    from lucene_solr_ray.search import FieldedQuery
    assert not isinstance(q2, FieldedQuery)


def test_multifield_query_parser(midx):
    import numpy as np

    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.search.query import DisjunctionMaxQuery
    from lucene_solr_ray.search.queryparser import parse_multifield_query

    out, tbl = midx
    s = MultiFieldSearcher(out)
    ana = get_analyzer("standard")
    # bare term expands to a DisMax over both fields
    q = parse_multifield_query("return", ana, ["content", "path"])
    assert isinstance(q, DisjunctionMaxQuery)
    docs, _ = s._score(q)
    c_docs, _ = s._score(FieldedQuery("content", TermQuery("return")))
    p_docs, _ = s._score(FieldedQuery("path", TermQuery("return")))
    assert set(docs.tolist()) == set(c_docs.tolist()) | set(p_docs.tolist())
    # boolean structure preserved: each clause expands separately
    q2 = parse_multifield_query("+return -quick", ana,
                                ["content", "path"])
    docs2, _ = s._score(q2)
    assert docs2.size > 0
    # explicit field prefix still routes directly
    q3 = parse_multifield_query("lang:python", ana,
                                ["content", "lang"])
    langs = tbl["lang"].to_pylist()
    want = sorted(i for i, v in enumerate(langs) if v == "python")
    d3, _ = s._score(q3)
    assert d3.tolist() == want
    # per-field boosts scale the dismax leg
    qb = parse_multifield_query("return", ana, ["content", "path"],
                                boosts={"content": 2.0})
    db, sb = s._score(qb)
    d0, s0 = s._score(q)
    both = np.intersect1d(db, c_docs)
    assert both.size and sb[np.searchsorted(db, both[0])] >= \
        s0[np.searchsorted(d0, both[0])]


def test_per_field_codec_granularity(tmp_path_factory, ray_session):
    """PerFieldPostingsFormat analogue: each field picks its own analyzer
    + index options; queries over mixed-option fields still compose."""
    import json
    import os

    d = tmp_path_factory.mktemp("pf_src")
    tbl = generate_table(200, seed=21)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("pf_idx"))
    build_multi_index(str(d), out, {
        "content": {"analyzer": "standard", "positions": True},
        "path": {"analyzer": "simple_nostop"},
        "lang": {"analyzer": "keyword"},
    }, rows_per_partition=100)
    top = json.load(open(os.path.join(out, "multi_manifest.json")))
    assert top["fields"]["content"]["codec"]["positions"]
    s = MultiFieldSearcher(out)
    # the path sub-index (own analyzer, no positions) must decode to
    # exactly the same doc sets as the source column
    docs, _ = s._score(FieldedQuery("path", TermQuery("pkg3")))
    paths = tbl["path"].to_pylist()
    assert docs.tolist() == sorted(
        i for i, p in enumerate(paths) if "pkg3/" in p)
    # cross-field boolean: positional content field AND non-positional path
    both, _ = s._score(BooleanQuery.build(must=[
        FieldedQuery("content", TermQuery("return")),
        FieldedQuery("path", TermQuery("pkg3")),
    ]))
    c_docs, _ = s._score(FieldedQuery("content", TermQuery("return")))
    assert set(both.tolist()) == set(c_docs.tolist()) & set(docs.tolist())


def test_copy_field_catchall(tmp_path_factory, ray_session):
    """copyField (IndexSchema copyFieldsMap): dest column = space-joined
    sources, staged per input file so doc ids line up with the other
    fields; searching the catch-all hits terms from EITHER source."""
    d = tmp_path_factory.mktemp("cf_corpus")
    tbl = generate_table(200, seed=29)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=50)
    out = str(tmp_path_factory.mktemp("cf_index"))
    build_multi_index(str(d), out, {
        "content": {"analyzer": "standard"},
        "lang": {"analyzer": "keyword"},
    }, copy_fields={"catchall": ["lang", "content"]},
        rows_per_partition=100)

    s = MultiFieldSearcher(out)
    langs = tbl["lang"].to_pylist()
    want_lang = sorted(i for i, v in enumerate(langs) if v == "python")
    # lang value is findable through the catch-all text field
    docs, _ = s._score(FieldedQuery("catchall", TermQuery("python")))
    got = set(docs.tolist())
    assert set(want_lang) <= got
    # and a content term is too: catchall(content term) == content hits
    probe = None
    for text in tbl["content"].to_pylist():
        for w in text.split():
            if w.isalpha() and len(w) > 3:
                probe = w.lower()
                break
        if probe:
            break
    c_docs, _ = s._score(FieldedQuery("content", TermQuery(probe)))
    a_docs, _ = s._score(FieldedQuery("catchall", TermQuery(probe)))
    assert set(c_docs.tolist()) <= set(a_docs.tolist())
    assert len(c_docs) > 0


def test_edismax_pf_and_mm(tmp_path_factory, ray_session):
    """edismax: qf DisMax expansion + pf phrase boost + mm spec — the
    phrase-adjacent doc outranks the scattered-terms doc; mm prunes
    docs matching too few clauses."""
    import pyarrow as pa

    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.index import build_multi_index
    from lucene_solr_ray.search.queryparser import edismax_query

    d = tmp_path_factory.mktemp("edx_corpus")
    docs = [
        ("quick fox jumps high", "title a"),        # adjacent phrase
        ("quick brown dog; fox elsewhere jumps", "title b"),  # scattered
        ("quick only", "title c"),                  # 1 of 3 terms
    ]
    pq.write_table(pa.table({
        "doc_key": pa.array(range(len(docs)), pa.int64()),
        "content": pa.array([c for c, _t in docs]),
        "title": pa.array([t for _c, t in docs]),
    }), str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("edx_idx"))
    build_multi_index(str(d), out, {
        "content": {"analyzer": "standard", "positions": True},
        "title": {"analyzer": "standard"},
    }, rows_per_partition=10)

    s = MultiFieldSearcher(out)
    ana = get_analyzer("standard")
    q = edismax_query("quick fox jumps", ana, ["content", "title"],
                      pf_fields=["content"], mm="2")
    docs_r, scores = s._score(q)
    r = {int(d_): float(x) for d_, x in zip(docs_r, scores)}
    # mm=2: doc 2 (one term) is OUT
    assert set(r) == {0, 1}
    # pf: the adjacent-phrase doc wins
    assert r[0] > r[1]


def test_per_field_similarity(tmp_path_factory, ray_session):
    """Per-field BM25 parameters (schema <similarity> per fieldType):
    a field built with b=0 ignores length normalization — long and
    short docs with equal tf score identically on that field, while the
    default field still length-normalizes."""
    import pyarrow as pa

    d = tmp_path_factory.mktemp("pfs_corpus")
    pq.write_table(pa.table({
        "doc_key": pa.array([0, 1], pa.int64()),
        "content": pa.array(["target short",
                             "target " + "pad " * 40]),
        "title": pa.array(["target short",
                           "target " + "pad " * 40]),
    }), str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("pfs_idx"))
    build_multi_index(str(d), out, {
        "content": {"analyzer": "standard"},           # default BM25
        "title": {"analyzer": "standard", "b": 0.0},   # no length norm
    }, rows_per_partition=10)

    s = MultiFieldSearcher(out)
    q = FieldedQuery("title", TermQuery("target"))
    docs, scores = s._score(q)
    r = {int(d_): float(x) for d_, x in zip(docs, scores)}
    assert abs(r[0] - r[1]) < 1e-6          # b=0: length-blind
    qc = FieldedQuery("content", TermQuery("target"))
    docs, scores = s._score(qc)
    rc = {int(d_): float(x) for d_, x in zip(docs, scores)}
    assert rc[0] > rc[1]                    # default: short doc wins
