"""CheckIndex validator, stored-field fetch, actor-pool query serving."""

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index, check_index, fetch_docs
from lucene_solr_ray.search import (
    IndexSearcher,
    ServingPool,
    parse_query,
    search_sharded,
)
from lucene_solr_ray.analysis import get_analyzer
from lucene_solr_ray.sources import generate_table


@pytest.fixture(scope="module")
def cidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("ccorpus")
    tbl = generate_table(300, seed=11)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("cindex"))
    build_index(str(d), out, rows_per_partition=100)
    return out, str(d), tbl


def test_check_index_clean(cidx):
    idx, _, _ = cidx
    rep = check_index(idx, sample_terms=500)
    assert rep["ok"] and rep["segments"] == 3 and rep["docs"] == 300
    assert rep["terms_checked"] > 0


def test_check_index_detects_corruption(cidx, tmp_path):
    import os
    import shutil

    idx, _, _ = cidx
    bad = str(tmp_path / "bad")
    shutil.copytree(idx, bad)
    # corrupt one norms file length column by rewriting with +1 lengths
    import pyarrow as pa

    f = os.path.join(bad, "norms", "part-00000.parquet")
    t = pq.read_table(f)
    t = t.set_column(
        t.schema.get_field_index("length"), "length",
        pa.array((t["length"].to_numpy() + 1).astype("int32")),
    )
    pq.write_table(t, f)
    rep = check_index(bad, strict=False, sample_terms=50)
    assert not rep["ok"]


def test_fetch_docs_roundtrip(cidx):
    idx, corpus, tbl = cidx
    got = fetch_docs(idx, corpus, [0, 17, 123, 299],
                     columns=["path", "content"])
    assert got["doc_id"].to_pylist() == [0, 17, 123, 299]
    for row, want_i in zip(got.to_pylist(), [0, 17, 123, 299]):
        assert row["content"] == tbl["content"][want_i].as_py()
        assert row["path"] == tbl["path"][want_i].as_py()


def test_search_many_actor_pool(cidx):
    idx, _, _ = cidx
    texts = ["return value", "def run", "+return -quick", "getMap"]
    out = ServingPool(idx, k=5, num_actors=2).search_many(texts).to_pydict()
    s = IndexSearcher(idx)
    ana = get_analyzer("standard")
    for qid, qt in enumerate(texts):
        want = s.search(parse_query(qt, ana), k=5).to_pydict()
        m = [i for i, q in enumerate(out["query_id"]) if q == qid]
        assert [out["doc_id"][i] for i in m] == want["doc_id"], qt


def test_empty_batch_keeps_result_schema(cidx):
    """A batch of no queries answers with an empty table of the batched
    result schema, from the replica pool and the sharded path alike."""
    idx, _, _ = cidx
    served = ServingPool(idx, k=5, num_actors=2).search_many([])
    sharded = search_sharded(idx, [], k=5, num_shards=2)
    for t in (served, sharded):
        assert t.num_rows == 0
        assert t.column_names == ["query_id", "rank", "doc_id", "score"]
    assert served.schema == sharded.schema


def test_sorted_index_early_termination(tmp_path_factory, ray_session):
    import pyarrow as pa

    from lucene_solr_ray.index.sorted_build import (
        build_sorted_index,
        early_terminated_topk,
    )

    d = tmp_path_factory.mktemp("sortcorpus")
    tbl = generate_table(400, seed=21)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("sortidx"))
    man = build_sorted_index(str(d), out, "path", rows_per_partition=100)
    assert man.sort_by == "path:asc"
    top = early_terminated_topk(out, 20, columns=["path"])
    want = sorted(tbl["path"].to_pylist())[:20]
    assert top["path"].to_pylist() == want
    # the index itself is consistent (doc ids are sort-order)
    from lucene_solr_ray.index import check_index

    rep = check_index(out, sample_terms=100)
    assert rep["ok"]


def test_delete_by_query_liv_semantics(cidx, tmp_path):
    import shutil

    from lucene_solr_ray.index import delete_by_query
    from lucene_solr_ray.search import (
        BooleanQuery,
        MatchAllDocsQuery,
        PhraseQuery,
        TermQuery,
    )

    idx, _, _ = cidx
    d = str(tmp_path / "delidx")
    shutil.copytree(idx, d)
    before = IndexSearcher(d)
    victims = set(before._score(TermQuery("quick"))[0].tolist())
    assert victims
    n = delete_by_query(d, TermQuery("quick"))
    assert n == len(victims)
    after = IndexSearcher(d)
    assert after.live_docs.num_deleted == len(victims)
    # deleted docs vanish from every query shape
    assert after.search(TermQuery("quick"), k=100).num_rows == 0
    t = after.search(TermQuery("return"), k=1000).to_pydict()
    assert not (set(t["doc_id"]) & victims)
    assert after.count(MatchAllDocsQuery()) == before.count(
        MatchAllDocsQuery()) - len(victims)
    q = BooleanQuery.build(must=[TermQuery("return")],
                           must_not=[TermQuery("def")])
    assert not (set(after.search(q, k=1000)["doc_id"].to_pylist())
                & victims)
    # stats retain deleted docs until rebuild (Lucene pre-merge behavior)
    assert after.max_doc == before.max_doc
    # a second generation appends
    delete_by_query(d, TermQuery("brown"))
    s3 = IndexSearcher(d)
    assert s3.live_docs.generations == 2
    # opting out sees the docs again
    raw = IndexSearcher(d, apply_deletes=False)
    assert raw.search(TermQuery("quick"), k=100).num_rows > 0


def test_searcher_manager_reopen(cidx, tmp_path):
    import shutil
    import time as _time

    from lucene_solr_ray.index import delete_by_query
    from lucene_solr_ray.search import SearcherManager, TermQuery

    idx, _, _ = cidx
    d = str(tmp_path / "nrt")
    shutil.copytree(idx, d)
    mgr = SearcherManager(d)
    s1 = mgr.acquire()
    n_before = s1.search(TermQuery("quick"), k=100).num_rows
    assert n_before > 0
    assert mgr.maybe_refresh() is False  # nothing changed
    delete_by_query(d, TermQuery("quick"))
    assert mgr.maybe_refresh() is True   # delete generation visible
    s2 = mgr.acquire()
    assert s2 is not s1
    assert s2.search(TermQuery("quick"), k=100).num_rows == 0


def test_check_merged_green_and_detects_corruption(tmp_path_factory,
                                                   ray_session):
    import numpy as np
    import pyarrow.parquet as pq
    import pytest

    from lucene_solr_ray.index import build_index, merge_index
    from lucene_solr_ray.index.check import check_merged
    from lucene_solr_ray.sources import generate_table

    d = tmp_path_factory.mktemp("cm_corpus")
    pq.write_table(generate_table(300, seed=41), str(d / "c.parquet"),
                   row_group_size=100)
    out = str(tmp_path_factory.mktemp("cm_index"))
    build_index(str(d), out, rows_per_partition=100, store_positions=True)
    merge_index(out, hot_df_threshold=100, salt_group_size=2)
    rep = check_merged(out, sample_terms=300)
    assert rep["ok"] and rep["terms_checked"] > 0

    # corruption: a commit that names a merged terms file twice, under
    # two names (double-counted postings)
    import os
    import shutil

    from lucene_solr_ray.index import IndexManifest

    from lucene_solr_ray.index.build import own_bin

    man = IndexManifest.load(out)
    # duplicate the LARGEST terms file and check ALL terms so detection
    # is deterministic (a tiny boundary file could slip past a sample)
    tf = max(man.terms_files,
             key=lambda f: os.path.getsize(os.path.join(out, f)))
    dup = "merged/terms-zzduplicate.parquet"
    for src, dst in ((tf, dup), (own_bin(tf), own_bin(dup))):
        shutil.copyfile(os.path.join(out, src), os.path.join(out, dst))
    man.terms_files.append(dup)
    man.commit()
    with pytest.raises(AssertionError):
        check_merged(out, sample_terms=10_000_000)


def test_collector_extension(tmp_path_factory, ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.search import IndexSearcher, TermQuery
    from lucene_solr_ray.sources import generate_table

    d = tmp_path_factory.mktemp("col_corpus")
    pq.write_table(generate_table(200, seed=42), str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("col_index"))
    build_index(str(d), out, rows_per_partition=100)
    s = IndexSearcher(out)

    # a custom collector: histogram of score deciles + total hits
    def histo(docs, scores):
        return {"hits": int(docs.size),
                "max": float(scores.max()) if docs.size else 0.0}

    got = s.collect(TermQuery("return"), histo)
    assert got["hits"] == s.count(TermQuery("return")) > 0
    assert got["max"] > 0


def test_check_index_distributed_matches(tmp_path_factory, ray_session):
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.index.check import check_index, check_index_distributed
    from lucene_solr_ray.sources import generate_table

    d = tmp_path_factory.mktemp("dchk_corpus")
    pq.write_table(generate_table(300, seed=51), str(d / "c.parquet"),
                   row_group_size=100)
    out = str(tmp_path_factory.mktemp("dchk_idx"))
    build_index(str(d), out, rows_per_partition=100)
    a = check_index(out, strict=False)
    b = check_index_distributed(out, sample_terms=None)
    assert b["ok"] and a["ok"]
    for k in ("segments", "terms_checked", "postings_checked", "docs"):
        assert a[k] == b[k], k


def test_solr_xml_loader_and_ingest(tmp_path_factory, ray_session):
    """XMLLoader parity (handler/loader/XMLLoader.java): Solr update-XML
    files load as a Dataset and ingest straight into a searchable
    index."""
    import os

    from lucene_solr_ray.sources.loaders import ingest_to_index, load_corpus
    from lucene_solr_ray.search import IndexSearcher, TermQuery

    d = tmp_path_factory.mktemp("xml_src")
    (d / "a.xml").write_text(
        "<add>"
        "<doc><field name='id'>1</field>"
        "<field name='content'>alpha beta gamma</field></doc>"
        "<doc><field name='id'>2</field>"
        "<field name='content'>beta delta</field>"
        "<field name='content'>epsilon</field></doc>"
        "</add>")
    (d / "b.xml").write_text(
        "<add><doc><field name='id'>3</field>"
        "<field name='content'>gamma zeta</field></doc></add>")
    ds = load_corpus(str(d), fmt="xml")
    rows = sorted(ds.take_all(), key=lambda r: r["id"])
    assert [r["id"] for r in rows] == ["1", "2", "3"]
    assert rows[1]["content"] == "beta delta\nepsilon"  # multiValued join
    out = str(tmp_path_factory.mktemp("xml_idx") / "idx")
    ingest_to_index(str(d), out, fmt="xml", text_field="content",
                    rows_per_partition=10)
    s = IndexSearcher(out)
    hits = s.search(TermQuery("gamma"), k=10)
    assert len(hits["doc_id"]) == 2


def test_index_info_luke(tmp_path_factory, ray_session):
    """Luke-style introspection: doc counts respect deletes; byte and
    term-row totals are non-trivial; flags mirror the manifest."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index, delete_docs, merge_index
    from lucene_solr_ray.index.check import index_info
    from lucene_solr_ray.search import IndexSearcher

    d = tmp_path_factory.mktemp("luke_src")
    pq.write_table(pa.table({
        "doc_key": pa.array(range(30), pa.int64()),
        "content": pa.array([f"alpha beta w{i}" for i in range(30)]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("luke_idx") / "idx")
    build_index(str(d), out, text_field="content", rows_per_partition=10)
    delete_docs(out, np.asarray([1, 2], np.int64))

    info = index_info(out)
    assert info["max_doc"] == 30
    assert info["num_docs"] == 28 and info["deleted_docs"] == 2
    assert info["term_dict_rows"] > 0
    assert info["bytes_by_family"]["segments"] > 0
    assert info["analyzer"] == "standard"
    assert not info["positions"]
    # the dictionary's rows are the listed terms files' rows, before and
    # after a merge (the partitions' own files stay on disk after it)
    for _ in range(2):
        rows = IndexSearcher(out).reader.terms.size
        assert index_info(out)["term_dict_rows"] == rows
        merge_index(out)
