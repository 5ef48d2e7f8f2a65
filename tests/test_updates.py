"""updateDocument semantics: keyed delete-then-add without a full rebuild
(VERDICT r1 item 8): re-ingest 10% changed docs, serve the new content,
untouched partitions keep their segment bytes."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index, merge_index
from lucene_solr_ray.index.updates import append_segment, update_documents
from lucene_solr_ray.search import IndexSearcher, TermQuery


def _corpus(n, marker="originalword"):
    return pa.table({
        "doc_key": pa.array(np.arange(n, dtype=np.int64)),
        "content": pa.array([f"doc number {i} says {marker}"
                             for i in range(n)]),
    })


@pytest.fixture()
def uidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("upd_corpus")
    pq.write_table(_corpus(300), str(d / "c.parquet"), row_group_size=50)
    out = str(tmp_path_factory.mktemp("upd_index"))
    build_index(str(d), out, text_field="content",
                rows_per_partition=100)
    return out


def test_upsert_serves_new_content_without_rebuild(uidx, ray_session):
    # snapshot segment file mtimes before the upsert
    seg_dir = os.path.join(uidx, "segments")
    before = {f: os.path.getmtime(os.path.join(seg_dir, f))
              for f in os.listdir(seg_dir)}

    # change 10% of docs (keys 0..29) to carry a new marker term
    changed = pa.table({
        "doc_key": pa.array(np.arange(30, dtype=np.int64)),
        "content": pa.array([f"doc number {i} says updatedword"
                             for i in range(30)]),
    })
    res = update_documents(uidx, changed, "doc_key")
    assert res == {"deleted": 30, "added": 30}

    s = IndexSearcher(uidx)
    assert s.live_docs is not None and s.live_docs.num_deleted == 30
    # new content serves; old content only from untouched docs
    new_hits = s._docs_only(TermQuery("updatedword"))
    assert new_hits.size == 30 and new_hits.min() >= 300
    old_hits = s._docs_only(TermQuery("originalword"))
    assert old_hits.size == 270 and old_hits.min() >= 30

    # the original partitions were NOT rebuilt
    for f, mt in before.items():
        assert os.path.getmtime(os.path.join(seg_dir, f)) == mt, f
    # exactly one delta segment appended
    after = set(os.listdir(seg_dir)) - set(before)
    assert {x for x in after if x.endswith(".parquet")} == {
        "part-00003.parquet"}


def test_repeated_upsert_one_key(uidx, ray_session):
    for round_, marker in enumerate(["firstfix", "secondfix"], 1):
        t = pa.table({
            "doc_key": pa.array([5], pa.int64()),
            "content": pa.array([f"doc number 5 says {marker}"]),
        })
        update_documents(uidx, t, "doc_key")
        s = IndexSearcher(uidx)
        assert s._docs_only(TermQuery(marker)).size == 1
    s = IndexSearcher(uidx)
    # only the latest version is live
    assert s._docs_only(TermQuery("firstfix")).size == 0
    assert s._docs_only(TermQuery("secondfix")).size == 1
    assert s._docs_only(TermQuery("originalword")).size == 299


def test_merge_after_append(uidx, ray_session):
    t = pa.table({
        "doc_key": pa.array([1000], pa.int64()),
        "content": pa.array(["brand new appended doc freshterm"]),
    })
    append_segment(uidx, t)
    merge_index(uidx)
    s = IndexSearcher(uidx)
    assert s.reader.__class__.__name__ == "MergedReader"
    assert s._docs_only(TermQuery("freshterm")).size == 1


def test_custom_analyzer_survives_append(tmp_path_factory, ray_session):
    """build_index with an unregistered Analyzer OBJECT persists it
    (analyzer.pkl + '@pickled' manifest name) so keyed appends/upserts
    reuse the exact build-time chain instead of KeyError-ing on an
    unresolvable name (r2 ADVICE finding)."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.analyzers import WhitespaceAnalyzer
    from lucene_solr_ray.index import IndexManifest, build_index
    from lucene_solr_ray.index.updates import append_segment
    from lucene_solr_ray.search import IndexSearcher, TermQuery

    d = tmp_path_factory.mktemp("custom_ana")
    pq.write_table(pa.table({
        "doc_key": pa.array([1, 2], pa.int64()),
        "content": pa.array(["Alpha-Beta gamma", "delta epsilon"]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("custom_ana_idx") / "idx")
    ana = WhitespaceAnalyzer()  # not in the registry by this identity
    build_index(str(d), out, text_field="content", analyzer=ana,
                rows_per_partition=10)
    man = IndexManifest.load(out)
    assert man.analyzer == "@pickled"
    assert type(man.resolve_analyzer()).__name__ == "WhitespaceAnalyzer"
    # keyed append re-analyzes with the SAME chain (whitespace keeps
    # "Alpha-Beta" as one case-sensitive token)
    append_segment(out, pa.table({
        "doc_key": pa.array([3], pa.int64()),
        "content": pa.array(["Alpha-Beta zeta"]),
    }))
    s = IndexSearcher(out)
    hits = s.search(TermQuery("Alpha-Beta"), k=10)
    assert {int(h) for h in hits["doc_id"].to_numpy()} == {0, 2}


def test_incremental_merge_append(tmp_path_factory, ray_session):
    """NRT publish without re-merge: appending a segment to a MERGED
    index adds the delta segment's own terms file to the commit's list
    and rewrites nothing; queries over the merged view see the new docs
    and match a full re-merge exactly."""
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index import IndexManifest, build_index, merge_index
    from lucene_solr_ray.index.updates import append_segment
    from lucene_solr_ray.search import IndexSearcher, TermQuery
    from lucene_solr_ray.search.readers import MergedReader

    d = tmp_path_factory.mktemp("inc_src")
    pq.write_table(pa.table({
        "doc_key": pa.array([1, 2, 3], pa.int64()),
        "content": pa.array(["alpha beta", "beta gamma", "gamma delta"]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("inc_idx") / "idx")
    build_index(str(d), out, text_field="content", rows_per_partition=2)
    merge_index(out)
    merged_dir = os.path.join(out, "merged")
    before = set(os.listdir(merged_dir))
    listed = IndexManifest.load(out).terms_files
    append_segment(out, pa.table({
        "doc_key": pa.array([4, 5], pa.int64()),
        "content": pa.array(["beta epsilon", "alpha zeta"]),
    }))
    man = IndexManifest.load(out)
    assert man.merged  # still merged — NOT invalidated
    assert set(os.listdir(merged_dir)) == before  # nothing rewritten
    # the list gains the delta segment's own terms file only
    assert man.terms_files == listed + [man.partitions[-1]["segment"]]
    s = IndexSearcher(out, reader=MergedReader(out))
    hits = s.search(TermQuery("beta"), k=10)
    assert {int(h) for h in hits["doc_id"].to_numpy()} == {0, 1, 3}
    hits = s.search(TermQuery("zeta"), k=10)
    assert hits["doc_id"].to_pylist() == [4]
    # rank identity vs a FULL re-merge of the same five docs
    merge_index(out)
    s2 = IndexSearcher(out, reader=MergedReader(out))
    for t in ("alpha", "beta", "gamma", "zeta"):
        a = s.search(TermQuery(t), k=10)
        b = s2.search(TermQuery(t), k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), t
        assert a["score"].to_pylist() == b["score"].to_pylist(), t


def test_atomic_update_ops(tmp_path_factory, ray_session):
    """Atomic update modifiers (AtomicUpdateDocumentMerger): set / inc /
    add / remove merge against the stored document and reindex."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.index.updates import atomic_update
    from lucene_solr_ray.index.check import fetch_docs
    from lucene_solr_ray.search import IndexSearcher, TermQuery

    d = tmp_path_factory.mktemp("atomic_src")
    pq.write_table(pa.table({
        "doc_key": pa.array([1, 2], pa.int64()),
        "content": pa.array(["alpha beta", "gamma delta"]),
        "views": pa.array([10, 20], pa.int64()),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("atomic_idx") / "idx")
    build_index(str(d), out, text_field="content", rows_per_partition=10)
    r = atomic_update(out, "doc_key", {
        1: {"content": ("add", "epsilon"), "views": ("inc", 5)},
        2: {"content": ("remove", "gamma")},
    })
    assert r == {"deleted": 2, "added": 2}
    s = IndexSearcher(out)
    # new token searchable; removed token gone
    assert s.search(TermQuery("epsilon"), k=5)["doc_id"].to_pylist() == [2]
    assert len(s.search(TermQuery("gamma"), k=5)["doc_id"]) == 0
    # stored fields reflect the merge
    docs = fetch_docs(out, doc_ids=[2, 3]).to_pylist()
    by_key = {r["doc_key"]: r for r in docs}
    assert by_key[1]["content"] == "alpha beta epsilon"
    assert by_key[1]["views"] == 15
    assert by_key[2]["content"] == "delta"


def test_realtime_get(ray_session, tmp_path):
    from lucene_solr_ray.index.updates import realtime_get, update_documents

    src = tmp_path / "rtg_corpus"
    src.mkdir()
    t = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "content": pa.array(["alpha beta", "gamma delta", "epsilon zeta"]),
    })
    pq.write_table(t, str(src / "c.parquet"))
    d = str(tmp_path / "rtg_index")
    build_index(str(src), d, text_field="content")

    got = realtime_get(d, "doc_id", [11, 10])
    assert got.column("doc_id").to_pylist() == [11, 10]
    assert got.column("content").to_pylist() == ["gamma delta",
                                                 "alpha beta"]

    update_documents(d, pa.table({
        "doc_id": pa.array([11], pa.int64()),
        "content": pa.array(["gamma UPDATED"]),
    }), "doc_id")
    got = realtime_get(d, "doc_id", [11, 99, 12])
    assert got.column("doc_id").to_pylist() == [11, 12]
    assert got.column("content").to_pylist()[0] == "gamma UPDATED"


def _path_index(tmp_path_factory, n=40):
    d = tmp_path_factory.mktemp("path_src")
    pq.write_table(pa.table({
        "path": pa.array([f"p{i}" for i in range(n)]),
        "content": pa.array([f"doc {i} says originalword" for i in range(n)]),
    }), str(d / "c.parquet"), row_group_size=10)
    out = str(tmp_path_factory.mktemp("path_idx") / "idx")
    build_index(str(d), out, text_field="content", rows_per_partition=20)
    merge_index(out)
    return out


def test_duplicate_keys_in_one_batch_last_row_wins(tmp_path_factory,
                                                   ray_session):
    idx = _path_index(tmp_path_factory)
    res = update_documents(idx, pa.table({
        "path": pa.array(["p1", "p2", "p1"]),
        "content": pa.array(["firstcopy", "othercopy", "secondcopy"]),
    }), "path")
    assert res == {"deleted": 2, "added": 2}
    s = IndexSearcher(idx)
    assert s._docs_only(TermQuery("firstcopy")).size == 0
    assert s._docs_only(TermQuery("secondcopy")).size == 1
    assert s._docs_only(TermQuery("othercopy")).size == 1
    assert s._docs_only(TermQuery("originalword")).size == 38


def test_empty_batches_change_nothing(tmp_path_factory, ray_session):
    from lucene_solr_ray.index import IndexManifest
    from lucene_solr_ray.index.updates import realtime_get

    idx = _path_index(tmp_path_factory)
    before = IndexManifest.load(idx).num_partitions
    empty = pa.table({"path": pa.array([], pa.string()),
                      "content": pa.array([], pa.string())})
    assert update_documents(idx, empty, "path") == {"deleted": 0, "added": 0}
    assert IndexManifest.load(idx).num_partitions == before
    assert realtime_get(idx, "path", []).num_rows == 0


def test_atomic_update_by_string_key(tmp_path_factory, ray_session):
    from lucene_solr_ray.index.updates import atomic_update, realtime_get

    idx = _path_index(tmp_path_factory)
    r = atomic_update(idx, "path", {
        "p3": {"content": ("add", "stringkeyed")},
        "p7": {"content": ("set", "replacedtext")},
    })
    assert r == {"deleted": 2, "added": 2}
    got = realtime_get(idx, "path", ["p7", "p3"])
    assert got.column("content").to_pylist() == [
        "replacedtext", "doc 3 says originalword stringkeyed"]
    s = IndexSearcher(idx)
    assert s._docs_only(TermQuery("stringkeyed")).size == 1
    assert s._docs_only(TermQuery("originalword")).size == 39


def test_keyed_functions_start_no_ray_data_job(tmp_path_factory,
                                               ray_session, monkeypatch):
    import ray.data

    from lucene_solr_ray.index.updates import (
        atomic_update, realtime_get, update_numeric_docvalues)

    idx = _path_index(tmp_path_factory)

    def no_job(*a, **k):
        raise AssertionError("keyed update started a Ray Data job")

    monkeypatch.setattr(ray.data, "from_items", no_job)
    assert update_documents(idx, pa.table({
        "path": pa.array(["p4"]), "content": pa.array(["fresh"]),
    }), "path") == {"deleted": 1, "added": 1}
    assert atomic_update(idx, "path", {"p5": {"content": ("add", "x")}}) \
        == {"deleted": 1, "added": 1}
    assert realtime_get(idx, "path", ["p4"]).column(
        "content").to_pylist() == ["fresh"]
    # no docvalues field is stored; the key lookup still runs
    assert update_numeric_docvalues(idx, "path", "views", pa.table({
        "path": pa.array(["p6"]), "views": pa.array([3], pa.int64()),
    })) == 1


def test_null_keys_match_nothing_and_are_refused_in_a_batch(tmp_path,
                                                           ray_session):
    """A null key in the index matches no incoming key, so every keyed
    function still works; a null key in an incoming batch is refused
    with a named ValueError."""
    from lucene_solr_ray.index.updates import (
        atomic_update, realtime_get, update_numeric_docvalues)

    pq.write_table(pa.table({
        "path": pa.array(["a", None, "c"]),
        "content": pa.array(["alpha one", "beta two", "gamma three"]),
    }), str(tmp_path / "c.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, text_field="content")
    assert update_documents(idx, pa.table({
        "path": pa.array(["a"]), "content": pa.array(["alpha fresh"]),
    }), "path") == {"deleted": 1, "added": 1}
    assert realtime_get(idx, "path", ["c", "a"]).column(
        "content").to_pylist() == ["gamma three", "alpha fresh"]
    assert update_numeric_docvalues(idx, "path", "views", pa.table({
        "path": pa.array(["c"]), "views": pa.array([3], pa.int64()),
    })) == 1
    assert atomic_update(idx, "path", {"c": {"content": ("add", "more")}}) \
        == {"deleted": 1, "added": 1}
    s = IndexSearcher(idx)
    assert s._docs_only(TermQuery("beta")).size == 1
    assert s._docs_only(TermQuery("fresh")).size == 1
    assert s._docs_only(TermQuery("more")).size == 1

    calls = [
        lambda: update_documents(idx, pa.table({
            "path": pa.array(["c", None]),
            "content": pa.array(["x", "y"])}), "path"),
        lambda: atomic_update(idx, "path",
                              {None: {"content": ("set", "x")}}),
        lambda: realtime_get(idx, "path", ["a", None]),
        lambda: update_numeric_docvalues(idx, "path", "views", pa.table({
            "path": pa.array([None], pa.string()),
            "views": pa.array([1], pa.int64())})),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="null key"):
            call()


def _abc_index(tmp_path):
    """A ``path, content`` index of keys a, b, c where ``a`` was upserted
    (an append in corpus column order) and ``c`` atomically updated (an
    append with its columns sorted by name: ``content, path``)."""
    from lucene_solr_ray.index.updates import atomic_update

    pq.write_table(pa.table({
        "path": pa.array(["a", "b", "c"]),
        "content": pa.array(["alpha one", "beta two", "gamma three"]),
    }), str(tmp_path / "c.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, text_field="content")
    assert update_documents(idx, pa.table({
        "path": pa.array(["a"]), "content": pa.array(["alpha fresh"]),
    }), "path") == {"deleted": 1, "added": 1}
    assert atomic_update(idx, "path", {"c": {"content": ("add", "more")}}) \
        == {"deleted": 1, "added": 1}
    return idx


def test_realtime_get_across_appends_with_other_column_order(tmp_path,
                                                             ray_session):
    from lucene_solr_ray.index.updates import realtime_get

    idx = _abc_index(tmp_path)
    got = realtime_get(idx, "path", ["c", "a", "b"])
    assert got.column("path").to_pylist() == ["c", "a", "b"]
    assert got.column("content").to_pylist() == [
        "gamma three more", "alpha fresh", "beta two"]


def test_docvalues_update_skips_deleted_versions(tmp_path, ray_session):
    from lucene_solr_ray.index import IndexManifest
    from lucene_solr_ray.index.updates import update_numeric_docvalues

    idx = _abc_index(tmp_path)
    assert update_numeric_docvalues(idx, "path", "views", pa.table({
        "path": pa.array(["c"]), "views": pa.array([3], pa.int64()),
    })) == 1
    man = IndexManifest.load(idx)
    (name,) = man.docvalues_updates["views"]
    gen = pq.read_table(os.path.join(idx, "docvalues_updates", "views",
                                     name))
    assert gen.num_rows == 1
    # the one row is c's live version, the last doc of the index
    assert gen.column("doc_id").to_pylist() == [man.max_doc - 1]


def test_key_lookup_reads_each_source_file_once(tmp_path, ray_session,
                                                monkeypatch):
    """The four partitions of a merged index all point at one corpus
    file: the key lookup opens it once, reads all their row groups in
    that read, and still maps each row to its own doc id."""
    from lucene_solr_ray.index import IndexManifest
    from lucene_solr_ray.index.updates import _matching_doc_ids

    src = str(tmp_path / "c.parquet")
    pq.write_table(_corpus(400), src, row_group_size=50)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_field="content", rows_per_partition=100)
    merge_index(idx)
    update_documents(idx, pa.table({
        "doc_key": pa.array([400, 401], pa.int64()),
        "content": pa.array(["appended one", "appended two"]),
    }), "doc_key")
    man = IndexManifest.load(idx)
    corpus = {p["file"] for p in man.partitions[:4]}
    assert len(man.partitions) == 5 and len(corpus) == 1
    opened = []
    real = pq.ParquetFile
    monkeypatch.setattr(pq, "ParquetFile", lambda path, *a, **kw:
                        opened.append(path) or real(path, *a, **kw))
    ids, pos = _matching_doc_ids(man, "doc_key",
                                 np.array([3, 120, 250, 399, 401]))
    monkeypatch.undo()
    assert opened.count(corpus.pop()) == 1 and len(opened) == 2
    assert ids.tolist() == [3, 120, 250, 399, 401]
    assert pos.tolist() == [0, 1, 2, 3, 4]
