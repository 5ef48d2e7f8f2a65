"""Replication (ReplicationHandler/SnapPuller analogue) + corpus loaders."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index, merge_index
from lucene_solr_ray.search import IndexSearcher, TermQuery
from lucene_solr_ray.search.searcher import SearcherManager
from lucene_solr_ray.sources import generate_table
from lucene_solr_ray.state.replication import index_generation, replicate


@pytest.fixture()
def master(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("rep_corpus")
    pq.write_table(generate_table(300, seed=21), str(d / "c.parquet"),
                   row_group_size=100)
    out = str(tmp_path_factory.mktemp("rep_master"))
    build_index(str(d), out, rows_per_partition=100)
    merge_index(out)
    return out


def test_replicate_then_identical_results(master, tmp_path_factory):
    replica = str(tmp_path_factory.mktemp("rep_replica"))
    r1 = replicate(master, replica)
    assert not r1["up_to_date"] and r1["copied"] > 0
    a = IndexSearcher(master).search(TermQuery("return"), k=10)
    b = IndexSearcher(replica).search(TermQuery("return"), k=10)
    assert a.to_pydict() == b.to_pydict()
    # second pass is a no-op
    r2 = replicate(master, replica)
    assert r2["up_to_date"] and r2["copied"] == 0


def test_replica_follows_master_updates(master, tmp_path_factory):
    replica = str(tmp_path_factory.mktemp("rep_replica2"))
    replicate(master, replica)
    mgr = SearcherManager(replica)

    from lucene_solr_ray.index.updates import update_documents

    changed = pa.table({
        "repo": pa.array(["r"]), "path": pa.array(["p"]),
        "commit": pa.array(["c"]), "lang": pa.array(["py"]),
        "content": pa.array(["replicated freshword content"]),
    })
    # master gains a delta segment (append; no matching key col -> use
    # append via update on a non-existent key set is fine: delete 0)
    from lucene_solr_ray.index.updates import append_segment

    append_segment(master, changed)
    r = replicate(master, replica)
    assert not r["up_to_date"]
    assert mgr.maybe_refresh()  # generation change seen
    s = mgr.acquire()
    assert s.count(TermQuery("freshword")) == 1


def test_loaders_csv_json(tmp_path_factory, ray_session):
    from lucene_solr_ray.sources.loaders import ingest_to_index, load_corpus

    d = tmp_path_factory.mktemp("loader_src")
    csv = d / "docs.csv"
    csv.write_text("id,body\n1,alpha beta\n2,beta gamma\n")
    jl = d / "docs.json"
    jl.write_text('{"id": 3, "body": "gamma delta"}\n'
                  '{"id": 4, "body": "delta epsilon"}\n')

    ds = load_corpus(str(csv), rename={"body": "content"})
    assert set(ds.schema().names) == {"id", "content"}
    assert ds.count() == 2

    out = str(tmp_path_factory.mktemp("loader_idx"))
    ingest_to_index(str(jl), out, fmt="json",
                    rename={"body": "content"}, rows_per_partition=10)
    s = IndexSearcher(out)
    assert s.count(TermQuery("delta")) == 2

    # Solr update-XML now loads natively; Tika binary extraction stays
    # out of scope (no JVM in this sandbox)
    with pytest.raises(NotImplementedError):
        load_corpus("x.pdf", fmt="tika")


def test_backup_restore_roundtrip(tmp_path_factory, ray_session):
    """Snapshot backup + restore (SnapShooter/RestoreCore): the restored
    index answers queries identically; snapshots survive source deletes
    made AFTER the snapshot (point-in-time semantics)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index, delete_docs
    from lucene_solr_ray.search import IndexSearcher, TermQuery
    from lucene_solr_ray.state.replication import (
        backup_index,
        restore_index,
    )

    d = tmp_path_factory.mktemp("bk_corpus")
    pq.write_table(pa.table({
        "doc_key": pa.array(range(20), pa.int64()),
        "content": pa.array([f"common word{i % 3} t{i}"
                             for i in range(20)]),
    }), str(d / "docs.parquet"))
    src = str(tmp_path_factory.mktemp("bk_src") / "idx")
    build_index(str(d), src, text_field="content", rows_per_partition=10)

    want = {int(x) for x in
            IndexSearcher(src)._docs_only(TermQuery("common"))}
    root = str(tmp_path_factory.mktemp("bk_snaps"))
    snap = backup_index(src, root)
    assert backup_index(src, root) == snap  # idempotent per generation

    # post-snapshot source mutation must NOT leak into the snapshot
    delete_docs(src, np.asarray([0, 1], np.int64))
    assert len(IndexSearcher(src)._docs_only(TermQuery("common"))) \
        == len(want) - 2

    restored = str(tmp_path_factory.mktemp("bk_restored") / "idx")
    restore_index(snap, restored)
    got = {int(x) for x in
           IndexSearcher(restored)._docs_only(TermQuery("common"))}
    assert got == want


def test_replication_carries_docvalues_sidecars(tmp_path_factory,
                                                ray_session):
    """Regression: docvalues sidecars and DV update generations must
    replicate and back up (they were missing from the sync dir list);
    a replica sorts by the DV field identically to the master."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.index.updates import update_numeric_docvalues
    from lucene_solr_ray.search import IndexSearcher, TermQuery
    from lucene_solr_ray.state.replication import (
        backup_index,
        replicate,
        restore_index,
    )

    d = tmp_path_factory.mktemp("dvrep_src")
    pq.write_table(pa.table({
        "doc_key": pa.array(range(12), pa.int64()),
        "rank": pa.array([i * 2 for i in range(12)], pa.int64()),
        "content": pa.array([f"common t{i}" for i in range(12)]),
    }), str(d / "docs.parquet"))
    src = str(tmp_path_factory.mktemp("dvrep_idx") / "idx")
    build_index(str(d), src, text_field="content",
                docvalues_fields=["rank"], rows_per_partition=6)
    # a DV update generation on top of the sidecar
    update_numeric_docvalues(
        src, "doc_key", "rank",
        pa.table({"doc_key": pa.array([3], pa.int64()),
                  "rank": pa.array([999], pa.int64())}))

    q = TermQuery("common")
    want = IndexSearcher(src).search_by_field(q, 3, "rank") \
        ["doc_id"].to_pylist()
    assert want[0] == 3  # the updated doc leads

    rep = str(tmp_path_factory.mktemp("dvrep_replica") / "rep")
    replicate(src, rep)
    got = IndexSearcher(rep).search_by_field(q, 3, "rank") \
        ["doc_id"].to_pylist()
    assert got == want

    snaps = str(tmp_path_factory.mktemp("dvrep_snaps"))
    snap = backup_index(src, snaps)
    restored = str(tmp_path_factory.mktemp("dvrep_restored") / "idx")
    restore_index(snap, restored)
    got2 = IndexSearcher(restored).search_by_field(q, 3, "rank") \
        ["doc_id"].to_pylist()
    assert got2 == want


def test_replication_carries_analyzer_and_external_files(
        tmp_path_factory, ray_session):
    """analyzer.pkl (@pickled chains) and external_* value files are
    commit companions — a replica resolves the analyzer and serves the
    same function-query values."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.analyzers import WhitespaceAnalyzer
    from lucene_solr_ray.index import IndexManifest, build_index
    from lucene_solr_ray.search import IndexSearcher
    from lucene_solr_ray.state.replication import replicate

    d = tmp_path_factory.mktemp("axrep_src")
    pq.write_table(pa.table({
        "doc_key": pa.array([0, 1], pa.int64()),
        "content": pa.array(["Alpha beta", "Gamma delta"]),
    }), str(d / "docs.parquet"))
    src = str(tmp_path_factory.mktemp("axrep_idx") / "idx")
    build_index(str(d), src, text_field="content",
                analyzer=WhitespaceAnalyzer(), rows_per_partition=10)
    import os

    with open(os.path.join(src, "external_boost"), "w") as f:
        f.write("0=7.5\n1=2.5\n")

    rep = str(tmp_path_factory.mktemp("axrep_replica") / "rep")
    replicate(src, rep)
    man = IndexManifest.load(rep)
    assert type(man.resolve_analyzer()).__name__ == "WhitespaceAnalyzer"
    assert IndexSearcher(rep).docvalues("external_boost").tolist() \
        == [7.5, 2.5]

    # backup + restore of an analyzer.pkl index (regression: the extras
    # copy used to SameFileError on the already-hardlinked pickle)
    from lucene_solr_ray.state.replication import (
        backup_index,
        restore_index,
    )

    snaps = str(tmp_path_factory.mktemp("axrep_snaps"))
    snap = backup_index(src, snaps)
    restored = str(tmp_path_factory.mktemp("axrep_restored") / "idx")
    restore_index(snap, restored)
    rman = IndexManifest.load(restored)
    assert type(rman.resolve_analyzer()).__name__ == "WhitespaceAnalyzer"
    assert IndexSearcher(restored).docvalues("external_boost").tolist() \
        == [7.5, 2.5]


def test_failed_publish_leaves_replica_as_after_last_sync(
        tmp_path_factory, ray_session, monkeypatch):
    """replicate deletes the files the master dropped only after it
    publishes the replica's manifest: a sync whose publish raises leaves
    the replica opening and answering exactly as after the sync before."""
    from lucene_solr_ray.index.mergepolicy import (execute_merge,
                                                   list_append_segments)
    from lucene_solr_ray.index.updates import update_documents

    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(30)]

    def docs(keys, tag=""):
        words = rng.choice(vocab, size=(len(keys), 8))
        return pa.table({
            "path": pa.array(keys),
            "content": pa.array([" ".join(w) + tag for w in words]),
        })

    d = tmp_path_factory.mktemp("rep_fail_src")
    pq.write_table(docs([f"p{i}" for i in range(60)]), str(d / "c.parquet"),
                   row_group_size=30)
    master = str(tmp_path_factory.mktemp("rep_fail_master") / "idx")
    build_index(str(d), master, text_field="content", rows_per_partition=30)
    merge_index(master)
    for i in range(2):
        update_documents(master, docs(["p1", "p2", f"n{i}"], " fresh"),
                         "path")
    rep = str(tmp_path_factory.mktemp("rep_fail_replica") / "rep")
    replicate(master, rep)
    queries = [TermQuery("w0"), TermQuery("w5"), TermQuery("fresh")]

    def answers():
        s = IndexSearcher(rep)
        return [s.search(q, k=10).to_pydict() for q in queries]

    before = answers()
    update_documents(master, docs(["p3", "n9"], " fresh"), "path")
    execute_merge(master, [s.terms_path
                           for s in list_append_segments(master)])

    real = os.replace
    man_path = os.path.abspath(os.path.join(rep, "manifest.json"))

    def replace(src, dst, *a, **kw):
        if os.path.abspath(dst) == man_path:
            raise OSError("injected publish failure")
        return real(src, dst, *a, **kw)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="injected"):
        replicate(master, rep)
    monkeypatch.undo()
    assert answers() == before


def test_replica_with_commits_of_its_own_is_refused(tmp_path, ray_session):
    """A replica that committed since its last sync may hold its own
    files under the names the master's next commits use: the sync
    raises instead of keeping them, and a re-seeded replica answers as
    the master does."""
    from lucene_solr_ray.index.updates import update_documents
    from lucene_solr_ray.state.replication import ReplicaDivergedError

    def docs(keys, word):
        return pa.table({
            "path": pa.array(keys),
            "content": pa.array([f"{k} body {word}" for k in keys]),
        })

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(docs([f"p{i}" for i in range(100)], "seed"),
                   str(src / "c.parquet"), row_group_size=50)
    master = str(tmp_path / "master")
    build_index(str(src), master, text_field="content",
                rows_per_partition=50)
    merge_index(master)
    replica = str(tmp_path / "replica")
    replicate(master, replica)
    update_documents(replica, docs(["p1", "r1"], "replicaonly"), "path")
    for i in range(2):
        update_documents(master, docs([f"p{2 + i}", f"m{i}"], "masteronly"),
                         "path")
    with pytest.raises(ReplicaDivergedError, match="re-seed"):
        replicate(master, replica)
    shutil.rmtree(replica)
    replicate(master, replica)
    for word in ("replicaonly", "masteronly", "seed"):
        want = IndexSearcher(master).search(TermQuery(word), k=200)
        got = IndexSearcher(replica).search(TermQuery(word), k=200)
        assert got.to_pydict() == want.to_pydict(), word
    assert IndexSearcher(replica).search(
        TermQuery("masteronly"), k=10).num_rows == 4


def test_searcher_manager_sees_a_full_copy_at_the_same_generation(
        tmp_path, ray_session):
    """A full copy may publish the master's commit at the generation the
    replica's searcher already has, under names it read with other
    bytes: ``maybe_refresh`` opens it fresh and then finds the master's
    docs; refreshing again with nothing new returns False."""
    from lucene_solr_ray.index.updates import update_documents

    def docs(keys, word):
        return pa.table({
            "path": pa.array(keys),
            "content": pa.array([f"{k} body {word}" for k in keys]),
        })

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(docs([f"p{i}" for i in range(40)], "seed"),
                   str(src / "c.parquet"), row_group_size=20)
    master = str(tmp_path / "master")
    build_index(str(src), master, text_field="content",
                rows_per_partition=20)
    merge_index(master)
    replica = str(tmp_path / "replica")
    replicate(master, replica)
    update_documents(replica, docs(["p1"], "replicaonly"), "path")
    update_documents(master, docs(["p2"], "masteronly"), "path")
    mgr = SearcherManager(replica)
    assert mgr.acquire().count(TermQuery("replicaonly")) == 1
    gen = mgr.acquire().manifest.generation
    replicate(master, replica)
    assert IndexSearcher(replica).manifest.generation == gen
    assert mgr.maybe_refresh()
    s = mgr.acquire()
    assert s.count(TermQuery("masteronly")) == 1
    assert s.count(TermQuery("replicaonly")) == 0
    want = IndexSearcher(master).search(TermQuery("body"), k=50)
    assert s.search(TermQuery("body"), k=50).to_pydict() == want.to_pydict()
    assert not mgr.maybe_refresh()
