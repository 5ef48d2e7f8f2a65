"""One commit point: every writer publishes by one manifest replace, and a
reader opens exactly the files the manifest names. So a writer that dies
after any file write leaves the index at its before-state, a re-run
reaches the after-state, and a reader polling during upserts and a tier
merge only ever sees committed states."""

import os
import shutil
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import lucene_solr_ray.index.updates as updates_mod
from lucene_solr_ray.index import (IndexManifest, build_index,
                                   delete_by_query, merge_index)
from lucene_solr_ray.index.build import _FILE_DIRS
from lucene_solr_ray.index.check import check_index, exorcise_index
from lucene_solr_ray.index.mergepolicy import (execute_merge,
                                               list_append_segments)
from lucene_solr_ray.index.updates import (realtime_get, update_documents,
                                           update_numeric_docvalues)
from lucene_solr_ray.search import (BooleanQuery, IndexSearcher,
                                    SearcherManager, TermQuery)
from lucene_solr_ray.state.replication import replicate

VOCAB = [f"w{i}" for i in range(40)]
QUERIES = [
    TermQuery("w0"), TermQuery("w7"), TermQuery("fresh"),
    BooleanQuery.build(should=[TermQuery("w1"), TermQuery("w2")]),
    BooleanQuery.build(must=[TermQuery("w3"), TermQuery("fresh")]),
]
KEYS = ["p0", "p1", "p5", "n0_0", "n1_0"]


def _docs(rng, keys, tag=""):
    words = rng.choice(VOCAB, size=(len(keys), 10))
    return pa.table({
        "path": pa.array(keys),
        "rank": pa.array(rng.integers(0, 100, len(keys)), pa.int64()),
        "content": pa.array([" ".join(w) + tag for w in words]),
    })


def _upsert_batch(i):
    rng = np.random.default_rng(100 + i)
    keys = [f"p{k}" for k in rng.choice(120, 4, replace=False)]
    return _docs(rng, keys + [f"n{i}_0", f"n{i}_1"], " fresh")


def _tops(s):
    return [list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))
            for t in (s.search(q, k=10) for q in QUERIES)]


def _state(idx):
    """Top-10 of every query, realtime_get of KEYS and the rank
    docvalues, from a fresh searcher."""
    s = IndexSearcher(idx)
    got = realtime_get(idx, "path", KEYS)
    return (_tops(s), got.select(["path", "rank", "content"]).to_pydict(),
            s.docvalues("rank").tolist())


def _unnamed(idx):
    named = IndexManifest.load(idx).files()
    return sorted(
        os.path.relpath(os.path.join(d, f), idx)
        for top in _FILE_DIRS
        for d, _, names in os.walk(os.path.join(idx, top)) for f in names
        if os.path.relpath(os.path.join(d, f), idx) not in named)


@pytest.fixture(scope="module")
def base(tmp_path_factory, ray_session):
    """A merged, docvalues-carrying index with two upserts on top (two
    append terms files for a tier merge)."""
    src = tmp_path_factory.mktemp("cp_src")
    pq.write_table(_docs(np.random.default_rng(3),
                         [f"p{i}" for i in range(120)]),
                   str(src / "c.parquet"), row_group_size=40)
    idx = str(tmp_path_factory.mktemp("cp_base") / "idx")
    build_index(str(src), idx, text_field="content", rows_per_partition=40,
                docvalues_fields=["rank"])
    merge_index(idx)
    for i in range(2):
        update_documents(idx, _upsert_batch(i), "path")
    return idx


class _InProcessDataset:
    """``rd.from_items(rows).map_batches(fn, ...).take_all()`` with ``fn``
    run in the calling process, one row per batch: merge_index writes
    every file in its range tasks, and the crash hook below sees only
    this process's writes."""

    def __init__(self, rows):
        self.rows = rows

    def map_batches(self, fn, **_):
        self.fn = fn
        return self

    def take_all(self):
        out = []
        for row in self.rows:
            res = self.fn(pa.Table.from_pylist([row]))
            out += [dict(zip(res, vals)) for vals in zip(*res.values())]
        return out


def _merge_in_process(idx):
    import ray.data

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ray.data, "from_items", _InProcessDataset)
        merge_index(idx)


OPS = {
    "update_documents": lambda idx: update_documents(
        idx, _upsert_batch(7), "path"),
    "delete_by_query": lambda idx: delete_by_query(idx, TermQuery("w3")),
    "update_numeric_docvalues": lambda idx: update_numeric_docvalues(
        idx, "path", "rank", pa.table({
            "path": pa.array(["p0", "p5", "n1_0"]),
            "rank": pa.array([1000, 2000, 3000], pa.int64())})),
    "execute_merge": lambda idx: execute_merge(
        idx, [s.terms_path for s in list_append_segments(idx)]),
    "merge_index": _merge_in_process,
}


class Crash(Exception):
    pass


def _count_writes(monkeypatch, crash_after=None):
    """Count the files the calling process publishes with os.replace
    before the manifest; with ``crash_after``, raise right after that
    many have landed."""
    real = os.replace
    n = [0]

    def replace(src, dst, *a, **kw):
        if os.path.basename(dst) == "manifest.json" and crash_after:
            raise Crash("at the commit")
        real(src, dst, *a, **kw)
        if os.path.basename(dst) != "manifest.json":
            n[0] += 1
            if n[0] == crash_after:
                raise Crash(f"after write {n[0]}")

    monkeypatch.setattr(os, "replace", replace)
    return n


@pytest.mark.parametrize("op", sorted(OPS))
def test_crash_after_any_write_keeps_before_state(op, base, tmp_path,
                                                  monkeypatch):
    before = _state(base)
    clean = str(tmp_path / "clean")
    replicate(base, clean)
    with monkeypatch.context() as m:
        writes = _count_writes(m)
        OPS[op](clean)
    after = _state(clean)
    assert writes[0] >= 1
    if op in ("update_documents", "delete_by_query",
              "update_numeric_docvalues"):
        assert after != before
    for k in range(1, writes[0] + 1):
        idx = str(tmp_path / f"crash{k}")
        replicate(base, idx)
        with monkeypatch.context() as m:
            _count_writes(m, crash_after=k)
            with pytest.raises(Crash):
                OPS[op](idx)
        assert _state(idx) == before, (op, k)
        OPS[op](idx)
        assert _state(idx) == after, (op, k)
        assert _unnamed(idx) == []  # the commit swept the crash's files
        shutil.rmtree(idx)


def test_concurrent_reader_sees_only_committed_states(base, tmp_path):
    idx = str(tmp_path / "idx")
    replicate(base, idx)
    committed = {IndexManifest.load(idx).generation:
                 _tops(IndexSearcher(idx))}
    seen, errors = [], []
    stop = threading.Event()

    def reader():
        try:
            mgr = SearcherManager(idx)
            while not stop.is_set():
                mgr.maybe_refresh()
                s = mgr.acquire()
                seen.append((s.manifest.generation, _tops(s)))
        except Exception as e:  # reported by the assert below
            errors.append(e)

    t = threading.Thread(target=reader)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two threads finely
    t.start()
    try:
        for i in range(12):
            update_documents(idx, _upsert_batch(10 + i), "path")
            committed[IndexManifest.load(idx).generation] = \
                _tops(IndexSearcher(idx))
            if i == 5:
                execute_merge(idx, [s.terms_path
                                    for s in list_append_segments(idx)])
                committed[IndexManifest.load(idx).generation] = \
                    _tops(IndexSearcher(idx))
    finally:
        stop.set()
        t.join(timeout=120)
        sys.setswitchinterval(switch)
    assert not t.is_alive()
    assert errors == []
    assert len({g for g, _ in seen}) >= 2
    for g, tops in seen:
        assert tops == committed[g], g


def test_reader_between_append_and_commit_sees_before_state(
        base, tmp_path, monkeypatch):
    idx = str(tmp_path / "idx")
    replicate(base, idx)
    before = _tops(IndexSearcher(idx))
    seen = []
    real = updates_mod.build_segment

    def probe(*a, **kw):
        row = real(*a, **kw)  # the append's segment files are written
        seen.append(_tops(IndexSearcher(idx)))
        return row

    monkeypatch.setattr(updates_mod, "build_segment", probe)
    update_documents(idx, _upsert_batch(30), "path")
    assert seen == [before]
    assert _tops(IndexSearcher(idx)) != before


def test_open_retries_when_a_newer_commit_dropped_a_file(base, tmp_path,
                                                        monkeypatch):
    """An open that starts from a manifest whose files a newer commit has
    since unlinked (a full merge replaces every merged terms file)
    reloads the manifest and opens the newer commit."""
    idx = str(tmp_path / "idx")
    replicate(base, idx)
    stale = IndexManifest.load(idx)
    merge_index(idx)
    real = IndexManifest.load.__func__
    loads = []

    def load(cls, index_dir):
        loads.append(index_dir)
        return stale if len(loads) == 1 else real(cls, index_dir)

    monkeypatch.setattr(IndexManifest, "load", classmethod(load))
    s = IndexSearcher(idx)
    monkeypatch.undo()
    assert len(loads) == 2
    assert s.manifest.generation == stale.generation + 1
    assert _tops(s) == _tops(IndexSearcher(idx))


def test_rebuild_gives_changed_partitions_new_names(tmp_path_factory,
                                                    ray_session):
    """A rebuild over changed input writes the changed partitions under
    names no earlier commit used, so a managed searcher's reopen and a
    replica's name-comparing sync both follow it."""
    src = tmp_path_factory.mktemp("rb_src")
    keys = [f"p{i}" for i in range(80)]
    pq.write_table(_docs(np.random.default_rng(1), keys),
                   str(src / "c.parquet"), row_group_size=40)
    idx = str(tmp_path_factory.mktemp("rb_idx") / "idx")
    build_index(str(src), idx, text_field="content", rows_per_partition=40)
    rep = str(tmp_path_factory.mktemp("rb_rep") / "rep")
    replicate(idx, rep)
    mgr = SearcherManager(idx)
    old = IndexManifest.load(idx).files()
    pq.write_table(_docs(np.random.default_rng(2), keys),
                   str(src / "c.parquet"), row_group_size=40)
    build_index(str(src), idx, text_field="content", rows_per_partition=40)
    new = IndexManifest.load(idx).files()
    assert not {f for f in new if f.startswith(("segments", "norms"))} & old
    assert mgr.maybe_refresh()
    want = _tops(IndexSearcher(idx))
    assert _tops(mgr.acquire()) == want
    replicate(idx, rep)
    assert _tops(IndexSearcher(rep)) == want
    assert _unnamed(idx) == [] and _unnamed(rep) == []
    # the checker opens each partition's own payload file: the rebuilt
    # partitions are healthy, so nothing is quarantined
    assert check_index(idx)["ok"]
    assert exorcise_index(idx)["dropped"] == []
