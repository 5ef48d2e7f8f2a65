"""NRT reopen: a SearcherManager reopen that reads only the files a publish
added must leave the searcher exactly as a fresh open of the same index —
term arrays, block-max lists, payload bytes, norms and top-10 results —
through keyed upserts, a full merge, a tier merge and a replication into
the same directory."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.index import IndexManifest, build_index, merge_index
from lucene_solr_ray.index.mergepolicy import (execute_merge,
                                               list_append_segments)
from lucene_solr_ray.index.updates import update_documents
from lucene_solr_ray.search import (
    BooleanQuery, IndexSearcher, PhraseQuery, SearcherManager, TermQuery)
from lucene_solr_ray.search import readers
from lucene_solr_ray.state.replication import replicate

VOCAB = [f"w{i}" for i in range(60)]


def _docs(rng, keys, tag=""):
    words = rng.choice(VOCAB, size=(len(keys), 12))
    return pa.table({
        "path": pa.array(keys),
        "content": pa.array([" ".join(w) + tag for w in words]),
    })


QUERIES = [
    TermQuery("w0"), TermQuery("w7"), TermQuery("w59"), TermQuery("fresh"),
    BooleanQuery.build(should=[TermQuery("w1"), TermQuery("w2")]),
    BooleanQuery.build(must=[TermQuery("w3"), TermQuery("fresh")]),
    PhraseQuery(("w4", "w5")),
]


def _assert_fresh(s: IndexSearcher, idx: str) -> None:
    f = IndexSearcher(idx)
    a, b = s.reader, f.reader
    for name in ("terms", "chunk_order", "df", "ttf", "start_doc"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)
    for r in range(a.terms.size):
        for blk in ("last", "maxtf", "maxnorm"):
            np.testing.assert_array_equal(a.blk(blk, r), b.blk(blk, r))
        for stream in ("doc", "pos"):
            assert bytes(a._stream(stream, r)) == bytes(b._stream(stream, r))
    np.testing.assert_array_equal(s.norms.norm, f.norms.norm)
    np.testing.assert_array_equal(s.norms.length, f.norms.length)
    for q in QUERIES:
        ra, rb = s.search(q, k=10), f.search(q, k=10)
        assert ra["doc_id"].to_pylist() == rb["doc_id"].to_pylist(), q
        assert ra["score"].to_pylist() == rb["score"].to_pylist(), q


def test_reopen_equals_fresh_open(tmp_path_factory, ray_session,
                                  monkeypatch):
    rng = np.random.default_rng(5)
    src = tmp_path_factory.mktemp("reopen_src")
    pq.write_table(_docs(rng, [f"p{i}" for i in range(200)]),
                   str(src / "c.parquet"), row_group_size=50)
    idx = str(tmp_path_factory.mktemp("reopen_idx") / "idx")
    build_index(str(src), idx, text_field="content", rows_per_partition=50,
                store_positions=True)
    merge_index(idx)
    other = str(tmp_path_factory.mktemp("reopen_other") / "idx")
    shutil.copytree(idx, other)

    read = []  # terms files each reader open reads
    real = readers._read_terms
    monkeypatch.setattr(readers, "_read_terms",
                        lambda files, all_files: read.append(len(files))
                        or real(files, all_files))
    mgr = SearcherManager(idx)
    for i in range(7):
        # replace 15 live docs (deletes) and add 3 new keys
        keys = [f"p{k}" for k in rng.choice(200, 15, replace=False)]
        keys += [f"n{i}_{j}" for j in range(3)]
        res = update_documents(idx, _docs(rng, keys, " fresh"), "path")
        assert res["deleted"] == 15 and res["added"] == 18
        read.clear()
        assert mgr.maybe_refresh()
        assert read == [1]  # only the new append file
        _assert_fresh(mgr.acquire(), idx)

    merge_index(idx)  # rewrites merged/: every file is read again
    read.clear()
    assert mgr.maybe_refresh()
    assert read == [len(IndexManifest.load(idx).terms_files)]
    _assert_fresh(mgr.acquire(), idx)

    update_documents(other, _docs(rng, ["p0", "p1", "z"], " fresh"), "path")
    replicate(other, idx)
    assert mgr.maybe_refresh()
    _assert_fresh(mgr.acquire(), idx)


def test_reopen_after_tier_merge_reads_only_new_file(tmp_path_factory,
                                                     ray_session,
                                                     monkeypatch):
    """A tier merge commits, so the manager's refresh after it is the one
    full open; rows order by ``start_doc`` and every later append's docs
    follow the merged ones, so the upserts after it still reopen
    incrementally."""
    rng = np.random.default_rng(9)
    src = tmp_path_factory.mktemp("tier_reopen_src")
    pq.write_table(_docs(rng, [f"p{i}" for i in range(100)]),
                   str(src / "c.parquet"), row_group_size=50)
    idx = str(tmp_path_factory.mktemp("tier_reopen_idx") / "idx")
    build_index(str(src), idx, text_field="content", rows_per_partition=50,
                store_positions=True)
    merge_index(idx)
    mgr = SearcherManager(idx)

    def upsert(i):
        keys = [f"p{k}" for k in rng.choice(100, 5, replace=False)]
        keys += [f"n{i}_{j}" for j in range(2)]
        update_documents(idx, _docs(rng, keys, " fresh"), "path")

    for i in range(4):
        upsert(i)
        assert mgr.maybe_refresh()
    appends = list_append_segments(idx)
    assert len(appends) == 4
    read = []  # terms files each reader open reads
    real = readers._read_terms
    monkeypatch.setattr(readers, "_read_terms",
                        lambda files, all_files: read.append(len(files))
                        or real(files, all_files))
    execute_merge(idx, [s.terms_path for s in appends])
    assert any(f.startswith("terms-tier-")  # some groups were compacted
               and f.endswith(".bin")
               and os.path.getsize(os.path.join(idx, "merged", f)) > 0
               for f in os.listdir(os.path.join(idx, "merged")))
    # the merged-away append files are no longer named: full open
    assert mgr.maybe_refresh()
    assert len(read) == 1 and read[0] > 1
    _assert_fresh(mgr.acquire(), idx)

    for i in range(4, 8):
        upsert(i)
        read.clear()
        assert mgr.maybe_refresh()
        assert read == [1]  # only the new append file
        _assert_fresh(mgr.acquire(), idx)
