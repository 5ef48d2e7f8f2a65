"""NRT reopen: a SearcherManager reopen that reads only the files a publish
added must leave the searcher exactly as a fresh open of the same index —
term arrays, block-max lists, payload bytes, norms, live docs and top-10
results — through keyed upserts, deletes, an exorcism, a full merge, a
tier merge and a replication into the same directory."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index import (IndexManifest, build_index, delete_docs,
                                   exorcise_index, merge_index)
from lucene_solr_ray.index import deletes
from lucene_solr_ray.index.mergepolicy import (execute_merge,
                                               list_append_segments)
from lucene_solr_ray.index.updates import append_segment, update_documents
from lucene_solr_ray.search import (
    BooleanQuery, IndexSearcher, PhraseQuery, SearcherManager, TermQuery)
from lucene_solr_ray.search import readers
from lucene_solr_ray.search.readers import _fold_at, _fold_keys
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
    assert (s.live_docs is None) == (f.live_docs is None)
    if f.live_docs is not None:
        np.testing.assert_array_equal(s.live_docs.mask, f.live_docs.mask)
        assert s.live_docs.files == f.live_docs.files
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
    pool = 200  # corpus keys p0..p{pool-1} still have a live doc
    for i in range(7):
        # replace 15 live docs (deletes) and add 3 new keys
        keys = [f"p{k}" for k in rng.choice(pool, 15, replace=False)]
        keys += [f"n{i}_{j}" for j in range(3)]
        res = update_documents(idx, _docs(rng, keys, " fresh"), "path")
        assert res["deleted"] == 15 and res["added"] == 18
        read.clear()
        assert mgr.maybe_refresh()
        assert read == [1]  # only the new append file
        _assert_fresh(mgr.acquire(), idx)
        if i == 2:
            # a delete-only commit: no terms file to read, one delete file
            man = IndexManifest.load(idx)
            delete_docs(idx, np.arange(man.max_doc - 3, man.max_doc))
        elif i == 4:
            # an exorcism commit: partition 3 (keys p150..p199) is
            # unreadable, so its doc range is deleted
            with open(os.path.join(idx, "segments", "part-00003.parquet"),
                      "wb") as f:
                f.write(b"not parquet")
            assert exorcise_index(idx)["dropped"] == [3]
            pool = 150
        else:
            continue
        read.clear()
        assert mgr.maybe_refresh()
        assert read == [0]
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


def _merged_index(tmp_path, n=60):
    rng = np.random.default_rng(3)
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(_docs(rng, [f"p{i}" for i in range(n)]),
                   str(src / "c.parquet"), row_group_size=30)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, text_field="content", rows_per_partition=30,
                store_positions=True)
    merge_index(idx)
    return rng, str(src), idx


def _count_delete_reads(monkeypatch) -> list:
    """Record the path of every delete file a ``LiveDocs`` reads."""
    read = []
    real = deletes._read_ids
    monkeypatch.setattr(deletes, "_read_ids",
                        lambda path: read.append(path) or real(path))
    return read


def test_refresh_reads_only_the_new_delete_file(tmp_path, ray_session,
                                                monkeypatch):
    """Each upsert adds one delete file; the refresh after it carries the
    previous live-docs mask forward and reads that one file."""
    rng, _, idx = _merged_index(tmp_path)
    mgr = SearcherManager(idx)
    read = _count_delete_reads(monkeypatch)
    for i in range(4):
        keys = [f"p{k}" for k in rng.choice(60, 5, replace=False)]
        update_documents(idx, _docs(rng, keys + [f"n{i}"]), "path")
        read.clear()
        assert mgr.maybe_refresh()
        man = IndexManifest.load(idx)
        assert len(man.deletes) == i + 1
        assert read == [os.path.join(idx, "deletes", man.deletes[-1])]
        _assert_fresh(mgr.acquire(), idx)


def test_refresh_rebuilds_live_docs_after_rebuild_or_full_copy(
        tmp_path, ray_session, monkeypatch):
    """A commit that does not descend from the searcher's — a rebuild in
    the same directory, or a replicate that copies an index at a lower
    generation over it, whose delete file has the name of the
    searcher's with other doc ids — gets its live docs read from every
    file it names, never carried forward."""
    rng, src, idx = _merged_index(tmp_path)
    other, idx2 = str(tmp_path / "other"), str(tmp_path / "idx2")
    shutil.copytree(idx, other)
    shutil.copytree(idx, idx2)
    mgr = SearcherManager(idx)
    for i in range(2):
        update_documents(idx, _docs(rng, [f"p{i}", f"n{i}"]), "path")
        assert mgr.maybe_refresh()
    read = _count_delete_reads(monkeypatch)
    # a rebuild over a grown corpus: more docs than the searcher's mask
    pq.write_table(_docs(rng, [f"p{i}" for i in range(90)]),
                   os.path.join(src, "c.parquet"), row_group_size=30)
    build_index(src, idx, text_field="content", rows_per_partition=30,
                store_positions=True)
    update_documents(idx, _docs(rng, ["p7"]), "path")
    assert mgr.maybe_refresh()
    assert len(read) == len(IndexManifest.load(idx).deletes) == 1
    s = mgr.acquire()
    assert s.live_docs.mask[[0, 1]].all()  # p0, p1 are live again
    assert s.live_docs.num_deleted == 1
    _assert_fresh(s, idx)

    # idx2 deletes p10, p11 in gen-00003 and then appends without
    # deleting; other deletes p20..p26 in its own gen-00003 and holds
    # more docs, at a lower generation
    update_documents(idx2, _docs(rng, ["p10", "p11", "n10"]), "path")
    append_segment(idx2, _docs(rng, ["n11", "n12"]))
    mgr = SearcherManager(idx2)
    update_documents(other, _docs(rng, [f"p{k}" for k in range(20, 27)]),
                     "path")
    mine, theirs = IndexManifest.load(idx2), IndexManifest.load(other)
    assert mine.deletes == theirs.deletes
    assert theirs.generation < mine.generation
    assert theirs.max_doc >= mine.max_doc
    replicate(other, idx2)  # a full copy: other is not above idx2
    read.clear()
    assert mgr.maybe_refresh()
    assert read == [os.path.join(idx2, "deletes", theirs.deletes[0])]
    s = mgr.acquire()
    assert s.live_docs.mask[[10, 11]].all()
    assert not s.live_docs.mask[20:27].any()
    _assert_fresh(s, idx2)


# pieces of terms: a NUL, multi-byte chars and a long shared prefix
_PIECES = ["a", "b", "\x00", "é", "日", "\U0001f600", "sharedprefix"]
_TERMS = st.lists(st.lists(st.sampled_from(_PIECES), max_size=4)
                  .map("".join), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_TERMS, _TERMS)
def test_fold_keys_place_terms_like_a_string_search(prev, new):
    """The integer fold keys order as the terms do, and the fold places
    each new term where ``searchsorted`` on the strings does."""
    prev = np.asarray(sorted(prev), dtype=object)
    new = np.asarray(sorted(new), dtype=object)
    pk = _fold_keys(pa.array(prev.tolist(), pa.string()))
    nk = _fold_keys(pa.array(new.tolist(), pa.string()))
    assert (pk[1:] >= pk[:-1]).all()
    np.testing.assert_array_equal(_fold_at(prev, pk, new, nk),
                                  np.searchsorted(prev, new, "right"))


def test_reopen_folds_long_and_non_ascii_terms_like_a_fresh_open(
        tmp_path, ray_session):
    """Upserts of terms sharing 16+ byte prefixes and of non-ASCII terms
    reopen to a fresh open's arrays."""
    rng = np.random.default_rng(11)
    vocab = ([f"sharedprefixlongterm{c}" for c in "acegik"]
             + [f"ñandúñandúñandú{c}" for c in "xz"]
             + ["ёжикёжикёжик", "café", "caféteria", "w1", "w2"])

    def docs(keys, words):
        picked = rng.choice(words, size=(len(keys), 6))
        return pa.table({"path": pa.array(keys),
                         "content": pa.array([" ".join(w) for w in picked])})

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(docs([f"p{i}" for i in range(60)], vocab),
                   str(src / "c.parquet"), row_group_size=30)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, text_field="content", rows_per_partition=30,
                store_positions=True)
    merge_index(idx)
    mgr = SearcherManager(idx)
    for i in range(4):
        more = vocab + [f"sharedprefixlongterm{c}{i}" for c in "abk"] + [
            f"ñandúñandúñandú{i}", f"ёжикёжикёжик{i}", f"cafè{i}"]
        keys = [f"p{k}" for k in rng.choice(60, 4, replace=False)]
        update_documents(idx, docs(keys + [f"n{i}"], more), "path")
        assert mgr.maybe_refresh()
        _assert_fresh(mgr.acquire(), idx)
    terms = mgr.acquire().reader.unique_terms().tolist()
    assert "sharedprefixlongtermb0" in terms and "ёжикёжикёжик3" in terms
