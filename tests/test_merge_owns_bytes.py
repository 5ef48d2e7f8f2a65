"""A merge owns every byte its rows point at: each listed row points into
its own terms file's ``.bin``, the merge commit unlinks the partitions'
terms and ``.bin`` files, and every reader, checker and writer works from
the listed files — so the index keeps one copy of each posting."""

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import (IndexManifest, build_index, check_index,
                                   check_merged, exorcise_index, merge_index,
                                   update_documents)
from lucene_solr_ray.index import merge
from lucene_solr_ray.index.build import own_bin
from lucene_solr_ray.index.mergepolicy import TieredMergePolicy, maybe_merge
from lucene_solr_ray.oracle import OracleIndex
from lucene_solr_ray.search import (BooleanQuery, IndexSearcher,
                                    PhraseQuery, SearcherManager, TermQuery,
                                    search_sharded)
from lucene_solr_ray.search.distributed import (_global_stats,
                                                _shard_searcher, plan_shards)
from lucene_solr_ray.sources import generate_table

QUERIES = [
    TermQuery("return"), TermQuery("quick"), TermQuery("zzz_not_a_term"),
    BooleanQuery.build(should=[TermQuery("return"), TermQuery("def"),
                               TermQuery("quick")]),
    BooleanQuery.build(must=[TermQuery("return"), TermQuery("def")]),
    PhraseQuery(("return", "self")),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    """A positional 4-partition index, never merged: tests copy it."""
    d = tmp_path_factory.mktemp("owns_corpus")
    tbl = generate_table(400, seed=17)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("owns_built") / "idx")
    build_index(str(d), out, rows_per_partition=100, store_positions=True)
    return out, tbl


def _copy(built, tmp_path, name="idx") -> str:
    dst = str(tmp_path / name)
    shutil.copytree(built[0], dst)
    return dst


def _tops(s: IndexSearcher) -> list:
    return [(t["doc_id"].to_pylist(), t["score"].to_pylist())
            for t in (s.search(q, k=15) for q in QUERIES)]


def _snapshot(d: str) -> dict:
    out = {}
    for root, _, files in os.walk(d):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                out[os.path.relpath(os.path.join(root, f), d)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


def _assert_owns(idx: str) -> None:
    """Every listed row points into its own file's .bin, and the commit
    names no partition terms file or .bin that is not listed."""
    man = IndexManifest.load(idx)
    for f in man.terms_files:
        col = pq.read_table(os.path.join(idx, f), columns=["payload_file"])
        assert set(col["payload_file"].to_pylist()) <= {own_bin(f)}, f
    listed = set(man.terms_files) | {own_bin(f) for f in man.terms_files}
    named = {f for f in man.files() if f.endswith((".bin", ".parquet"))
             and f.startswith("segments" + os.sep)}
    assert named <= listed


def test_merge_owns_its_bytes_and_drops_the_partitions(built, tmp_path):
    idx = _copy(built, tmp_path)
    before = _tops(IndexSearcher(idx))
    merge_index(idx, hot_df_threshold=50, salt_group_size=2)
    man = IndexManifest.load(idx)
    assert man.merged
    assert all(f.startswith("merged/") for f in man.terms_files)
    _assert_owns(idx)
    assert not [f for f in man.files() if f.startswith("segments")]
    # the merge commit unlinked them, as Lucene's IndexFileDeleter does
    assert os.listdir(os.path.join(idx, "segments")) == []
    assert check_merged(idx, sample_terms=10**6)["ok"]
    # bit-identical results to the same index before the merge
    assert _tops(IndexSearcher(idx)) == before
    # the oracle gate: BM25 ranks and scores of the single-process oracle
    texts = built[1]["content"].to_pylist()
    oracle = OracleIndex(texts)
    s = IndexSearcher(idx)
    for mode, qterms in (("OR", ["return", "quick"]),
                         ("AND", ["return", "def"])):
        tq = [TermQuery(t) for t in qterms]
        q = (BooleanQuery.build(should=tq) if mode == "OR"
             else BooleanQuery.build(must=tq))
        got = s.search(q, k=10)
        want = oracle.search(qterms, k=10, mode=mode)
        assert got["doc_id"].to_pylist() == [d for d, _ in want]
        np.testing.assert_allclose(got["score"].to_pylist(),
                                   [float(x) for _, x in want],
                                   rtol=0, atol=1e-6)


def test_check_merged_leaves_the_index_unchanged(built, tmp_path):
    idx = _copy(built, tmp_path)
    merge_index(idx)
    snap = _snapshot(idx)
    assert check_merged(idx)["ok"]
    assert _snapshot(idx) == snap


def test_remerge_after_nrt_appends(built, tmp_path):
    """A re-merge reads the listed files (an earlier merge's output and
    the appends' own files) and owns its bytes too."""
    idx = _copy(built, tmp_path)
    merge_index(idx)
    rng = np.random.default_rng(3)
    tbl = built[1]
    for i in range(3):
        rows = np.sort(rng.choice(tbl.num_rows, 5, replace=False))
        update_documents(idx, tbl.take(pa.array(rows)), "path")
    mgr = SearcherManager(idx)
    before = _tops(mgr.acquire())
    merge_index(idx)
    man = IndexManifest.load(idx)
    assert all(f.startswith("merged/") for f in man.terms_files)
    _assert_owns(idx)
    assert check_merged(idx)["ok"]
    assert mgr.maybe_refresh()
    assert _tops(mgr.acquire()) == before == _tops(IndexSearcher(idx))
    # the appends keep their source files and norms
    assert [f for f in man.files() if f.startswith("_appends")]


def test_merge_over_an_exorcised_partition(built, tmp_path):
    idx = _copy(built, tmp_path)
    with open(os.path.join(idx, "segments", "part-00001.bin"), "r+b") as f:
        f.truncate(8)
    assert exorcise_index(idx)["dropped"] == [1]
    before = _tops(IndexSearcher(idx))
    merge_index(idx)
    _assert_owns(idx)
    assert check_merged(idx)["ok"]
    assert _tops(IndexSearcher(idx)) == before
    for n in (1, 3):
        got = search_sharded(idx, QUERIES, k=15, num_shards=n).to_pydict()
        for qi, (docs, scores) in enumerate(before):
            m = [i for i, q in enumerate(got["query_id"]) if q == qi]
            assert [got["doc_id"][i] for i in m] == docs, (n, qi)
            assert [got["score"][i] for i in m] == scores, (n, qi)


def test_remerge_drops_an_exorcised_partitions_postings(built, tmp_path):
    """A partition quarantined after a merge keeps its postings in the
    merged files until the next merge, which leaves them out: the index
    is then what an exorcism before the first merge gives."""
    def corrupt_and_exorcise(idx):
        with open(os.path.join(idx, "norms", "part-00001.parquet"),
                  "wb") as f:
            f.write(b"not parquet")
        assert exorcise_index(idx)["dropped"] == [1]

    first = _copy(built, tmp_path, "first")
    corrupt_and_exorcise(first)
    merge_index(first)
    want = _tops(IndexSearcher(first))
    idx = _copy(built, tmp_path)
    merge_index(idx)
    corrupt_and_exorcise(idx)
    mgr = SearcherManager(idx)
    assert not check_merged(idx, strict=False)["ok"]
    merge_index(idx)
    _assert_owns(idx)
    assert check_merged(idx, sample_terms=10**6)["ok"]
    assert mgr.maybe_refresh()
    assert _tops(mgr.acquire()) == _tops(IndexSearcher(idx)) == want
    for n in (1, 3):
        got = search_sharded(idx, QUERIES, k=15, num_shards=n).to_pydict()
        for qi, (docs, scores) in enumerate(want):
            m = [i for i, q in enumerate(got["query_id"]) if q == qi]
            assert [got["doc_id"][i] for i in m] == docs, (n, qi)
            assert [got["score"][i] for i in m] == scores, (n, qi)


def test_passthrough_rows_are_copied_not_gathered(built, tmp_path,
                                                  monkeypatch):
    """Only the compacted groups' rows are read into memory: every
    passed-through row's slices go from the source bin's mapping straight
    into the output bin, byte for byte."""
    idx = _copy(built, tmp_path)
    man = IndexManifest.load(idx)
    rows = pa.concat_tables([pq.read_table(os.path.join(idx, f))
                             for f in man.terms_files])
    rows = rows.take(pc.sort_indices(rows, [("term", "ascending"),
                                            ("start_doc", "ascending")]))
    rows = rows.append_column(
        "salt", pa.array(np.zeros(rows.num_rows, np.int32)))
    os.makedirs(os.path.join(idx, "merged"))
    _, inv, cnt = np.unique(np.asarray(rows["term"].to_pylist()),
                            return_inverse=True, return_counts=True)
    dfsum = np.bincount(inv, weights=rows["df"].to_numpy())
    compacted = int(((cnt > 1) & (dfsum <= merge.REENCODE_MAX_DOCS))[inv]
                    .sum())
    assert 0 < compacted < rows.num_rows
    seen = []
    real = merge._gather
    monkeypatch.setattr(merge, "_gather", lambda paths, fidx, spans: (
        seen.append(fidx.size), real(paths, fidx, spans))[1])
    merge.compact_groups(rows, idx, "merged/terms-a")
    assert seen == [compacted]

    # with every group passed through, nothing is gathered at all
    def refuse(*a):
        raise AssertionError("a passed-through row was gathered")

    monkeypatch.setattr(merge, "_gather", refuse)
    monkeypatch.setattr(merge, "REENCODE_MAX_DOCS", 0)
    monkeypatch.setattr(merge, "_COPY_RUN", 64)  # many runs, big rows too
    out = merge.compact_groups(rows, idx, "merged/terms-b")
    assert out["term"].to_pylist() == rows["term"].to_pylist()
    assert set(out["payload_file"].to_pylist()) == {"merged/terms-b.bin"}

    def read(path):
        with open(os.path.join(idx, path), "rb") as f:
            return f.read()

    new = read("merged/terms-b.bin")
    old = {f: read(f) for f in set(rows["payload_file"].to_pylist())}
    src = rows.to_pydict()
    dst = out.to_pydict()
    for col in ("offset", "pos_offset"):
        ln = col.replace("offset", "length")
        for i in range(rows.num_rows):
            assert dst[ln][i] == src[ln][i]
            a, b = src[col][i], dst[col][i]
            assert new[b:b + dst[ln][i]] == \
                old[src["payload_file"][i]][a:a + src[ln][i]]


def test_shards_read_only_their_doc_range(built, tmp_path):
    """Doc shards hold the merged dictionary's rows with a doc in their
    range, undecoded, and read every doc outside it as deleted: each
    shard's live postings and positions, laid end to end, are the
    commit's, and the global df is read once from the commit's
    dictionary."""
    idx = _copy(built, tmp_path)
    merge_index(idx, hot_df_threshold=50, salt_group_size=2)
    full = IndexSearcher(idx).reader
    man = IndexManifest.load(idx)
    terms = full.unique_terms().tolist()
    assert _global_stats(man, terms)["df"] == full.doc_freqs(terms)
    stats = _global_stats(man, ())
    for n in (2, 3):
        shards = [_shard_searcher(idx, s["partition_ids"], stats)
                  for s in plan_shards(man, n)]
        assert all(s.reader.terms.size < full.terms.size for s in shards)
        for t in terms:
            parts = []
            for s in shards:
                docs, tfs, pos = s.reader.postings_with_positions(t)
                keep = s.live_docs.mask[docs]
                lo, hi = s._stats["doc_range"]
                assert ((docs[keep] >= lo) & (docs[keep] < hi)).all()
                parts.append((docs[keep], tfs[keep],
                              pos[np.repeat(keep, tfs)]))
            want = full.postings_with_positions(t)
            for j in range(3):
                np.testing.assert_array_equal(
                    np.concatenate([p[j] for p in parts]), want[j])
    want = _tops(IndexSearcher(idx))
    got = search_sharded(idx, QUERIES, k=15, num_shards=3).to_pydict()
    for qi, (docs, scores) in enumerate(want):
        m = [i for i, q in enumerate(got["query_id"]) if q == qi]
        assert ([got["doc_id"][i] for i in m],
                [got["score"][i] for i in m]) == (docs, scores), qi


def test_check_index_and_exorcise_on_a_merged_index(built, tmp_path):
    idx = _copy(built, tmp_path)
    merge_index(idx)
    man = IndexManifest.load(idx)
    rep = check_index(idx)
    assert rep["ok"] and rep["docs"] == 400
    assert rep["segments"] == len(man.terms_files)
    assert rep["postings_checked"] > 0
    gen = man.generation
    assert exorcise_index(idx) == {"dropped": [], "docs_deleted": 0,
                                   "errors": []}
    assert IndexManifest.load(idx).generation == gen  # nothing committed
    # a truncated merged .bin is reported
    with open(os.path.join(idx, own_bin(man.terms_files[0])), "r+b") as f:
        f.truncate(os.path.getsize(f.name) // 2)
    rep = check_index(idx, strict=False)
    assert not rep["ok"] and rep["errors"]
    with pytest.raises(Exception):
        check_index(idx)


def test_build_over_a_merged_index_rebuilds_the_partitions(built, tmp_path):
    """The merge dropped the partitions' terms files, so a build over the
    merged index builds every partition again, under new names."""
    idx = _copy(built, tmp_path)
    want = _tops(IndexSearcher(idx))
    src = os.path.dirname(IndexManifest.load(idx).partitions[0]["file"])
    merge_index(idx)
    build_index(src, idx, rows_per_partition=100, store_positions=True)
    man = IndexManifest.load(idx)
    assert not man.merged
    assert all(os.path.exists(os.path.join(idx, f))
               for f in man.terms_files)
    assert all(p["segment"] != f"segments/part-{p['partition_id']:05d}"
               ".parquet" for p in man.partitions)
    assert check_index(idx)["ok"]
    assert _tops(IndexSearcher(idx)) == want


def test_an_older_format_is_refused(built, tmp_path):
    """A merged index written before merges owned their bytes has rows
    that point into partition .bin files a commit would now unlink: its
    manifest is refused with the rebuild message."""
    idx = _copy(built, tmp_path)
    path = os.path.join(idx, "manifest.json")
    with open(path) as f:
        man = json.load(f)
    del man["format"]
    with open(path, "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="rebuild the index"):
        IndexManifest.load(idx)
    with pytest.raises(ValueError, match="rebuild the index"):
        merge_index(idx)


def test_tier_merges_see_every_listed_file(built, tmp_path):
    """With maybe_merge after each of 30 single-batch appends, tier
    outputs are merged again, so the listed file count stays bounded;
    the top-k equals a full merge of a copy."""
    idx = _copy(built, tmp_path)
    merge_index(idx)
    policy = TieredMergePolicy(segs_per_tier=3.0, max_merge_at_once=3,
                               floor_segment_bytes=1)
    tbl = built[1]
    counts = []
    for i in range(30):
        rows = tbl.slice(i * 3, 3)
        update_documents(idx, rows.set_column(
            rows.schema.get_field_index("content"), "content",
            pa.array([f"{t} fresh{i}" for t in
                      rows["content"].to_pylist()])), "path")
        maybe_merge(idx, policy)
        counts.append(len(IndexManifest.load(idx).terms_files))
    assert max(counts) <= 12, counts
    _assert_owns(idx)
    assert check_merged(idx)["ok"]
    full = str(tmp_path / "full")
    shutil.copytree(idx, full)
    merge_index(full)
    qs = QUERIES + [TermQuery(f"fresh{i}") for i in (0, 17, 29)]
    a, b = IndexSearcher(idx), IndexSearcher(full)
    for q in qs:
        ra, rb = a.search(q, k=15), b.search(q, k=15)
        assert ra["doc_id"].to_pylist() == rb["doc_id"].to_pylist(), q
        assert ra["score"].to_pylist() == rb["score"].to_pylist(), q
