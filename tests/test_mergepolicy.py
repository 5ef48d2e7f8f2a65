"""TieredMergePolicy selection + tiered compaction of NRT append segments
(index/mergepolicy.py): policy arithmetic, merge execution equivalence,
crash recovery."""

import os

import numpy as np
import pyarrow as pa
import pytest

from lucene_solr_ray.index import check_merged
from lucene_solr_ray.index.mergepolicy import (SegmentSizeInfo,
                                               TieredMergePolicy,
                                               execute_merge,
                                               list_append_segments,
                                               maybe_merge,
                                               recover_interrupted_merges)

MB = 1 << 20


def test_allowed_segment_count_tiers():
    p = TieredMergePolicy(segs_per_tier=10.0, max_merge_at_once=10,
                          floor_segment_bytes=2 * MB)
    # 10 floor-size segments fit exactly in tier 0
    assert p.allowed_segment_count([2 * MB] * 10) == 10
    # 100 floor-size segments need two levels: 10 at floor + 90/ (floor*10)
    assert p.allowed_segment_count([2 * MB] * 100) < 100


def test_find_merges_respects_budget_and_max_size():
    p = TieredMergePolicy(segs_per_tier=2.0, max_merge_at_once=3,
                          floor_segment_bytes=1, max_merged_segment_bytes=100)
    infos = [SegmentSizeInfo(f"s{i}", 10) for i in range(8)]
    merges = p.find_merges(infos)
    assert merges, "over-budget tiers must produce merges"
    for m in merges:
        assert 2 <= len(m) <= 3
        assert sum(s.bytes for s in m) <= 100
    # oversize segments are never eligible
    infos = [SegmentSizeInfo("big", 60)] + [
        SegmentSizeInfo(f"s{i}", 10) for i in range(6)]
    for m in p.find_merges(infos):
        assert all(s.terms_path != "big" for s in m)


def test_score_prefers_balanced_and_deleted():
    p = TieredMergePolicy(floor_segment_bytes=1)
    balanced = [SegmentSizeInfo("a", 10), SegmentSizeInfo("b", 10)]
    skewed = [SegmentSizeInfo("a", 19), SegmentSizeInfo("b", 1)]
    assert p.score(balanced) < p.score(skewed)
    with_dels = [SegmentSizeInfo("a", 10, del_ratio=0.5),
                 SegmentSizeInfo("b", 10, del_ratio=0.5)]
    assert p.score(with_dels) < p.score(balanced)


@pytest.fixture(scope="module")
def nrt_index(tmp_path_factory, ray_session):
    """A merged index plus six NRT appends (positional, to exercise the
    positions re-encode path)."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index, merge_index
    from lucene_solr_ray.index.updates import append_segment

    d = tmp_path_factory.mktemp("tier_src")
    pq.write_table(pa.table({
        "doc_key": pa.array([1, 2, 3], pa.int64()),
        "content": pa.array(["alpha beta", "beta gamma", "gamma delta"]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("tier_idx") / "idx")
    build_index(str(d), out, text_field="content", rows_per_partition=2,
                store_positions=True)
    merge_index(out)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    k = 4
    for i in range(6):
        txts = [" ".join(words[(i + j) % len(words)]
                         for j in range(3)) for _ in range(2)]
        append_segment(out, pa.table({
            "doc_key": pa.array([100 + 2 * i, 101 + 2 * i], pa.int64()),
            "content": pa.array(txts),
        }))
        k += 2
    return out


def _search_all(index_dir):
    from lucene_solr_ray.search import IndexSearcher, TermQuery
    from lucene_solr_ray.search.readers import MergedReader

    s = IndexSearcher(index_dir, reader=MergedReader(index_dir))
    out = {}
    for w in ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]:
        h = s.search(TermQuery(w), k=50)
        out[w] = list(zip(h["doc_id"].to_pylist(),
                          [round(x, 5) for x in h["score"].to_pylist()]))
    return out


def test_tiered_merge_compacts_and_preserves_results(nrt_index):
    before = _search_all(nrt_index)
    segs = list_append_segments(nrt_index)
    assert len(segs) == 6
    # force a merge: tiny budget so 6 appends overflow tier 0
    policy = TieredMergePolicy(segs_per_tier=2.0, max_merge_at_once=4,
                               floor_segment_bytes=1,
                               max_merged_segment_bytes=1 << 30)
    new_files = maybe_merge(nrt_index, policy)
    assert new_files
    after_segs = list_append_segments(nrt_index)
    assert len(after_segs) < 6  # appends were consumed
    merged_dir = os.path.join(nrt_index, "merged")
    assert any(f.startswith("terms-tier-") for f in os.listdir(merged_dir))
    assert not any(".merging-" in f for f in os.listdir(merged_dir))
    assert _search_all(nrt_index) == before  # scores + ranks identical
    # df, ttf, postings and positions equal the segments', as after a
    # full merge
    check_merged(nrt_index)


def test_within_budget_is_a_noop(nrt_index):
    # default policy: a handful of tiny appends is within every tier
    assert maybe_merge(nrt_index, TieredMergePolicy()) == []


def _two_appends(tmp_path_factory, name: str) -> str:
    """A merged two-doc index plus two one-doc appends sharing "delta"."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index, merge_index
    from lucene_solr_ray.index.updates import append_segment

    d = tmp_path_factory.mktemp(f"{name}_src")
    pq.write_table(pa.table({
        "doc_key": pa.array([1, 2], pa.int64()),
        "content": pa.array(["alpha beta", "beta gamma"]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp(f"{name}_idx") / "idx")
    build_index(str(d), out, text_field="content", rows_per_partition=2)
    merge_index(out)
    for i in range(2):
        append_segment(out, pa.table({
            "doc_key": pa.array([10 + i], pa.int64()),
            "content": pa.array([f"delta run{i}"]),
        }))
    return out


def test_recover_interrupted_merge(tmp_path_factory, ray_session):
    out = _two_appends(tmp_path_factory, "rec")
    segs = list_append_segments(out)
    # simulate a crash: sources hidden, merge never finished
    for s in segs:
        os.rename(s.terms_path, s.terms_path + ".merging-deadbeef0000")
    assert list_append_segments(out) == []
    assert recover_interrupted_merges(out) == 2
    assert len(list_append_segments(out)) == 2
    # and a finished merge's leftovers are dropped, not restored
    name = execute_merge(out, [s.terms_path for s in segs])
    assert name.startswith("terms-tier-")
    gen = name[len("terms-tier-"):-len(".parquet")]
    leftover = segs[0].terms_path + f".merging-{gen}"
    with open(leftover, "w") as f:
        f.write("stale")
    assert recover_interrupted_merges(out) == 0
    assert not os.path.exists(leftover)


def test_failed_merge_restores_sources(tmp_path_factory, ray_session,
                                       monkeypatch):
    from lucene_solr_ray.index import merge
    from lucene_solr_ray.search import IndexSearcher

    out = _two_appends(tmp_path_factory, "fail")
    segs = list_append_segments(out)
    dfs = {t: IndexSearcher(out).doc_freq(t) for t in ("delta", "run0")}
    assert dfs == {"delta": 2, "run0": 1}

    def boom(*a, **kw):
        raise RuntimeError("injected encode failure")

    # "delta" spans both appends, so the merge re-encodes it
    monkeypatch.setattr(merge, "encode_postings", boom)
    with pytest.raises(RuntimeError, match="injected"):
        execute_merge(out, [s.terms_path for s in segs])
    assert list_append_segments(out) == segs
    assert {t: IndexSearcher(out).doc_freq(t) for t in dfs} == dfs
