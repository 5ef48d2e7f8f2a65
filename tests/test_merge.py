"""Full merge (``merge_index``): the sort-block split never changes the
merged view, and a merge keeps no mapping of the payload bins it read."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import IndexManifest, build_index, merge, merge_index
from lucene_solr_ray.index.check import check_merged
from lucene_solr_ray.search.readers import MergedReader
from lucene_solr_ray.sources import generate_table

ROW_COLS = ["term", "chunk_id", "df", "ttf", "start_doc", "block_last",
            "block_max_tf", "block_max_norm"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("merge_corpus")
    pq.write_table(generate_table(600, seed=11), str(d / "c.parquet"),
                   row_group_size=50)
    return str(d)


def _merged_rows(idx: str) -> list:
    man = IndexManifest.load(idx)
    tbl = pa.concat_tables([
        pq.read_table(os.path.join(idx, "merged", f), columns=ROW_COLS)
        for f in man.merged_files if f.startswith("terms-")])
    return sorted(
        tuple(tuple(v) if isinstance(v, list) else v for v in row)
        for row in zip(*(tbl[c].to_pylist() for c in ROW_COLS)))


def _decoded(idx: str) -> dict:
    r = MergedReader(idx)
    return {t: tuple(a.tolist() for a in r.postings_with_positions(t))
            for t in r.unique_terms().tolist()}


def test_four_sort_blocks_merge_like_one_block(
        corpus, tmp_path, ray_session, monkeypatch):
    """Forcing the sort into 4 blocks sends each block's first and last
    groups through ``_merge_batch``'s edge rows and the driver-side
    boundary call; the merged rows and every term's postings and
    positions still equal the one-block merge's."""
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, rows_per_partition=50, store_positions=True)
    views = {}
    for blocks in (1, 4):
        monkeypatch.setattr(merge, "_exchange_blocks",
                            lambda rows, ncpu, b=blocks: b)
        man = merge_index(idx, hot_df_threshold=50, salt_group_size=2)
        check_merged(idx)
        terms_files = [f for f in man.merged_files
                       if f.startswith("terms-")]
        views[blocks] = (len(terms_files), _merged_rows(idx), _decoded(idx))
    # one block: its interior file plus the boundary file; four blocks
    # write one interior file each
    assert views[1][0] == 2 and views[4][0] > 2
    rows1, rows4 = views[1][1], views[4][1]
    assert rows1 == rows4
    # salting split hot terms into several chunks (salt_group_size=2)
    chunks = {}
    for row in rows1:
        chunks[row[0]] = chunks.get(row[0], 0) + 1
    assert max(chunks.values()) > 1
    assert views[1][2] == views[4][2]


def _deleted_mappings(root: str) -> list[str]:
    """Lines of every readable process's memory map (the driver and the
    Ray workers among them) that map a deleted file under ``root``."""
    hits = []
    for maps in glob.glob("/proc/[0-9]*/maps"):
        try:
            with open(maps) as f:
                text = f.read()
        except OSError:  # process gone, or not ours
            continue
        hits += [ln for ln in text.splitlines()
                 if root in ln and ln.endswith("(deleted)")]
    return hits


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/<pid>/maps")
def test_merge_keeps_no_mapping_of_deleted_index(corpus, tmp_path,
                                                 ray_session):
    """The merge maps the bins it gathers from only for the duration of
    the call: once the index directory is deleted, neither the driver
    (boundary groups) nor a Ray worker (block interiors) still maps any
    of its files, so the disk space is freed."""
    import ray

    root = str(tmp_path / "gone")
    idx = os.path.join(root, "idx")
    build_index(corpus, idx, rows_per_partition=50)
    merge_index(idx)
    shutil.rmtree(root)

    @ray.remote
    def worker_pid():
        return os.getpid()

    pid = ray.get(worker_pid.remote())
    assert os.path.exists(f"/proc/{pid}/maps")
    assert _deleted_mappings(root) == []
