"""Full merge (``merge_index``): the sort-block split never changes the
merged view, every stored stream survives every compaction, an empty
dictionary opens, and a merge keeps no mapping of the payload bins it
read."""

import glob
import os
import shutil
from dataclasses import replace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import (IndexManifest, append_segment,
                                   build_index, merge, merge_index)
from lucene_solr_ray.index.check import check_merged
from lucene_solr_ray.index.mergepolicy import (execute_merge,
                                               list_append_segments)
from lucene_solr_ray.search import IndexSearcher, TermQuery
from lucene_solr_ray.search.extras import offsets_for_docs
from lucene_solr_ray.search.readers import MergedReader
from lucene_solr_ray.sources import generate_table

ROW_COLS = ["term", "df", "ttf", "start_doc", "block_last",
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
        pq.read_table(os.path.join(idx, f), columns=ROW_COLS)
        for f in man.terms_files])
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
        views[blocks] = (len(man.terms_files), _merged_rows(idx),
                         _decoded(idx))
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


def test_empty_dictionary_opens(tmp_path, ray_session):
    """Documents that give no terms build an index whose dictionary is
    empty; it opens, searches and checks before and after a merge."""
    pq.write_table(pa.table({"content": pa.array(["the a an", "",
                                                  "of the"])}),
                   str(tmp_path / "c.parquet"), row_group_size=1)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, rows_per_partition=1)
    for _ in range(2):
        assert check_merged(idx)["ok"]
        s = IndexSearcher(idx)
        assert s.reader.num_terms() == 0
        assert s.search(TermQuery("the"), k=10).num_rows == 0
        merge_index(idx)
    assert IndexManifest.load(idx).terms_files == []


# analyzer and documents of one index per stream stored beside positions;
# the fourth document's long stream spans several blocks
STREAM_DOCS = {
    "offsets": ("standard", [
        "the quick brown fox", "a fox and another fox", "lazy dog fox",
        "fox " * 200, "quick dog", "brown quick fox"]),
    "payloads": ("delimited_payload", [
        "alpha|2.0 beta|1.0 alpha|4.0", "alpha|10.0 fox", "beta|0.5 fox",
        "fox|3.0 " * 150, "alpha beta|7.5", "gamma|1.5 alpha"]),
}


def _stream_view(idx: str, kind: str, segments: bool = False) -> dict:
    """Every term's stored stream, and (offsets) every doc's match spans,
    as a fresh searcher over the commit's dictionary sees them — or,
    with ``segments``, over the partitions' own terms files."""
    reader = None
    if segments:
        man = IndexManifest.load(idx)
        reader = MergedReader(replace(man, terms_files=man.segment_terms()))
    s = IndexSearcher(idx, reader=reader)
    terms = s.reader.unique_terms().tolist()
    read = (s.reader.term_offsets if kind == "offsets"
            else s.reader.term_payloads)
    view = {t: tuple(a.tolist() for a in read(t)) for t in terms}
    if kind == "offsets":
        view["spans"] = offsets_for_docs(s, terms, range(s.max_doc))
    return view


@pytest.mark.parametrize("kind", sorted(STREAM_DOCS))
def test_streams_survive_every_compaction(kind, tmp_path, ray_session):
    """Offsets and payloads read after ``merge_index``, after NRT appends
    and after a tier merge of those appends exactly as the partitions'
    own terms files give them."""
    analyzer, docs = STREAM_DOCS[kind]
    pq.write_table(pa.table({"content": pa.array(docs)}),
                   str(tmp_path / "c.parquet"), row_group_size=1)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, analyzer=analyzer,
                rows_per_partition=1, store_positions=True,
                **{f"store_{kind}": True})
    before = _stream_view(idx, kind)
    # salt pairs of partitions: every pair's shared terms are compacted
    merge_index(idx, hot_df_threshold=4, salt_group_size=2)
    assert _stream_view(idx, kind) == before
    for text in docs[:2]:
        append_segment(idx, pa.table({"content": pa.array([text])}))
    want = _stream_view(idx, kind, segments=True)
    assert _stream_view(idx, kind) == want
    execute_merge(idx, [s.terms_path for s in list_append_segments(idx)])
    from lucene_solr_ray.index.build import own_bin

    tier = IndexManifest.load(idx).terms_files[-1]
    assert os.path.getsize(os.path.join(idx, own_bin(tier))) > 0
    assert _stream_view(idx, kind) == want
    assert check_merged(idx)["ok"]


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
