"""Full merge (``merge_index``): the term-range split never changes the
merged view and is deterministic, every stored stream survives every
compaction, an empty dictionary opens, a merge needs no running Ray, and
a merge keeps no mapping of the payload bins it read."""

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


def _merge_with_ranges(idx: str, k: int, monkeypatch, **kw) -> tuple:
    """Merge ``idx`` in ``k`` term ranges; returns its terms file count,
    rows and decoded postings and positions."""
    monkeypatch.setattr(merge, "_range_count", lambda rows, ncpu: k)
    man = merge_index(idx, **kw)
    assert check_merged(idx)["ok"]
    return len(man.terms_files), _merged_rows(idx), _decoded(idx)


def _merged_files(idx: str) -> dict:
    return {f: open(os.path.join(idx, "merged", f), "rb").read()
            for f in sorted(os.listdir(os.path.join(idx, "merged")))}


def test_k_ranges_merge_like_one(corpus, tmp_path, ray_session,
                                 monkeypatch):
    """Splitting the term space into 2 or 4 ranges writes one terms file
    per range, and the merged rows and every term's postings and
    positions equal the one-range merge's, also when the splits fall
    inside the source files' row groups. Two merges of copies of one
    index write byte-identical files under the same names."""
    idx = str(tmp_path / "idx")
    twin = str(tmp_path / "twin")
    build_index(corpus, idx, rows_per_partition=50, store_positions=True)
    # 7-row groups: each range reads a few groups of every file, and the
    # splits cut groups in two
    for f in IndexManifest.load(idx).segment_terms():
        path = os.path.join(idx, f)
        pq.write_table(pq.read_table(path), path, row_group_size=7)
    shutil.copytree(idx, twin)
    salted = dict(hot_df_threshold=50, salt_group_size=2)
    views = {k: _merge_with_ranges(idx, k, monkeypatch, **salted)
             for k in (1, 2, 4)}
    assert [views[k][0] for k in (1, 2, 4)] == [1, 2, 4]
    for k in (2, 4):
        assert views[k][1:] == views[1][1:]
    # salting split hot terms into several chunks (salt_group_size=2)
    chunks = {}
    for row in views[1][1]:
        chunks[row[0]] = chunks.get(row[0], 0) + 1
    assert max(chunks.values()) > 1
    # the twin reaches the same generation through the same merges
    for k in (1, 2, 4):
        _merge_with_ranges(twin, k, monkeypatch, **salted)
    assert IndexManifest.load(twin).terms_files == \
        IndexManifest.load(idx).terms_files
    assert _merged_files(twin) == _merged_files(idx)


def test_read_rows_decodes_only_its_row_groups(tmp_path, monkeypatch):
    """``_read_rows`` returns exactly rows [start, stop) for every span,
    reading only the row groups that hold them."""
    tbl = pa.table({"term": [f"t{i:03d}" for i in range(30)],
                    "df": list(range(30))})
    path = str(tmp_path / "terms.parquet")
    pq.write_table(tbl, path, row_group_size=7)
    read = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, groups, *args, **kw):
        read.append(list(groups))
        return real(self, groups, *args, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    for start in range(30):
        for stop in range(start + 1, 31):
            assert merge._read_rows(path, start, stop).equals(
                tbl.slice(start, stop - start))
            assert read.pop() == list(range(start // 7, (stop - 1) // 7 + 1))


def test_more_ranges_than_terms(tmp_path, ray_session, monkeypatch):
    """Asking for more ranges than there are terms splits at (nearly)
    every term: non-ASCII terms lie on both sides of splits, a salted
    hot term is itself a split term, and an empty leading range writes
    no file; the merge still equals the one-range merge."""
    words = ["alpha", "cafe", "café", "naïve", "zeta", "ωmega", "жук",
             "日本"]
    # "alpha" is in every document: 5 per partition meets the salting
    # cut (50 // 12 partitions = 4), so its rows salt by partition pair
    docs = [f"alpha {words[1 + (i % 7)]} {words[1 + (i * 3 % 7)]}"
            for i in range(60)]
    pq.write_table(pa.table({"content": pa.array(docs)}),
                   str(tmp_path / "c.parquet"), row_group_size=5)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, rows_per_partition=5,
                store_positions=True)
    man = IndexManifest.load(idx)
    terms = set(MergedReader(idx).unique_terms().tolist())
    k = 4 * len(terms)
    ranges = merge._term_ranges(
        [os.path.join(idx, f) for f in man.segment_terms()], k)
    splits = [lo for lo, _ in ranges[1:]]
    assert "alpha" in splits
    assert any(t.isascii() for t in splits)
    for i, t in enumerate(splits[1:-1], 1):
        if not t.isascii() and not splits[i - 1].isascii() \
                and not splits[i + 1].isascii():
            break
    else:
        raise AssertionError(f"no non-ASCII split between two: {splits}")
    salted = dict(hot_df_threshold=50, salt_group_size=2)
    one = _merge_with_ranges(idx, 1, monkeypatch, **salted)
    many = _merge_with_ranges(idx, k, monkeypatch, **salted)
    # one file per range but the empty first one ("" up to "alpha")
    assert many[0] == len(splits) < k
    assert many[1:] == one[1:]
    assert sum(row[0] == "alpha" for row in one[1]) > 1


def test_merge_as_first_ray_call(corpus, tmp_path, ray_session):
    """merge_index works in a process that has not started Ray (Ray Data
    starts it): the index is built here and merged by a new process."""
    import subprocess
    import sys

    import ray

    idx = str(tmp_path / "idx")
    build_index(corpus, idx, rows_per_partition=50)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root,
               RAY_ADDRESS=ray.get_runtime_context().gcs_address)
    code = ("import sys\n"
            "from lucene_solr_ray.index import merge_index\n"
            "merge_index(sys.argv[1])\n")
    proc = subprocess.run([sys.executable, "-c", code, idx], env=env,
                          cwd=root, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert IndexManifest.load(idx).merged
    assert check_merged(idx)["ok"]


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
    nor a Ray worker (the range tasks) still maps any of its files, so
    the disk space is freed."""
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
