"""Terms and norms files in one fixed on-disk encoding
(``build.write_encoded``): front-coded terms, delta-coded doc ids and
pointers into a ``.bin`` laid out in row order, zstd pages. Files written
with Arrow's defaults, as earlier versions wrote them, still read, update
and merge."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import (IndexManifest, build_index, check_merged,
                                   exorcise_index, merge_index,
                                   update_documents)
from lucene_solr_ray.index import build, merge
from lucene_solr_ray.index.build import own_bin, terms_schema
from lucene_solr_ray.index.check import index_info
from lucene_solr_ray.index.mergepolicy import (execute_merge,
                                               list_append_segments)
from lucene_solr_ray.oracle import OracleIndex
from lucene_solr_ray.search import (BooleanQuery, IndexSearcher,
                                    PhraseQuery, SearcherManager, TermQuery)
from lucene_solr_ray.sources import generate_table

QUERIES = [
    TermQuery("return"), TermQuery("quick"), TermQuery("zzz_not_a_term"),
    BooleanQuery.build(should=[TermQuery("return"), TermQuery("def"),
                               TermQuery("quick")]),
    BooleanQuery.build(must=[TermQuery("return"), TermQuery("def")]),
]
POS_QUERIES = QUERIES + [PhraseQuery(("return", "self"))]

CONFIGS = {
    "standard": {},
    "positions_offsets": {"store_positions": True, "store_offsets": True},
    "payloads": {"store_positions": True, "store_payloads": True,
                 "analyzer": "delimited_payload"},
}
# the leaf columns written in a fixed non-dictionary encoding
ENCODINGS = {"term": "DELTA_BYTE_ARRAY",
             "start_doc": "DELTA_BINARY_PACKED",
             "offset": "DELTA_BINARY_PACKED",
             "pos_offset": "DELTA_BINARY_PACKED",
             "off_offset": "DELTA_BINARY_PACKED",
             "pay_offset": "DELTA_BINARY_PACKED",
             "block_last.list.element": "DELTA_BINARY_PACKED",
             "doc_id": "DELTA_BINARY_PACKED"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("enc_corpus")
    tbl = generate_table(400, seed=17)
    # a payload on every fifth word of some docs (delimited_payload)
    texts = [" ".join(w + f"|{i % 4 + 1}.5" if j % 5 == 0 and i % 3 else w
                      for j, w in enumerate(t.split(" ")))
             for i, t in enumerate(tbl["content"].to_pylist())]
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    pay = tmp_path_factory.mktemp("enc_pay_corpus")
    pq.write_table(tbl.set_column(tbl.schema.get_field_index("content"),
                                  "content", pa.array(texts)),
                   str(pay / "c.parquet"), row_group_size=100)
    return {"plain": str(d), "payloads": str(pay), "table": tbl}


@pytest.fixture(scope="module")
def built(corpus, tmp_path_factory, ray_session):
    """One 4-partition index per configuration, never merged: tests copy
    them."""
    out = {}
    for name, kw in CONFIGS.items():
        idx = str(tmp_path_factory.mktemp(f"enc_{name}") / "idx")
        build_index(corpus["payloads" if name == "payloads" else "plain"],
                    idx, rows_per_partition=100, **kw)
        out[name] = idx
    return out


def _copy(src: str, tmp_path, name: str = "idx") -> str:
    dst = str(tmp_path / name)
    shutil.copytree(src, dst)
    return dst


def _tops(s: IndexSearcher, queries=QUERIES) -> list:
    return [(t["doc_id"].to_pylist(), t["score"].to_pylist())
            for t in (s.search(q, k=15) for q in queries)]


def _files(idx: str) -> list[str]:
    """Every listed terms file and every live partition's norms file."""
    man = IndexManifest.load(idx)
    return man.terms_files + [p["norms"] for p in man.partitions
                              if p["partition_id"] not in man.exorcised]


def _assert_encoded(idx: str, rel: str) -> None:
    md = pq.read_metadata(os.path.join(idx, rel))
    assert md.num_rows and md.num_row_groups, rel
    for g in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(g).column(i)
            assert c.compression == "ZSTD", (rel, c.path_in_schema)
            want = ENCODINGS.get(c.path_in_schema, "RLE_DICTIONARY")
            assert want in c.encodings, (rel, c.path_in_schema, c.encodings)


def _assert_row_ordered(idx: str, rel: str) -> None:
    """``rel``'s bin holds stream after stream (postings, positions, then
    offsets or payloads), each in row order, and nothing else."""
    t = pq.read_table(os.path.join(idx, rel))
    base = 0
    for s in ("", "pos_", "off_", "pay_"):
        if s + "offset" in t.schema.names:
            lens = t[s + "length"].to_numpy()
            np.testing.assert_array_equal(t[s + "offset"].to_numpy(),
                                          base + np.cumsum(lens) - lens,
                                          err_msg=f"{rel}: {s}offset")
            base += int(lens.sum())
    assert base == os.path.getsize(os.path.join(idx, own_bin(rel)))


def _appends(idx: str) -> list[str]:
    """The NRT appends' own terms files."""
    return [s.terms_path for s in list_append_segments(idx)
            if os.path.relpath(s.terms_path, idx).startswith("segments")]


def _merge_outputs(idx: str) -> list[str]:
    return [f for f in IndexManifest.load(idx).terms_files
            if f.startswith("merged/")]


def test_every_terms_and_norms_file_is_encoded(built, corpus, tmp_path):
    """Build, full merge, NRT appends and a tier merge all write through
    the one encoding."""
    idx = _copy(built["standard"], tmp_path)
    for f in _files(idx):
        _assert_encoded(idx, f)
    merge_index(idx, hot_df_threshold=50, salt_group_size=2)
    assert _merge_outputs(idx)
    for f in _files(idx):
        _assert_encoded(idx, f)
    tbl = corpus["table"]
    for i in range(2):
        update_documents(idx, tbl.slice(10 * i, 5), "path")
    appends = _appends(idx)
    assert len(appends) == 2
    for f in _files(idx):
        _assert_encoded(idx, f)
    tier = os.path.relpath(execute_merge(idx, appends), idx)
    assert tier in IndexManifest.load(idx).terms_files
    for f in _files(idx):
        _assert_encoded(idx, f)
    for f in _merge_outputs(idx):
        _assert_row_ordered(idx, f)
    assert check_merged(idx, sample_terms=10**6)["ok"]


def test_files_read_back_equal_to_the_tables_written(built, corpus,
                                                     tmp_path, monkeypatch):
    """Every table a segment build, an NRT append, a tier merge and the
    full merge's kernel write reads back equal."""
    written = []
    real = build.write_encoded

    def record(tbl, path, *a):  # read back before a commit sweeps it
        real(tbl, path, *a)
        written.append((path, tbl, pq.read_table(path)))

    monkeypatch.setattr(build, "write_encoded", record)
    monkeypatch.setattr(merge, "write_encoded", record)
    idx = _copy(built["positions_offsets"], tmp_path)
    man = IndexManifest.load(idx)
    p = man.partitions[0]
    build.build_segment(
        {k: p[k] for k in ("partition_id", "file", "row_groups", "rows",
                           "doc_base")}, str(tmp_path / "seg"),
        text_field=man.field, analyzer_name=man.analyzer,
        store_positions=True, store_offsets=True)
    assert len(written) == 2  # its terms and its norms
    # the full merge's kernel over every listed row, salted as it salts
    rows = pa.concat_tables([pq.read_table(os.path.join(idx, f))
                             for f in man.terms_files])
    rows = rows.take(pc.sort_indices(rows, [("term", "ascending"),
                                            ("start_doc", "ascending")]))
    os.makedirs(os.path.join(idx, "merged"))
    salt = np.where(rows["df"].to_numpy() >= 20,
                    rows["start_doc"].to_numpy() // 200, 0)
    rows = rows.append_column("salt", pa.array(salt.astype(np.int32)))
    rows = rows.take(pc.sort_indices(rows, [
        ("term", "ascending"), ("salt", "ascending"),
        ("start_doc", "ascending")]))
    _assert_row_ordered(idx, merge.compact_to_file(rows, idx,
                                                   "merged/terms-k"))
    tbl = corpus["table"]
    for i in range(2):
        update_documents(idx, tbl.slice(10 * i, 5), "path")
    execute_merge(idx, _appends(idx))
    assert len(written) == 2 + 1 + 2 * 2 + 1
    for path, tbl, back in written:
        assert back.equals(tbl), path


@pytest.mark.parametrize("config", list(CONFIGS))
def test_merge_outputs_are_row_ordered(built, corpus, config, tmp_path):
    """In every merge output each stream's offsets are its base plus the
    exclusive cumulative sum of its lengths: a merge with salted hot
    terms, then one that leaves an exorcised partition's postings out.
    Results stay those of the unmerged index."""
    idx = _copy(built[config], tmp_path)
    queries = QUERIES if config == "standard" else POS_QUERIES
    want = _tops(IndexSearcher(idx), queries)
    merge_index(idx, hot_df_threshold=50, salt_group_size=2)
    for f in _merge_outputs(idx):
        _assert_row_ordered(idx, f)
        _assert_encoded(idx, f)
    assert check_merged(idx, sample_terms=10**6)["ok"]
    assert _tops(IndexSearcher(idx), queries) == want
    if config == "standard":
        # the oracle gate: BM25 ranks and scores of the single-process
        # oracle
        oracle = OracleIndex(corpus["table"]["content"].to_pylist())
        s = IndexSearcher(idx)
        for mode, qterms in (("OR", ["return", "quick"]),
                             ("AND", ["return", "def"])):
            tq = [TermQuery(t) for t in qterms]
            q = (BooleanQuery.build(should=tq) if mode == "OR"
                 else BooleanQuery.build(must=tq))
            got = s.search(q, k=10)
            exp = oracle.search(qterms, k=10, mode=mode)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp]
            np.testing.assert_allclose(got["score"].to_pylist(),
                                       [float(x) for _, x in exp],
                                       rtol=0, atol=1e-6)
    with open(os.path.join(idx, "norms", "part-00001.parquet"), "wb") as f:
        f.write(b"not parquet")
    assert exorcise_index(idx)["dropped"] == [1]
    merge_index(idx, hot_df_threshold=50, salt_group_size=2)
    for f in _merge_outputs(idx):
        _assert_row_ordered(idx, f)
    assert check_merged(idx, sample_terms=10**6)["ok"]


def _rewrite_with_defaults(idx: str, reorder_bins: bool = False) -> None:
    """Write every listed terms file and every norms file again with
    Arrow's defaults (snappy, dictionary encoding), as earlier versions
    wrote them. ``reorder_bins``: also lay each listed file's ``.bin``
    out in reverse row order, as no merge writes it."""
    for rel in _files(idx):
        path = os.path.join(idx, rel)
        t = pq.read_table(path)
        if reorder_bins and rel in IndexManifest.load(idx).terms_files:
            with open(os.path.join(idx, own_bin(rel)), "rb") as f:
                old = f.read()
            new = bytearray()
            for s in ("", "pos_", "off_", "pay_"):
                if s + "offset" not in t.schema.names:
                    continue
                offs = t[s + "offset"].to_numpy()
                lens = t[s + "length"].to_numpy()
                at = np.empty(t.num_rows, np.int64)
                for r in range(t.num_rows - 1, -1, -1):
                    at[r] = len(new)
                    new += old[offs[r]:offs[r] + lens[r]]
                t = t.set_column(t.schema.get_field_index(s + "offset"),
                                 s + "offset", pa.array(at))
            with open(os.path.join(idx, own_bin(rel)), "wb") as f:
                f.write(bytes(new))
        pq.write_table(t, path)
        md = pq.read_metadata(path)
        assert md.row_group(0).column(0).compression == "SNAPPY"


@pytest.mark.parametrize("merged", [False, True])
def test_indexes_written_with_defaults_still_work(built, corpus, merged,
                                                  tmp_path):
    """An index whose terms and norms files carry Arrow's default
    encoding searches bit-identically, takes an upsert and a reopen, and
    merges into encoded outputs that pass ``check_merged``."""
    enc = _copy(built["positions_offsets"], tmp_path, "enc")
    if merged:
        merge_index(enc, hot_df_threshold=50, salt_group_size=2)
    old = _copy(enc, tmp_path, "old")
    _rewrite_with_defaults(old, reorder_bins=merged)
    assert _tops(IndexSearcher(old), POS_QUERIES) == \
        _tops(IndexSearcher(enc), POS_QUERIES)
    tbl = corpus["table"]
    rows = tbl.take(pa.array([3, 50, 333]))
    rows = rows.set_column(
        rows.schema.get_field_index("content"), "content",
        pa.array([t + " return self zqfresh" for t in
                  rows["content"].to_pylist()]))
    queries = POS_QUERIES + [TermQuery("zqfresh")]
    tops = []
    for idx in (enc, old):
        mgr = SearcherManager(idx)
        update_documents(idx, rows, "path")
        assert mgr.maybe_refresh()
        tops.append(_tops(mgr.acquire(), queries))
        assert tops[-1] == _tops(IndexSearcher(idx), queries)
    assert tops[0] == tops[1]
    assert len(tops[0][-1][0]) == 3
    merge_index(old)
    for f in _files(old):
        if f.startswith("merged/"):
            _assert_encoded(old, f)
            _assert_row_ordered(old, f)
    assert check_merged(old, strict=True)["ok"]
    assert _tops(IndexSearcher(old), queries) == tops[0]


def test_index_info_reports_terms_bytes_by_column(built, tmp_path):
    idx = _copy(built["positions_offsets"], tmp_path)
    merge_index(idx)
    by_col = index_info(idx)["terms_bytes_by_column"]
    assert set(by_col) == set(terms_schema(True, False).names)
    assert all(v > 0 for v in by_col.values())
    paths = [os.path.join(idx, f)
             for f in IndexManifest.load(idx).terms_files]
    size = sum(os.path.getsize(p) for p in paths)
    # the footer, the magic bytes and each column chunk's metadata
    footers = [pq.read_metadata(p).serialized_size for p in paths]
    rest = size - sum(by_col.values()) - sum(f + 12 for f in footers)
    assert 0 <= rest <= sum(footers)
