"""updateNumericDocValues (IndexWriter.java docvalues-update
generations): in-place numeric DV updates without reindexing."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index
from lucene_solr_ray.index.updates import update_numeric_docvalues
from lucene_solr_ray.search import IndexSearcher, TermQuery
from lucene_solr_ray.sources import generate_table


@pytest.fixture(scope="module")
def dv_idx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("dv_src")
    tbl = generate_table(300, seed=33)
    tbl = tbl.append_column("n_lines", pa.array(
        [c.count("\n") + 1 for c in tbl["content"].to_pylist()],
        pa.int64()))
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("dv_idx") / "idx")
    build_index(str(d), out, rows_per_partition=100,
                docvalues_fields=["n_lines"])
    return out, tbl


def test_update_numeric_docvalues(dv_idx):
    out, tbl = dv_idx
    before = IndexSearcher(out).docvalues("n_lines").copy()
    paths = tbl["path"].to_pylist()
    # bump n_lines to 9999 for three known keys
    targets = sorted(set(paths))[:3]
    upd = pa.table({
        "path": pa.array(targets),
        "n_lines": pa.array([9999] * len(targets), pa.int64()),
    })
    n = update_numeric_docvalues(out, "path", "n_lines", upd)
    want_ids = [i for i, p in enumerate(paths) if p in set(targets)]
    assert n == len(want_ids) > 0
    # a REOPENED searcher sees the overlay; untouched docs unchanged
    after = IndexSearcher(out).docvalues("n_lines")
    np.testing.assert_array_equal(after[want_ids], 9999)
    untouched = np.setdiff1d(np.arange(before.size), want_ids)
    np.testing.assert_array_equal(after[untouched], before[untouched])


def test_update_generations_stack_last_wins(dv_idx):
    out, tbl = dv_idx
    paths = tbl["path"].to_pylist()
    key = sorted(set(paths))[0]
    upd = pa.table({"path": pa.array([key, key]),
                    "n_lines": pa.array([1111, 2222], pa.int64())})
    # duplicate keys in one batch: last row wins
    update_numeric_docvalues(out, "path", "n_lines", upd)
    s = IndexSearcher(out)
    ids = [i for i, p in enumerate(paths) if p == key]
    np.testing.assert_array_equal(s.docvalues("n_lines")[ids], 2222)
    # a later generation overrides an earlier one
    update_numeric_docvalues(out, "path", "n_lines", pa.table({
        "path": pa.array([key]), "n_lines": pa.array([3333], pa.int64())}))
    s2 = IndexSearcher(out)
    np.testing.assert_array_equal(s2.docvalues("n_lines")[ids], 3333)


def test_updated_dv_feeds_field_sort(dv_idx):
    out, tbl = dv_idx
    s = IndexSearcher(out)
    t = s.search_by_field(TermQuery("return"), k=5, field="n_lines")
    assert t.num_rows > 0
    vals = t["n_lines"].to_pylist() if "n_lines" in t.column_names else None
    # sort order respects the overlay (9999-updated docs rank first
    # when they match)
    dv = s.docvalues("n_lines")
    docs = t["doc_id"].to_pylist()
    got = [int(dv[d]) for d in docs]
    assert got == sorted(got, reverse=True)


def test_update_numeric_docvalues_empty(dv_idx):
    """An empty updates table is a no-op returning 0, not an IndexError
    inside the distributed scan."""
    out, _ = dv_idx
    upd = pa.table({"path": pa.array([], pa.string()),
                    "n_lines": pa.array([], pa.int64())})
    assert update_numeric_docvalues(out, "path", "n_lines", upd) == 0


def test_docvalues_update_refreshes_searcher_manager(tmp_path_factory,
                                                     ray_session):
    """update_numeric_docvalues commits a generation: the managed
    searcher refreshes to it and sees the docvalues a fresh searcher
    sees."""
    from lucene_solr_ray.search import SearcherManager

    d = tmp_path_factory.mktemp("dv_mgr_src")
    pq.write_table(pa.table({
        "doc_key": pa.array([1, 2, 3], pa.int64()),
        "rank": pa.array([1, 2, 3], pa.int64()),
        "content": pa.array(["alpha beta", "beta gamma", "gamma delta"]),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("dv_mgr_idx") / "idx")
    build_index(str(d), out, text_field="content",
                docvalues_fields=["rank"], rows_per_partition=10)
    mgr = SearcherManager(out)
    assert mgr.acquire().docvalues("rank").tolist() == [1, 2, 3]
    update_numeric_docvalues(out, "doc_key", "rank", pa.table({
        "doc_key": pa.array([2], pa.int64()),
        "rank": pa.array([20], pa.int64())}))
    assert mgr.maybe_refresh()
    assert mgr.acquire().docvalues("rank").tolist() == \
        IndexSearcher(out).docvalues("rank").tolist() == [1, 20, 3]
