"""CheckIndex -exorcise: corrupt partitions quarantined, doc ids never
renumbered, survivors keep searching."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index, check_index, exorcise_index
from lucene_solr_ray.search import IndexSearcher, MatchAllDocsQuery, TermQuery
from lucene_solr_ray.sources import generate_table


@pytest.fixture()
def corrupt_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("exo_src")
    pq.write_table(generate_table(300, seed=21), str(d / "a.parquet"),
                   row_group_size=100)
    out = str(tmp_path_factory.mktemp("exo_idx"))
    build_index(str(d), out, rows_per_partition=100)
    # corrupt partition 1's payload bin (truncate to garbage)
    bin1 = os.path.join(out, "segments", "part-00001.bin")
    with open(bin1, "r+b") as f:
        f.truncate(8)
    return out


def test_exorcise_drops_only_corrupt(corrupt_index):
    out = corrupt_index
    rep = exorcise_index(corrupt_index, sample_terms=50)
    assert rep["dropped"] == [1]
    assert rep["docs_deleted"] == 100
    # clean after exorcism
    rep2 = exorcise_index(corrupt_index, sample_terms=50)
    assert rep2["dropped"] == []
    # survivors keep their ORIGINAL doc ids; the dead range is masked
    s = IndexSearcher(out)
    alive = s._docs_only(MatchAllDocsQuery())
    assert alive.size == 200
    assert not ((alive >= 100) & (alive < 200)).any()
    assert (alive < 100).any() and (alive >= 200).any()
    t = s.search(TermQuery("return"), k=10)
    assert all(not (100 <= d < 200) for d in t["doc_id"].to_pylist())


def test_sharded_search_skips_exorcised(corrupt_index):
    """Every shard skips the quarantined segment, as the single-process
    reader does: sharded top-k equals single-process top-k, including a
    shard whose only partition is quarantined."""
    from lucene_solr_ray.search import search_sharded

    exorcise_index(corrupt_index, sample_terms=50)
    want = IndexSearcher(corrupt_index).search(TermQuery("return"), k=10)
    assert want.num_rows > 0
    for n in (1, 3):
        got = search_sharded(corrupt_index, [TermQuery("return")], k=10,
                             num_shards=n)
        assert (got["doc_id"].to_pylist(), got["score"].to_pylist()) == \
            (want["doc_id"].to_pylist(), want["score"].to_pylist()), n
