"""Payloads in postings (DelimitedPayloadTokenFilter -> .pay payload
stream) + PayloadScoreQuery / SpanPayloadCheckQuery surfaces."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def pay_idx(tmp_path_factory, ray_session):
    from lucene_solr_ray.index import build_index

    docs = [
        "alpha|2.0 beta|1.0 alpha|4.0",   # alpha avg 3.0
        "alpha|10.0 gamma",               # alpha avg 10, gamma default 1
        "beta|0.5 beta|1.5",              # beta avg 1.0
        "delta delta delta",
    ]
    d = tmp_path_factory.mktemp("pay_src")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "content": pa.array(docs),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("pay_idx") / "idx")
    build_index(str(d), out, text_field="content",
                analyzer="delimited_payload",
                store_positions=True, store_payloads=True,
                rows_per_partition=10)
    return out


def test_payload_stream_roundtrip(pay_idx):
    from lucene_solr_ray.search.readers import MergedReader

    r = MergedReader(pay_idx)
    assert r.has_payloads
    docs, tfs, pay = r.term_payloads("alpha")
    assert docs.tolist() == [0, 1]
    assert tfs.tolist() == [2, 1]
    assert pay.tolist() == [2.0, 4.0, 10.0]
    docs, tfs, pay = r.term_payloads("gamma")
    assert pay.tolist() == [1.0]  # default payload


def test_payload_score_query(pay_idx):
    from lucene_solr_ray.search import IndexSearcher
    from lucene_solr_ray.search.extras import payload_score

    s = IndexSearcher(pay_idx)
    t = payload_score(s, "alpha", fn="avg")
    assert t["doc_id"].to_pylist() == [1, 0]   # 10.0 > 3.0
    assert t["score"].to_pylist() == [10.0, 3.0]
    t = payload_score(s, "alpha", fn="max")
    assert t["score"].to_pylist() == [10.0, 4.0]
    t = payload_score(s, "beta", fn="sum")
    assert t["doc_id"].to_pylist() == [2, 0]
    assert t["score"].to_pylist() == [2.0, 1.0]


def test_payload_check_query(pay_idx):
    from lucene_solr_ray.search import IndexSearcher
    from lucene_solr_ray.search.extras import payload_check

    s = IndexSearcher(pay_idx)
    assert payload_check(s, "alpha", [2.0, 4.0]).tolist() == [0]
    assert payload_check(s, "alpha", [10.0]).tolist() == [1]
    assert payload_check(s, "alpha", [2.0]).tolist() == []


def test_positions_intact_with_payloads(pay_idx):
    from lucene_solr_ray.search import IndexSearcher
    from lucene_solr_ray.search.query import PhraseQuery

    s = IndexSearcher(pay_idx)
    hits = s.search(PhraseQuery(["alpha", "beta"]), k=10)
    assert hits["doc_id"].to_pylist() == [0]


def test_checkindex_covers_payload_stream(pay_idx):
    from lucene_solr_ray.index.check import check_index

    rep = check_index(pay_idx)
    assert rep["ok"] and rep["terms_checked"] > 0
