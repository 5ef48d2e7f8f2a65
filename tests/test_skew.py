"""Skew stress (FIXTURES.md corpus_skew): ~20 stopword-like code tokens in
>90% of docs; the salted merge must split their posting lists and produce
query results identical to the unsalted path; block-max pruning must stay
exact on them."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import IndexManifest, build_index, merge_index
from lucene_solr_ray.search import BooleanQuery, IndexSearcher, TermQuery
from lucene_solr_ray.sources import generate_table

HOT = [f"hotkw{i}" for i in range(20)]
N = 1200


@pytest.fixture(scope="module")
def skew_corpus(tmp_path_factory):
    rng = np.random.default_rng(17)
    base = generate_table(N, seed=17)
    contents = base["content"].to_pylist()
    for i in range(N):
        if rng.random() < 0.93:  # hot terms in >90% of docs
            extra = " ".join(
                HOT[j] for j in rng.integers(0, len(HOT), 8)
            )
            contents[i] = contents[i] + "\n" + extra
    tbl = base.set_column(
        base.schema.get_field_index("content"), "content",
        pa.array(contents, pa.string()),
    )
    d = tmp_path_factory.mktemp("skew")
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    return str(d)


def _build(corpus, out, salt: bool):
    build_index(corpus, out, rows_per_partition=100)
    merge_index(
        out,
        # threshold below hot-term df -> salted; huge -> unsalted
        hot_df_threshold=200 if salt else 10_000_000,
        salt_group_size=3,
    )
    return IndexSearcher(out)


def test_salted_equals_unsalted(skew_corpus, tmp_path_factory, ray_session):
    a = _build(skew_corpus, str(tmp_path_factory.mktemp("salted")), True)
    b = _build(skew_corpus, str(tmp_path_factory.mktemp("plain")), False)
    # salting actually split the hot terms into multiple chunks
    assert len(a.reader.chunks(HOT[0])) > len(b.reader.chunks(HOT[0]))
    assert a.doc_freq(HOT[0]) == b.doc_freq(HOT[0]) > 0.25 * N
    queries = [
        TermQuery(HOT[0]),
        BooleanQuery.build(should=[TermQuery(HOT[1]), TermQuery("return")]),
        BooleanQuery.build(must=[TermQuery(HOT[2]), TermQuery(HOT[3])],
                           must_not=[TermQuery(HOT[4])]),
    ]
    for q in queries:
        ra = a.search(q, k=50).to_pydict()
        rb = b.search(q, k=50).to_pydict()
        assert ra == rb, q
    # block-max pruning exact on skewed hot ORs
    q = BooleanQuery.build(should=[TermQuery(t) for t in HOT[:5]])
    assert (a.search(q, k=10, prune=True).to_pydict()
            == a.search(q, k=10).to_pydict())
