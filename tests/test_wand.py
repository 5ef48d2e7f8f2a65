"""Block-max pruned top-k must be bit-identical to exhaustive scoring
(prune-only contract, M6) — on merged and unmerged indexes, across k and
query shapes incl. salted hot terms."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index, merge_index
from lucene_solr_ray.search import BooleanQuery, IndexSearcher, TermQuery
from lucene_solr_ray.sources import generate_table


@pytest.fixture(scope="module")
def widx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("wcorpus")
    tbl = generate_table(800, seed=3)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("windex"))
    build_index(str(d), out, rows_per_partition=100)
    merge_index(out, hot_df_threshold=100, salt_group_size=2)
    return out


def _vocab_sample(searcher, rng, n):
    terms = searcher.reader.unique_terms()
    return [terms[i] for i in rng.integers(0, terms.size, n)]


@pytest.mark.parametrize("k", [1, 5, 10, 100])
def test_wand_identical_to_exhaustive(widx, k):
    s = IndexSearcher(widx)
    rng = np.random.default_rng(99)
    common = ["return", "def", "0", "none", "value_count"]
    for trial in range(15):
        nterms = int(rng.integers(1, 6))
        terms = _vocab_sample(s, rng, nterms) + (
            [common[trial % len(common)]] if trial % 2 else []
        )
        q = (TermQuery(terms[0]) if len(terms) == 1
             else BooleanQuery.build(should=[TermQuery(t) for t in terms]))
        a = s.search(q, k=k).to_pydict()
        b = s.search(q, k=k, prune=True).to_pydict()
        assert a == b, (terms, k)


def test_wand_missing_terms_and_stopword(widx):
    s = IndexSearcher(widx)
    q = BooleanQuery.build(should=[TermQuery("zzznotaterm"),
                                   TermQuery("the")])
    assert s.search(q, k=10, prune=True).num_rows == 0


def test_wand_actually_prunes(widx):
    """The pruned path must decode fewer blocks than exhaustive would for
    a skewed OR (hot + rare term, small k)."""
    from lucene_solr_ray.search import bm25
    from lucene_solr_ray.search.wand import _TermCursor

    s = IndexSearcher(widx)
    hot, rare = "return", "value_count"
    c = _TermCursor(s.reader, hot, bm25.idf(s.doc_freq(hot), s.max_doc),
                    s._cache)
    total_blocks = sum(ub.size for ub in c.block_ub)
    # seed theta from the hot term itself, then check rare-term blocks
    # with low UB would be skipped under a high theta
    kept = sum(
        arr.size for arr in c.blocks_above(float(c.ub_max) * 0.999, 0.0)
    )
    assert kept < total_blocks or total_blocks <= 1


def test_wand_respects_deletes(tmp_path_factory, ray_session):
    """prune=True must not resurrect deleted docs (ADVICE r1, high)."""
    from lucene_solr_ray.index.deletes import delete_docs
    from lucene_solr_ray.sources import generate_table

    d = tmp_path_factory.mktemp("wdel_corpus")
    tbl = generate_table(400, seed=11)
    pq.write_table(tbl, str(d / "c.parquet"), row_group_size=100)
    out = str(tmp_path_factory.mktemp("wdel_index"))
    build_index(str(d), out, rows_per_partition=100)
    merge_index(out, hot_df_threshold=100, salt_group_size=2)

    s0 = IndexSearcher(out)
    q = BooleanQuery.build(should=[TermQuery("return"), TermQuery("def")])
    base = s0.search(q, k=10, prune=True)
    assert base.num_rows > 0
    # delete the current top-3 docs, reopen, re-run both paths
    delete_docs(out, np.asarray(base["doc_id"].to_pylist()[:3]))
    s = IndexSearcher(out)
    gone = set(base["doc_id"].to_pylist()[:3])
    pruned = s.search(q, k=10, prune=True)
    exhaustive = s.search(q, k=10, prune=False)
    assert not (set(pruned["doc_id"].to_pylist()) & gone)
    assert pruned.to_pydict() == exhaustive.to_pydict()
