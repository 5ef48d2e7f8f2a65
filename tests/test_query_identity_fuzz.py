"""Randomized rank-identity fuzz across searcher configurations.

The engine claims bit-identical (doc ids AND float32 scores) top-k
between exhaustive and block-max-pruned scoring, on the per-segment view
and on the merged view. A seeded random-query grammar (booleans with
+/-, prefixes, fuzzy, OR/AND trees, phrases with slop) exercises that
identity over a real built index — the generalized
form of the fixed-query identity tests (300+ ad-hoc queries found zero
divergences; this pins a 60-query seeded sample)."""
import os
import random
import shutil

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.merge import merge_index
from lucene_solr_ray.search.query import parse_query
from lucene_solr_ray.search.searcher import IndexSearcher
from lucene_solr_ray.sources import write_corpus


@pytest.fixture(scope="module")
def fuzz_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzzidx")
    corpus = str(root / "corpus")
    write_corpus(corpus, 3000, docs_per_file=3000)
    idx = str(root / "idx")
    build_index(corpus, idx, text_field="content",
                rows_per_partition=1000, store_positions=True)
    vocab = []
    import glob

    for f in sorted(glob.glob(os.path.join(idx, "segments",
                                           "*.parquet")))[:2]:
        vocab += [t for t in pq.read_table(f, columns=["term"])
                  ["term"].to_pylist() if t and t.isalpha()]
    return idx, sorted(set(vocab))[:8000]


def _rand_queries(vocab, n, seed):
    rng = random.Random(seed)

    def term():
        return rng.choice(vocab)

    def typo(t):
        if len(t) < 3:
            return t
        i = rng.randrange(len(t))
        return t[:i] + rng.choice("abcxyz") + t[i + 1:]

    out = []
    for _ in range(n):
        k = rng.random()
        if k < 0.3:
            out.append(" ".join(term() for _ in range(rng.randint(1, 3))))
        elif k < 0.5:
            out.append(f"+{term()} " + " ".join(
                ("-" if rng.random() < 0.4 else "") + term()
                for _ in range(rng.randint(1, 2))))
        elif k < 0.65:
            t = term()
            out.append(t[:max(2, len(t) // 2)] + "*")
        elif k < 0.8:
            out.append(typo(term()) + "~" + str(rng.choice([1, 2])))
        else:
            out.append(f'"{term()} {term()}"'
                       + ("~2" if rng.random() < 0.5 else ""))
    return out


def test_rank_identity_across_configs(fuzz_index):
    """Pruned == exhaustive on the per-segment view, positional queries
    included."""
    idx, vocab = fuzz_index
    s = IndexSearcher(idx)  # unmerged: the segments' own terms files
    ana = s.manifest.resolve_analyzer()
    checked = 0
    for qs in _rand_queries(vocab, 60, seed=17):
        try:
            q = parse_query(qs, ana)
        except Exception:
            continue
        base = s.search(q, k=10, prune=False)
        want = (base["doc_id"].to_pylist(), base["score"].to_pylist())
        got = s.search(q, k=10, prune=True)
        assert (got["doc_id"].to_pylist(),
                got["score"].to_pylist()) == want, qs
        checked += 1
    assert checked >= 40  # the grammar parses nearly everything


@pytest.fixture(scope="module")
def merged_fuzz_index(fuzz_index, tmp_path_factory):
    idx, vocab = fuzz_index
    merged = str(tmp_path_factory.mktemp("fuzzmerged") / "idx")
    shutil.copytree(idx, merged)
    merge_index(merged)
    return merged, vocab


def test_pruned_identity_on_merged_view(merged_fuzz_index):
    """Pruned == exhaustive on the merged view; positions survive the
    merge, so phrase queries are checked too."""
    idx, vocab = merged_fuzz_index
    s = IndexSearcher(idx)
    assert s.manifest.merged
    ana = s.manifest.resolve_analyzer()
    checked = 0
    for qs in _rand_queries(vocab, 60, seed=23):
        try:
            q = parse_query(qs, ana)
        except Exception:
            continue
        a = s.search(q, k=10, prune=False)
        b = s.search(q, k=10, prune=True)
        assert (a["doc_id"].to_pylist(), a["score"].to_pylist()) == \
               (b["doc_id"].to_pylist(), b["score"].to_pylist()), qs
        checked += 1
    assert checked >= 40
