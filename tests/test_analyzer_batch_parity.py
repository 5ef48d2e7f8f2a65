"""Batch/per-doc parity across the whole analyzer registry.

``tokens_batch`` is the index-build hot path; ``tokens_with_positions``
is the query-time path (QueryParser analyzes query text per string). Any
divergence between them silently splits the index vocabulary from the
query vocabulary — the ICU empty-fold position-gap bug was exactly this
class. The contract is order-insensitive: batch implementations may
reorder docs (the standard analyzer's ASCII fast path emits ASCII docs
first, then fallback docs), but the (doc, position, token) triple SET
must match the per-doc path exactly.
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

EDGE_TEXTS = [
    "Привет мир",
    "",
    "a ั b",                 # bare Thai vowel sign: folds to empty in ICU
    "the quick brown fox",    # stopwords: posIncr gaps must match
    "A&B 3.14 foo-bar",
    "北京Computer",
    "running runs ran",
    "o'neill's",
    "ｶﾀｶﾅ ABC",               # halfwidth Katakana (width folding)
    "ั ิ",                     # doc of ONLY empty-folding tokens
    "x ั y",
]


def _registry():
    import lucene_solr_ray.analysis as A

    # import every submodule so all register_analyzer() calls run
    for m in pkgutil.iter_modules(A.__path__):
        importlib.import_module(f"lucene_solr_ray.analysis.{m.name}")
    from lucene_solr_ray.analysis.analyzers import _REGISTRY

    return dict(_REGISTRY)


@pytest.mark.parametrize("name", sorted(_registry()))
def test_tokens_batch_matches_per_doc(name):
    ana = _registry()[name]
    toks, doc_idx, pos = ana.tokens_batch(EDGE_TEXTS)
    got = sorted(zip(np.asarray(doc_idx).tolist(),
                     np.asarray(pos).tolist(), list(toks)))
    want = []
    for i, text in enumerate(EDGE_TEXTS):
        tt, pp = ana.tokens_with_positions(text)
        want.extend((i, p, t) for t, p in zip(tt, pp))
    want.sort()
    assert got == want


@pytest.mark.parametrize("name", sorted(_registry()))
def test_token_stream_matches_per_doc(name):
    """The token stream every index build consumes: a duplicate-free
    vocabulary whose decoded tokens equal the per-doc path, and spans
    (when present) that re-analyse to the same token."""
    ana = _registry()[name]
    vocab, codes, doc_idx, pos, starts, ends = \
        ana.tokens_batch_factorized(EDGE_TEXTS)
    assert len(set(vocab)) == len(vocab)
    got = sorted(zip(np.asarray(doc_idx).tolist(),
                     np.asarray(pos).tolist(), [vocab[c] for c in codes]))
    want = []
    for i, text in enumerate(EDGE_TEXTS):
        tt, pp = ana.tokens_with_positions(text)
        want.extend((i, p, t) for t, p in zip(tt, pp))
    assert got == sorted(want)
    if starts is not None:
        assert len(starts) == len(ends) == len(codes)
        assert all(0 <= s < e <= len(EDGE_TEXTS[d])
                   for s, e, d in zip(starts, ends, doc_idx))
