"""The token stream (StandardAnalyzer.tokens_batch_factorized, built on
analysis/fast.py ascii_token_stream): the stream's tokens, positions and
spans must equal the per-document path exactly, across ASCII, mixed,
over-long and wide-token batches — and _invert must produce identical
postings from the stream and from the per-document path."""
import numpy as np
import pytest

from lucene_solr_ray.analysis import get_analyzer
from lucene_solr_ray.analysis.analyzers import Analyzer, StandardAnalyzer
from lucene_solr_ray.analysis.tokenizer import (
    simple_lowercase,
    tokenize_with_spans,
)
from lucene_solr_ray.index.build import _invert, stored_streams

POSITIONS = stored_streams(True, False, False)

CASES = [
    ["The quick brown fox and the lazy dog", "hash join merge table scan"],
    ["a an and or not to be 123 foo_bar x y z " * 5, "", "single"],
    ["héllo wörld münich", "plain ascii", "ß sharp", "mixed END 42"],
    ["repeat repeat repeat token", "token repeat again token"],
    [],
    ["numbers 3.14 1,000 a:b c_d", "x" * 300 + " overlong filtered ok"],
]


def _stream_rows(texts):
    vocab, codes, doc_idx, pos, starts, ends = \
        get_analyzer("standard").tokens_batch_factorized(texts)
    assert len(set(vocab)) == len(vocab)  # vocabulary is deduplicated
    return sorted(zip(doc_idx.tolist(), pos.tolist(),
                      [vocab[c] for c in codes], starts.tolist(),
                      ends.tolist()))


def _per_doc_rows(texts):
    stop = get_analyzer("standard").stop_words
    return sorted(
        (i, p, t, s, e) for i, text in enumerate(texts)
        for t, p, s, e in zip(*tokenize_with_spans(simple_lowercase(text)))
        if t not in stop)


@pytest.mark.parametrize("texts", CASES)
def test_factorized_reconstructs_tokens_batch(texts):
    assert _stream_rows(texts) == _per_doc_rows(texts)
    t, d, p = get_analyzer("standard").tokens_batch(texts)
    assert sorted(zip(d.tolist(), p.tolist(), t)) == \
        [r[:3] for r in _per_doc_rows(texts)]


@pytest.mark.parametrize("width", [70, 300])
def test_wide_token_stream_equals_per_doc(width):
    # a 70-char token is kept, a 300-char one dropped (leaving a position
    # gap); both in ASCII and in mixed batches
    for texts in (["x" * width + " wide", "narrow " + "y" * width],
                  ["z" * width + " héllo", "x" * width + " wide"]):
        assert _stream_rows(texts) == _per_doc_rows(texts)


def test_invert_identical_with_and_without_fast_path():
    texts = [
        "alpha beta gamma alpha", "beta beta the of", "",
        "héllo wörld alpha", "zeta alpha 42 zeta",
    ]
    res_fast = _invert(texts, "standard", 0, POSITIONS)
    # the per-document path: tokens_with_positions per doc, factorized
    orig = (StandardAnalyzer.tokens_batch,
            StandardAnalyzer.tokens_batch_factorized)
    StandardAnalyzer.tokens_batch = Analyzer.tokens_batch
    StandardAnalyzer.tokens_batch_factorized = \
        Analyzer.tokens_batch_factorized
    try:
        res_slow = _invert(texts, "standard", 0, POSITIONS)
    finally:
        (StandardAnalyzer.tokens_batch,
         StandardAnalyzer.tokens_batch_factorized) = orig
    # vocab ORDER may differ: compare each (term, doc) pair's tf and
    # positions, and the field lengths
    assert _pairs(res_fast) == _pairs(res_slow)
    assert np.array_equal(res_fast[4], res_slow[4])


def _pairs(res):
    """{(term, doc): absolute positions} of an _invert result."""
    vocab, tid, doc, tf, _, values = res
    pos_flat = values["pos"]
    out, at = {}, 0
    for t, d, f in zip(tid.tolist(), doc.tolist(), tf.tolist()):
        deltas = pos_flat[at:at + f].astype(np.int64)
        out[(vocab[t], d)] = np.cumsum(deltas).tolist()
        at += f
    return out


def test_english_two_forms_of_one_stem_give_one_posting():
    # "running" and "runs" both stem to "run": one posting, tf 2, with
    # both positions
    res = _invert(["running runs fast", "run"], "english", 0, POSITIONS)
    assert len(set(res[0])) == len(res[0])
    assert _pairs(res) == {("run", 0): [0, 1], ("fast", 0): [2],
                           ("run", 1): [0]}
    vocab_s, codes, doc_idx, pos, starts, ends = \
        get_analyzer("english").tokens_batch_factorized(["running runs"])
    assert vocab_s == ["run"] and codes.tolist() == [0, 0]
    assert starts.tolist() == [0, 8] and ends.tolist() == [7, 12]
