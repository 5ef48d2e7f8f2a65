"""Vectorized ASCII tokenizer and the token stream's vocabulary encoder.

The token stream is the one shape in which a batch of documents is
analysed: ``(vocab, codes, doc_idx, positions, starts, ends)``, where
``vocab`` holds distinct strings, ``vocab[codes[i]]`` is token i, token
i belongs to document ``doc_idx[i]`` at ``positions[i]`` and spans chars
``[starts[i], ends[i])`` of that document (``starts``/``ends`` are None
when the producer has no spans). :func:`ascii_token_stream` produces it
for ASCII documents; :func:`factorize_tokens` is the one encoder from
token strings to ``(vocab, codes)``.

For pure-ASCII text (the overwhelming majority of a source-code corpus) the
UAX#29 word-break rules implemented by the reference grammar
(``StandardTokenizerImpl.jflex:121-165``) reduce to a per-character mask:

- core token chars: ``[A-Za-z]`` (ALetter), ``[0-9]`` (Numeric), ``_``
  (ExtendNumLet, category Pc)
- ``.`` / ``'`` join when both neighbors are letters OR both are digits
  (MidNumLet / Single_Quote, WB6/7 + WB11/12)
- ``:`` joins letter-letter only (MidLetter, WB6/7)
- ``,`` / ``;`` join digit-digit only (MidNum, WB11/12)

Tokens = maximal runs of (core | joined-mid) containing at least one
letter/digit (a bare ``___`` run is not a token — the grammar's mandatory
inner segment). This is exactly the language the full regex accepts on ASCII
input; ``tests/test_property.py`` cross-checks the two on generated text.

Everything here is numpy and Arrow compute over a uint8 view of the
encoded text: no Python loop over characters or tokens, and only the
DISTINCT tokens ever become Python strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_LUT = np.zeros(128, np.uint8)
_AL, _NUM, _ENL, _DOTQ, _COLON, _COMMA = 1, 2, 3, 4, 5, 6
for _c in range(ord("a"), ord("z") + 1):
    _LUT[_c] = _AL
for _c in range(ord("A"), ord("Z") + 1):
    _LUT[_c] = _AL
for _c in range(ord("0"), ord("9") + 1):
    _LUT[_c] = _NUM
_LUT[ord("_")] = _ENL
_LUT[ord(".")] = _DOTQ
_LUT[ord("'")] = _DOTQ
_LUT[ord(":")] = _COLON
_LUT[ord(",")] = _COMMA
_LUT[ord(";")] = _COMMA


def ascii_token_spans(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Return (starts, ends) of UAX#29 tokens in ASCII byte string ``data``."""
    b = np.frombuffer(data, dtype=np.uint8)
    if b.size == 0:
        e = np.empty(0, np.int64)
        return e, e
    cls = _LUT[b & 0x7F]
    core = (cls >= _AL) & (cls <= _ENL)
    prev = np.empty_like(cls)
    prev[0] = 0
    prev[1:] = cls[:-1]
    nxt = np.empty_like(cls)
    nxt[-1] = 0
    nxt[:-1] = cls[1:]
    ll = (prev == _AL) & (nxt == _AL)
    nn = (prev == _NUM) & (nxt == _NUM)
    join = (
        ((cls == _DOTQ) & (ll | nn))
        | ((cls == _COLON) & ll)
        | ((cls == _COMMA) & nn)
    )
    mask = core | join
    padded = np.zeros(b.size + 2, np.int8)
    padded[1:-1] = mask
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    # drop runs with no letter/digit (pure '_' runs are not tokens)
    if starts.size:
        alnum = (cls == _AL) | (cls == _NUM)
        keep = np.logical_or.reduceat(alnum, starts)
        # reduceat over [start_i, start_{i+1}) includes inter-run gaps, but
        # gap chars are all non-core (mask False) and never alnum, so the
        # any-alnum result per run is unaffected.
        return starts[keep], ends[keep]
    return starts, ends


def factorize_tokens(tokens) -> tuple[list[str], np.ndarray]:
    """``(vocab, codes)`` of a token list or Arrow string array:
    ``vocab`` is the distinct tokens in first-appearance order and
    ``vocab[codes[i]] == tokens[i]`` (one ``pc.dictionary_encode``)."""
    if not isinstance(tokens, pa.Array):
        tokens = pa.array(tokens, pa.large_string())
    enc = pc.dictionary_encode(tokens)
    codes = enc.indices.to_numpy().astype(np.int64)
    # via numpy: an object array's tolist() is ~20x faster than
    # to_pylist() on a string array
    return enc.dictionary.to_numpy(zero_copy_only=False).tolist(), codes


def ascii_token_stream(texts: list[str],
                       max_token_length: int = 255):
    """The token stream ``(vocab, codes, doc_idx, positions, starts,
    ends)`` of a batch of ASCII strings, in one vectorized pass.

    Joins docs with ``\\n`` (always a boundary), extracts token spans
    once and attributes each token to its document via searchsorted.
    Positions are per-document token ordinals *including* gaps for
    dropped over-long tokens (``StandardTokenizer.java:145-167``);
    ``starts``/``ends`` are char offsets into each token's own document
    (the ``OffsetAttribute`` feed of the ``.pay`` stream). The kept
    tokens' bytes are gathered into one buffer, wrapped as an Arrow
    string array and dictionary-encoded."""
    data = "\n".join(texts).encode("ascii")
    starts, ends = ascii_token_spans(data)
    lens = np.fromiter(map(len, texts), np.int64, count=len(texts))
    doc_starts = np.zeros(len(texts), np.int64)
    np.cumsum(lens[:-1] + 1, out=doc_starts[1:])
    doc_idx = np.searchsorted(doc_starts, starts, side="right") - 1
    # per-doc position ordinal, counted before the length filter
    per_doc = np.bincount(doc_idx, minlength=len(texts))
    first = np.cumsum(per_doc) - per_doc
    positions = np.arange(starts.size, dtype=np.int64) - first[doc_idx]
    ok = (ends - starts) <= max_token_length
    if not ok.all():
        starts, ends = starts[ok], ends[ok]
        doc_idx, positions = doc_idx[ok], positions[ok]
    # tokens never touch (a non-token byte separates any two), so +1 at
    # each start and -1 at each end sum to a 0/1 inside-a-token mask
    mark = np.zeros(len(data) + 1, np.int8)
    mark[starts] = 1
    mark[ends] = -1
    inside = np.cumsum(mark[:-1], dtype=np.int8).view(bool)
    offsets = np.zeros(starts.size + 1, np.int64)
    np.cumsum(ends - starts, out=offsets[1:])
    buf = np.frombuffer(data, np.uint8)[inside]
    tokens = pa.LargeStringArray.from_buffers(
        starts.size, pa.py_buffer(offsets), pa.py_buffer(buf))
    vocab, codes = factorize_tokens(tokens)
    base = doc_starts[doc_idx]
    return vocab, codes, doc_idx, positions, starts - base, ends - base
