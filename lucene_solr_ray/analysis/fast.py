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

The mask is built in a few whole-buffer passes (:func:`token_runs`): a
letter-or-digit mask from byte-range compares (no table lookup), and the
core mask written into a buffer padded with one False byte at each end.
The runs of core chars are the rising and falling edges of one
``mask[1:] != mask[:-1]`` pass. A mid char joins only two core runs
that it alone separates, so the join rules are evaluated only at the
one-byte gaps between runs (a few per cent of the runs), and each join
sets one mask byte and removes one pair of edges. A run can lack a
letter or digit only if it starts with ``_`` (a joined char has a
letter or digit on each side), so only those runs are checked. The
stream then clears the runs it drops (those pure ``_`` runs and
over-long tokens) from the mask and gathers every kept token's bytes
with one filter by the mask; each document's tokens are located by one
search per document (:func:`doc_positions`).

Everything here is numpy and Arrow compute over a uint8 view of the
encoded text: no Python loop over characters or tokens, and only the
DISTINCT tokens ever become Python strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the join rule of each mid char: bit 1 joins two letters, bit 2 two digits
_MID = np.zeros(256, np.uint8)
_MID[[ord("."), ord("'")]] = 3
_MID[ord(":")] = 1
_MID[[ord(","), ord(";")]] = 2


def _letters(b: np.ndarray) -> np.ndarray:
    return (b | np.uint8(0x20)) - np.uint8(ord("a")) < 26


def _digits(b: np.ndarray) -> np.ndarray:
    return b - np.uint8(ord("0")) < 10


def token_runs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, starts, ends)`` for the ASCII bytes ``b``: the token runs
    ``[starts[i], ends[i])`` and the token mask ``m``, padded so that
    ``m[j + 1]`` is byte j and ``m[0] = m[-1] = False``. Runs without a
    letter or digit are neither returned nor left in ``m``."""
    n = b.size
    alnum = _letters(b)
    alnum |= _digits(b)
    m = np.zeros(n + 2, bool)
    np.equal(b, ord("_"), out=m[1:-1])
    m[1:-1] |= alnum
    edges = np.flatnonzero(m[1:] != m[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # a mid char can join only two core runs that it alone separates
    gap = np.flatnonzero(starts[1:] - ends[:-1] == 1)
    rule = _MID[b[ends[gap]]]
    gap, rule = gap[rule > 0], rule[rule > 0]
    mid = ends[gap]
    left, right = b[mid - 1], b[mid + 1]
    join = np.where(_digits(left) & _digits(right), rule >= 2,
                    _letters(left) & _letters(right) & (rule & 1 > 0))
    if join.any():
        # the joined byte enters the mask; its two edges leave the list
        gap = gap[join]
        m[ends[gap] + 1] = True
        keep = np.ones(edges.size, bool)
        keep[2 * gap + 1] = keep[2 * gap + 2] = False
        edges = edges[keep]
        starts, ends = edges[0::2], edges[1::2]
    under = np.flatnonzero(b[starts] == ord("_"))
    if under.size:
        # a run starting with '_' is a token only if it holds a letter or
        # digit; the last reduceat segment runs to the end of the buffer
        idx = np.empty(2 * under.size, np.int64)
        idx[0::2], idx[1::2] = starts[under], ends[under]
        if idx[-1] == n:
            idx = idx[:-1]
        pure = under[~np.logical_or.reduceat(alnum, idx)[0::2]]
        if pure.size:
            _clear(m, starts[pure], ends[pure])
            keep = np.ones(starts.size, bool)
            keep[pure] = False
            starts, ends = starts[keep], ends[keep]
    return m, starts, ends


def run_index(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every index of the runs ``[starts[i], ends[i])``, in order."""
    lens = ends - starts
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + \
        np.arange(lens.sum())


def _clear(m: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
    """Clear the runs ``[starts[i], ends[i])`` from the padded mask."""
    m[run_index(starts, ends) + 1] = False


def ascii_token_spans(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Return (starts, ends) of UAX#29 tokens in ASCII byte string ``data``."""
    _, starts, ends = token_runs(np.frombuffer(data, np.uint8))
    return starts, ends


def gather_tokens(b: np.ndarray, m: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> pa.LargeStringArray:
    """The tokens ``b[starts[i]:ends[i]]`` as one Arrow string array;
    ``m`` (padded, as :func:`token_runs` makes it) must mark exactly
    their bytes."""
    offsets = np.zeros(starts.size + 1, np.int64)
    np.cumsum(ends - starts, out=offsets[1:])
    # Arrow's filter runs ~2x faster than numpy's boolean index
    bits = np.packbits(m[1:-1], bitorder="little")
    mask = pa.Array.from_buffers(pa.bool_(), b.size,
                                 [None, pa.py_buffer(bits)])
    data = pc.filter(pa.array(b), mask).buffers()[1]
    return pa.LargeStringArray.from_buffers(
        starts.size, pa.py_buffer(offsets), data)


def doc_positions(starts: np.ndarray, doc_starts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(doc_idx, positions)`` of ascending token ``starts`` in a buffer
    where document d begins at ``doc_starts[d]``: one search per document
    finds its first token, and positions count from it."""
    first = np.searchsorted(starts, doc_starts)
    counts = np.diff(first, append=starts.size)
    doc_idx = np.repeat(np.arange(doc_starts.size, dtype=np.int64), counts)
    positions = np.arange(starts.size, dtype=np.int64) - \
        np.repeat(first, counts)
    return doc_idx, positions


def doc_starts_of(texts) -> np.ndarray:
    """Where each of ``texts`` begins in ``sep.join(texts)`` for a
    one-char ``sep``."""
    lens = np.fromiter(map(len, texts), np.int64, count=len(texts))
    starts = np.zeros(len(texts), np.int64)
    np.cumsum(lens[:-1] + 1, out=starts[1:])
    return starts


def ascii_tokens(b: np.ndarray, doc_starts: np.ndarray,
                 max_token_length: int | None):
    """``(tokens, doc_idx, positions, starts, ends)`` of the ASCII bytes
    ``b`` holding documents that begin at ``doc_starts``, separated by
    non-token bytes: ``tokens`` is an Arrow string array and
    ``starts``/``ends`` index ``b``. Positions are counted before tokens
    longer than ``max_token_length`` (None: no cap) are dropped."""
    m, starts, ends = token_runs(b)
    doc_idx, positions = doc_positions(starts, doc_starts)
    if max_token_length is not None:
        long = (ends - starts) > max_token_length
        if long.any():
            _clear(m, starts[long], ends[long])
            ok = ~long
            starts, ends = starts[ok], ends[ok]
            doc_idx, positions = doc_idx[ok], positions[ok]
    return gather_tokens(b, m, starts, ends), doc_idx, positions, starts, ends


def factorize_tokens(tokens) -> tuple[list[str], np.ndarray]:
    """``(vocab, codes)`` of a token list or Arrow string array:
    ``vocab`` is the distinct tokens in first-appearance order and
    ``vocab[codes[i]] == tokens[i]`` (one ``pc.dictionary_encode``)."""
    if not isinstance(tokens, pa.Array):
        tokens = pa.array(tokens, pa.large_string())
    enc = pc.dictionary_encode(tokens)
    codes = enc.indices.to_numpy().astype(np.int64)
    return string_list(enc.dictionary), codes


def string_list(arr: pa.Array) -> list[str]:
    """An Arrow string array as a list: via numpy, as an object array's
    tolist() is ~20x faster than to_pylist() on a string array."""
    return arr.to_numpy(zero_copy_only=False).tolist()


def ascii_token_stream(texts: list[str],
                       max_token_length: int = 255):
    """The token stream ``(vocab, codes, doc_idx, positions, starts,
    ends)`` of a batch of ASCII strings, in one vectorized pass.

    Joins docs with ``\\n`` (always a boundary) and extracts the tokens
    once (:func:`ascii_tokens`). Positions are per-document token
    ordinals *including* gaps for dropped over-long tokens
    (``StandardTokenizer.java:145-167``); ``starts``/``ends`` are char
    offsets into each token's own document (the ``OffsetAttribute`` feed
    of the ``.pay`` stream). The tokens are dictionary-encoded."""
    b = np.frombuffer("\n".join(texts).encode("ascii"), np.uint8)
    doc_starts = doc_starts_of(texts)
    tokens, doc_idx, positions, starts, ends = ascii_tokens(
        b, doc_starts, max_token_length)
    vocab, codes = factorize_tokens(tokens)
    base = doc_starts[doc_idx]
    return vocab, codes, doc_idx, positions, starts - base, ends - base
