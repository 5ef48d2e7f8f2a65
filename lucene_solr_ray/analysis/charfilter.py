"""CharFilters — pre-tokenization text transforms with offset
correction (``lucene/analysis/common/.../charfilter/``).

A CharFilter rewrites the character stream BEFORE the tokenizer sees
it (strip markup, normalize digraphs, regex cleanup) while keeping a
correction table so token offsets still point into the ORIGINAL text —
the contract highlighting depends on.  The reference's
``BaseCharFilter`` records cumulative (output-offset, diff) pairs and
``correctOffset`` adds the diff recorded at the greatest output offset
<= the queried one; this module restates exactly that model with numpy
searchsorted, so correction of a whole span column is one vectorized
call.

Filters (factory names in parentheses):

- :func:`mapping_char_filter` (``mapping``) — NormalizeCharMap
  greedy longest-match literal rewrites (``MappingCharFilter.java``).
- :func:`pattern_replace_char_filter` (``pattern_replace``) —
  ``PatternReplaceCharFilter.java``: regex replacement; output chars
  of a replacement correct into the matched input span.
- :func:`html_strip_char_filter` (``html_strip``) —
  ``HTMLStripCharFilter.java``: tags/comments/script/style deleted,
  character entities decoded, all offset-corrected.

:class:`CharFilteredAnalyzer` composes a chain in front of any
analyzer: ``tokens``/``tokens_batch`` run the inner analyzer over the
filtered text (positions unchanged), and its token stream
(``tokens_batch_factorized``) is the inner analyzer's stream with the
spans corrected back to original-text offsets, so an index
built with it stores original offsets exactly like a Lucene analyzer
with charFilters configured.
"""

from __future__ import annotations

import re

import numpy as np

from .analyzers import Analyzer


class OffsetCorrector:
    """BaseCharFilter's cumulative diff table."""

    def __init__(self, out_offsets: list[int], diffs: list[int]):
        self.out_offsets = np.asarray([0] + list(out_offsets), np.int64)
        self.diffs = np.asarray([0] + list(diffs), np.int64)

    def correct(self, offsets):
        o = np.asarray(offsets, np.int64)
        idx = np.searchsorted(self.out_offsets, o, "right") - 1
        return o + self.diffs[idx]

    def correct_scalar(self, off: int) -> int:
        return int(self.correct(np.asarray([off]))[0])


class _Builder:
    """Accumulates copy/replace events into (text, OffsetCorrector)."""

    def __init__(self):
        self.parts: list[str] = []
        self.out_len = 0
        self.in_len = 0
        self.offs: list[int] = []
        self.diffs: list[int] = []

    def copy(self, s: str):
        if s:
            self.parts.append(s)
            self.out_len += len(s)
            self.in_len += len(s)

    def replace(self, orig_len: int, replacement: str):
        if replacement:
            self.parts.append(replacement)
            self.out_len += len(replacement)
        self.in_len += orig_len
        diff = self.in_len - self.out_len
        if not self.diffs or self.diffs[-1] != diff:
            self.offs.append(self.out_len)
            self.diffs.append(diff)

    def finish(self) -> tuple[str, OffsetCorrector]:
        return "".join(self.parts), OffsetCorrector(self.offs,
                                                    self.diffs)


# -- MappingCharFilter -------------------------------------------------------

def mapping_char_filter(text: str, mappings: dict[str, str]):
    """Greedy longest-match literal rewrites (NormalizeCharMap)."""
    by_first: dict[str, list[str]] = {}
    for k in mappings:
        if k:
            by_first.setdefault(k[0], []).append(k)
    for lst in by_first.values():
        lst.sort(key=len, reverse=True)
    b = _Builder()
    i, n = 0, len(text)
    lit_start = 0
    while i < n:
        hit = None
        for k in by_first.get(text[i], ()):
            if text.startswith(k, i):
                hit = k
                break
        if hit is None:
            i += 1
            continue
        b.copy(text[lit_start:i])
        b.replace(len(hit), mappings[hit])
        i += len(hit)
        lit_start = i
    b.copy(text[lit_start:])
    return b.finish()


# -- PatternReplaceCharFilter ------------------------------------------------

def pattern_replace_char_filter(text: str, pattern, replacement: str):
    pat = re.compile(pattern) if isinstance(pattern, str) else pattern
    b = _Builder()
    last = 0
    for m in pat.finditer(text):
        b.copy(text[last:m.start()])
        b.replace(m.end() - m.start(), m.expand(replacement))
        last = m.end()
    b.copy(text[last:])
    return b.finish()


# -- HTMLStripCharFilter -----------------------------------------------------

_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'",
    "nbsp": " ", "copy": "©", "reg": "®", "deg": "°",
    "middot": "·", "hellip": "…", "mdash": "—",
    "ndash": "–", "lsquo": "‘", "rsquo": "’",
    "ldquo": "“", "rdquo": "”",
}
_HTML_EVENT = re.compile(
    r"<!--.*?-->"                                    # comment
    r"|<script\b.*?(?:</script\s*>|$)"               # script subtree
    r"|<style\b.*?(?:</style\s*>|$)"                 # style subtree
    r"|<[!/]?[a-zA-Z][^>]*>"                         # tag
    r"|&#[0-9]+;|&#[xX][0-9a-fA-F]+;|&[a-zA-Z]+;",   # entity
    re.DOTALL | re.IGNORECASE,
)


def _decode_entity(e: str) -> str:
    body = e[1:-1]
    if body.startswith("#"):
        try:
            cp = int(body[2:], 16) if body[1] in "xX" else int(body[1:])
            return chr(cp)
        except (ValueError, OverflowError):
            return e
    return _ENTITIES.get(body, e)


def html_strip_char_filter(text: str):
    """Tags/comments/script/style deleted (block tags leave one space
    so adjacent words don't fuse), entities decoded, offsets
    corrected."""
    b = _Builder()
    last = 0
    for m in _HTML_EVENT.finditer(text):
        b.copy(text[last:m.start()])
        ev = m.group(0)
        if ev.startswith("&"):
            b.replace(len(ev), _decode_entity(ev))
        else:
            b.replace(len(ev), " ")
        last = m.end()
    b.copy(text[last:])
    return b.finish()


_FACTORIES = {
    "html_strip": lambda arg=None: html_strip_char_filter,
    "mapping": lambda arg: (
        lambda t: mapping_char_filter(t, arg)),
    "pattern_replace": lambda arg: (
        lambda t: pattern_replace_char_filter(t, arg[0], arg[1])),
}


def char_filter(name: str, arg=None):
    """Factory: ``char_filter("mapping", {"ph": "f"})`` etc."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown char filter: {name!r}")
    return _FACTORIES[name](arg)


class CharFilteredAnalyzer(Analyzer):
    """Analyzer wrapper applying a CharFilter chain before the inner
    analyzer (the ``<charFilter .../>`` elements of a Solr fieldType).
    Positions come from the inner analyzer over the FILTERED text;
    spans are corrected back through the chain (innermost first) so
    stored offsets index the original text."""

    def __init__(self, inner: Analyzer, filters: list):
        self.inner = inner
        self.filters = list(filters)
        self.name = f"charfiltered({getattr(inner, 'name', '?')})"

    def _apply(self, text: str):
        correctors = []
        for f in self.filters:
            text, corr = f(text)
            correctors.append(corr)
        return text, correctors

    def tokens(self, text: str) -> list[str]:
        return self.inner.tokens(self._apply(text)[0])

    def tokens_with_positions(self, text: str):
        return self.inner.tokens_with_positions(self._apply(text)[0])

    def tokens_batch(self, texts: list[str]):
        return self.inner.tokens_batch(
            [self._apply(t)[0] for t in texts])

    def tokens_batch_factorized(self, texts: list[str]):
        """The inner analyzer's stream over the filtered texts, its
        spans corrected back through each doc's chain (None when the
        inner stream has no spans)."""
        applied = [self._apply(t) for t in texts]
        vocab, codes, doc_idx, pos, starts, ends = \
            self.inner.tokens_batch_factorized([ft for ft, _ in applied])
        if starts is None:
            return vocab, codes, doc_idx, pos, None, None
        starts = np.array(starts, np.int64)
        ends = np.array(ends, np.int64)
        order = np.argsort(doc_idx, kind="stable")
        bounds = np.searchsorted(doc_idx[order], np.arange(len(texts) + 1))
        for i, (_, chain) in enumerate(applied):
            rows = order[bounds[i]:bounds[i + 1]]
            s, e = starts[rows], ends[rows]
            # innermost correction last (offsets flow outward)
            for corr in reversed(chain):
                s = corr.correct(s)
                e = corr.correct(e)
            starts[rows], ends[rows] = s, e
        return vocab, codes, doc_idx, pos, starts, ends
