"""StandardTokenizer: UAX#29 word-break tokenization as a compiled regex.

Re-implements the reference JFlex grammar
(``lucene/analysis/common/src/java/org/apache/lucene/analysis/standard/
StandardTokenizerImpl.jflex:121-199``) as a single Python regex built from
generated word-break class tables (``_wb_ranges.py``). The grammar is regular,
so one greedy alternation reproduces JFlex longest-match behavior:

- WORD rule (WB5-13b): runs of letters/digits/katakana joined by MidLetter /
  MidNum / MidNumLet / Single_Quote between same-kind neighbors, with
  ExtendNumLet (``_``) gluing segments — covers the separate NUMERIC rule's
  language, so one pattern suffices (token *types* are not needed downstream:
  StandardAnalyzer ignores them, ``StandardAnalyzer.java:87-113``).
- SEA runs, Han and Hiragana single-char tokens (WB14 + ComplexContext).
- Extend/Format chars are absorbed into tokens (WB4) and kept in the text,
  exactly as JFlex's ``[Format Extend]*`` suffixes do.

Simplifications vs the grammar (documented): Hebrew quote rules WB7a-c
dropped (Hebrew letters fold into ALetter); Regional_Indicator pairs not
joined.

Tokens longer than ``max_token_length`` (default 255) are dropped and counted
as skipped positions, per ``StandardTokenizer.java:145-167``.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

import numpy as np

from . import _wb_ranges as wb
from ._lowercase import SIMPLE_LOWER

DEFAULT_MAX_TOKEN_LENGTH = 255  # StandardAnalyzer.DEFAULT_MAX_TOKEN_LENGTH (StandardAnalyzer.java:42)


def _cls(ranges) -> str:
    """Render a list of (lo, hi) codepoint ranges as a regex char-class body."""
    parts = []
    for lo, hi in ranges:
        if lo == hi:
            parts.append(re.escape(chr(lo)))
        else:
            parts.append(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}")
    return "".join(parts)


@lru_cache(maxsize=1)
def _build_pattern() -> "re.Pattern[str]":
    fe = f"[{_cls(wb.FORMAT)}{_cls(wb.EXTEND)}]*"
    al = f"(?:[{_cls(wb.ALETTER)}]{fe})"
    num = f"(?:[{_cls(wb.NUMERIC)}]{fe})"
    kata = f"(?:[{_cls(wb.KATAKANA)}]{fe})"
    enl = f"(?:[{_cls(wb.EXTENDNUMLET)}]{fe})"
    # MidLetterEx = [MidLetter MidNumLet SingleQuote]; MidNumericEx = [MidNum MidNumLet SingleQuote]
    midlet = f"(?:[{_cls(wb.MIDLETTER)}{_cls(wb.MIDNUMLET)}{_cls(wb.SINGLEQUOTE)}]{fe})"
    midnum = f"(?:[{_cls(wb.MIDNUM)}{_cls(wb.MIDNUMLET)}{_cls(wb.SINGLEQUOTE)}]{fe})"

    # inner = Katakana run | (Numeric segment | ALetter segment)+   (jflex:150-154)
    num_seg = f"{num}(?:(?:{enl}*|{midnum}){num})*"
    al_seg = f"{al}(?:(?:{enl}*|{midlet}){al})*"
    kata_seg = f"{kata}(?:{enl}*{kata})*"
    inner = f"(?:{kata_seg}|(?:{num_seg}|{al_seg})+)"
    word = f"{enl}*{inner}(?:{enl}+{inner})*{enl}*"

    sea = f"(?:[{_cls(wb.SEA)}]{fe})+"
    han = f"(?:[{_cls(wb.HAN)}]{fe})"
    hira = f"(?:[{_cls(wb.HIRAGANA)}]{fe})"
    return re.compile(f"{word}|{sea}|{han}|{hira}")


@lru_cache(maxsize=1)
def _lower_table():
    return SIMPLE_LOWER


def simple_lowercase(text: str) -> str:
    """Java ``Character.toLowerCase`` per codepoint (LowerCaseFilter.java:46).

    1:1 mapping — safe to apply before tokenization because case never
    changes a codepoint's word-break class.
    """
    return text.translate(_lower_table())


@lru_cache(maxsize=1)
def _lower_array() -> np.ndarray:
    table = _lower_table()
    arr = np.arange(sys.maxunicode + 1, dtype=np.uint32)
    arr[list(table)] = list(table.values())
    arr.flags.writeable = False  # one table, shared by every caller
    return arr


def simple_lowercase_codepoints(cp: np.ndarray) -> np.ndarray:
    """:func:`simple_lowercase` of a uint32 array of codepoints."""
    return _lower_array()[cp]


def tokenize(text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH) -> list[str]:
    """Tokenize; over-long tokens dropped (positions handled by caller)."""
    return [t for t in _build_pattern().findall(text) if len(t) <= max_token_length]


def tokenize_with_positions(
    text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH
) -> tuple[list[str], list[int]]:
    """Return (tokens, positions) with gaps for dropped over-long tokens.

    Position semantics per ``StandardTokenizer.incrementToken``
    (StandardTokenizer.java:145-167): each emitted token's position is the
    previous position + 1 + number of skipped (too-long) tokens in between.
    """
    tokens: list[str] = []
    positions: list[int] = []
    pos = -1
    for m in _build_pattern().finditer(text):
        pos += 1
        t = m.group(0)
        if len(t) <= max_token_length:
            tokens.append(t)
            positions.append(pos)
    return tokens, positions


def tokenize_with_spans(
    text: str, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH
) -> tuple[list[str], list[int], list[int], list[int]]:
    """(tokens, positions, char_starts, char_ends) — the offsets feed of
    the ``..._AND_OFFSETS`` index option (OffsetAttribute semantics:
    spans index the ORIGINAL text)."""
    tokens: list[str] = []
    positions: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    pos = -1
    for m in _build_pattern().finditer(text):
        pos += 1
        t = m.group(0)
        if len(t) <= max_token_length:
            tokens.append(t)
            positions.append(pos)
            starts.append(m.start())
            ends.append(m.end())
    return tokens, positions, starts, ends
