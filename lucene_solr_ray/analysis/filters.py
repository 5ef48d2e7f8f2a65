"""Token filters: WordDelimiterFilter + PorterStemFilter + their analyzers.

- :func:`word_delimiter_parts` restates
  ``lucene/analysis/common/src/java/org/apache/lucene/analysis/
  miscellaneous/WordDelimiterFilter.java:86`` — split tokens on intra-word
  delimiters: non-alphanumerics, case transitions (camelCase; including the
  XMLHttp -> XML|Http acronym boundary) and letter/digit transitions
  (``SPLIT_ON_CASE_CHANGE`` + ``SPLIT_ON_NUMERICS`` +
  ``GENERATE_WORD_PARTS`` + ``GENERATE_NUMBER_PARTS``; optional
  ``PRESERVE_ORIGINAL``). Emitted parts keep the source token's position
  (posIncr 0 sub-tokens), which is what makes camelCase/snake_case source
  code searchable by sub-token — SURVEY §2.2 flags this as the filter this
  corpus wants.

- :func:`porter_stem` is the classic Porter (1980) algorithm, the exact
  procedure behind ``analysis/common/.../en/PorterStemFilter.java:56``
  (which delegates to ``PorterStemmer.java``, a line-by-line port of the
  published algorithm). Golden pairs from the published vocabulary are in
  tests/test_filters.py.

- :class:`EnglishAnalyzer`: standard chain + possessive strip + Porter
  (``analysis/common/.../en/EnglishAnalyzer.java`` with the classic
  stemmer).
- :class:`CodeAnalyzer`: whitespace split + word-delimiter parts +
  lowercase + stop — the camelCase/snake_case source-code chain.
"""

from __future__ import annotations

import re

import numpy as np

from .analyzers import (
    ENGLISH_STOP_WORDS,
    Analyzer,
    VocabMapAnalyzer,
    register_analyzer,
)

_WDF_BOUNDARY = re.compile(
    r"(?<=[a-z])(?=[A-Z])"          # fooBar -> foo|Bar
    r"|(?<=[A-Z])(?=[A-Z][a-z])"    # XMLHttp -> XML|Http
    r"|(?<=[A-Za-z])(?=[0-9])"      # foo2 -> foo|2
    r"|(?<=[0-9])(?=[A-Za-z])"      # 2foo -> 2|foo
)
_WDF_DELIM = re.compile(r"[^0-9A-Za-z]+")


def word_delimiter_parts(token: str, *, preserve_original: bool = False,
                         ) -> list[str]:
    """Sub-word parts of one token (WordDelimiterFilter semantics with
    GENERATE_WORD_PARTS | GENERATE_NUMBER_PARTS | SPLIT_ON_CASE_CHANGE |
    SPLIT_ON_NUMERICS). A token with no delimiters passes through."""
    pieces = [p for p in _WDF_DELIM.split(token) if p]
    parts: list[str] = []
    for p in pieces:
        parts.extend(x for x in _WDF_BOUNDARY.split(p) if x)
    if not parts:
        return []
    if parts == [token] and not preserve_original:
        return parts
    if preserve_original and token not in parts:
        return [token] + parts
    return parts


# ---------------------------------------------------------------------------
# Porter stemmer (Porter, 1980 — "An algorithm for suffix stripping")
# ---------------------------------------------------------------------------

_VOWELS = set("aeiou")


def _is_cons(w: str, i: int) -> bool:
    c = w[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(w, i - 1)
    return True


def _measure(stem: str) -> int:
    """m = number of VC sequences in [C](VC)^m[V]."""
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_cons(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_cons(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(stem: str) -> bool:
    return (len(stem) >= 2 and stem[-1] == stem[-2]
            and _is_cons(stem, len(stem) - 1))


def _cvc(stem: str) -> bool:
    """*o: stem ends cvc where the final c is not w, x or y."""
    if len(stem) < 3:
        return False
    n = len(stem)
    return (_is_cons(stem, n - 3) and not _is_cons(stem, n - 2)
            and _is_cons(stem, n - 1) and stem[-1] not in "wxy")


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
]
_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]
_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def porter_stem(w: str) -> str:
    if len(w) <= 2:
        return w
    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]
    # step 1b
    flag = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed"):
        if _has_vowel(w[:-2]):
            w = w[:-2]
            flag = True
    elif w.endswith("ing"):
        if _has_vowel(w[:-3]):
            w = w[:-3]
            flag = True
    if flag:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif _ends_double_cons(w) and w[-1] not in "lsz":
            w = w[:-1]
        elif _measure(w) == 1 and _cvc(w):
            w += "e"
    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    # step 2
    for suf, rep in _STEP2:
        if w.endswith(suf):
            if _measure(w[: -len(suf)]) > 0:
                w = w[: -len(suf)] + rep
            break
    # step 3
    for suf, rep in _STEP3:
        if w.endswith(suf):
            if _measure(w[: -len(suf)]) > 0:
                w = w[: -len(suf)] + rep
            break
    # step 4
    for suf in _STEP4:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 1:
                if suf == "ion" and (not stem or stem[-1] not in "st"):
                    break
                w = stem
            break
    # step 5a
    if w.endswith("e"):
        m = _measure(w[:-1])
        if m > 1 or (m == 1 and not _cvc(w[:-1])):
            w = w[:-1]
    # step 5b
    if _measure(w) > 1 and _ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


def ascii_fold(token: str) -> str:
    """ASCIIFoldingFilter (``analysis/common/.../miscellaneous/
    ASCIIFoldingFilter.java``): strip diacritics / fold Latin letters to
    their ASCII base via Unicode NFKD + combining-mark removal (covers
    the filter's Latin-1/Latin-Extended table; symbols without an ASCII
    decomposition pass through unchanged)."""
    if token.isascii():
        return token
    import unicodedata

    folded = "".join(
        c for c in unicodedata.normalize("NFKD", token)
        if not unicodedata.combining(c)
    )
    return folded


class FoldingAnalyzer(VocabMapAnalyzer):
    """Standard chain + ASCII folding (the schema.xml staple
    ``<filter class="solr.ASCIIFoldingFilterFactory"/>``)."""

    name = "folding"

    def __init__(self, base: str = "standard"):
        from .analyzers import get_analyzer

        self.base = get_analyzer(base)

    def _one(self, t: str) -> str:
        return ascii_fold(t)


class EnglishAnalyzer(VocabMapAnalyzer):
    """StandardAnalyzer chain + possessive strip + PorterStemFilter
    (``en/EnglishAnalyzer.java`` shape with the classic stemmer).
    ``stem_exclusions`` is the KeywordMarkerFilter protected-word set
    (``miscellaneous/SetKeywordMarkerFilter.java``)."""

    name = "english"

    def __init__(self, stop_words=ENGLISH_STOP_WORDS,
                 stem_exclusions: frozenset | set = frozenset()):
        from .analyzers import StandardAnalyzer

        self.base = StandardAnalyzer(stop_words=stop_words)
        self.stem_exclusions = frozenset(stem_exclusions)

    def _one(self, t: str) -> str:
        if t in self.stem_exclusions:
            return t
        if t.endswith("'s"):  # EnglishPossessiveFilter
            t = t[:-2]
        return porter_stem(t)


class DelimitedPayloadAnalyzer(Analyzer):
    """DelimitedPayloadTokenFilter (``analysis/common/.../payloads/
    DelimitedPayloadTokenFilter.java`` + ``FloatEncoder``): whitespace
    tokens of the form ``token|1.5`` carry a float payload; bare tokens
    get ``default_payload``. The payload stream rides the positional
    index (build_index(store_payloads=True)) exactly like offsets do."""

    name = "delimited_payload"
    _ws = re.compile(r"\s+")

    def __init__(self, delimiter: str = "|", default_payload: float = 1.0,
                 lowercase: bool = True):
        self.delimiter = delimiter
        self.default_payload = float(default_payload)
        self.lowercase = lowercase

    def _split(self, raw: str) -> tuple[str, float]:
        if self.delimiter in raw:
            tok, _, pay = raw.rpartition(self.delimiter)
            try:
                return (tok.lower() if self.lowercase else tok,
                        float(pay))
            except ValueError:
                pass
        return (raw.lower() if self.lowercase else raw,
                self.default_payload)

    def tokens(self, text: str) -> list[str]:
        return [self._split(t)[0] for t in self._ws.split(text) if t]

    def tokens_with_positions(self, text: str):
        toks = self.tokens(text)
        return toks, list(range(len(toks)))

    def tokens_with_payloads(self, text: str):
        out = [self._split(t) for t in self._ws.split(text) if t]
        return ([t for t, _ in out], list(range(len(out))),
                [p for _, p in out])

    def tokens_batch(self, texts: list[str]):
        toks_l, doc_l, pos_l = [], [], []
        for i, t in enumerate(texts):
            toks = self.tokens(t or "")
            toks_l.extend(toks)
            doc_l.append(np.full(len(toks), i, np.int64))
            pos_l.append(np.arange(len(toks), dtype=np.int64))
        z = np.empty(0, np.int64)
        return (toks_l,
                np.concatenate(doc_l) if doc_l else z,
                np.concatenate(pos_l) if pos_l else z)

    def tokens_batch_payloads(self, texts: list[str]):
        """(tokens, doc_idx, positions, payloads:float32) — the payload
        feed of the ``.pay`` stream."""
        toks_l, doc_l, pos_l, pay_l = [], [], [], []
        for i, t in enumerate(texts):
            toks, _pos, pays = self.tokens_with_payloads(t or "")
            toks_l.extend(toks)
            doc_l.append(np.full(len(toks), i, np.int64))
            pos_l.append(np.arange(len(toks), dtype=np.int64))
            pay_l.append(np.asarray(pays, np.float32))
        z = np.empty(0, np.int64)
        zf = np.empty(0, np.float32)
        return (toks_l,
                np.concatenate(doc_l) if doc_l else z,
                np.concatenate(pos_l) if pos_l else z,
                np.concatenate(pay_l) if pay_l else zf)


class CodeAnalyzer(Analyzer):
    """Whitespace split -> word-delimiter parts -> lowercase -> stop; the
    source-code chain (sub-tokens of camelCase / snake_case / Brand#17
    style compounds become searchable terms)."""

    name = "code"
    _ws = re.compile(r"\s+")

    def __init__(self, stop_words=ENGLISH_STOP_WORDS,
                 preserve_original: bool = False):
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.preserve_original = preserve_original

    def tokens(self, text: str) -> list[str]:
        out = []
        stop = self.stop_words
        for raw in self._ws.split(text):
            if not raw:
                continue
            for p in word_delimiter_parts(
                raw, preserve_original=self.preserve_original
            ):
                p = p.lower()
                if p not in stop:
                    out.append(p)
        return out

    def tokens_with_positions(self, text: str):
        # all parts of one source token share its position (posIncr-0
        # sub-tokens, WordDelimiterFilter's position contract)
        toks, pos = [], []
        stop = self.stop_words
        i = 0
        for raw in self._ws.split(text):
            if not raw:
                continue
            emitted = False
            for p in word_delimiter_parts(
                raw, preserve_original=self.preserve_original
            ):
                p = p.lower()
                if p not in stop:
                    toks.append(p)
                    pos.append(i)
                    emitted = True
            if emitted:
                i += 1
        return toks, pos


register_analyzer("english", EnglishAnalyzer())
register_analyzer("code", CodeAnalyzer())
register_analyzer("folding", FoldingAnalyzer())
register_analyzer("delimited_payload", DelimitedPayloadAnalyzer())
