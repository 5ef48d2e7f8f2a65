"""ICU analysis module (``lucene/analysis/icu/``) re-expressed.

- ``ICUTokenizer.java`` + ``ScriptIterator.java``: text is split into
  same-script runs (Common/Inherited characters attach to the run in
  progress, as ScriptIterator does), then each run is segmented by a
  script-appropriate strategy: UAX#29 word breaking for alphabetic
  scripts, the dictionary-DAG segmenter for Han runs and the lattice
  segmenter for Kana runs (the reference's ``DefaultICUTokenizerConfig``
  likewise swaps in dictionary-based break iterators for CJ text).
  Thai/Lao/Khmer/Myanmar have no bundled dictionary here: runs are
  emitted whole (documented approximation — ICU would
  dictionary-segment them).
- ``ICUNormalizer2Filter.java``: nfkc_cf normalization (NFKC + case
  fold) per token; ``ICUNormalizer2CharFilter.java`` is the same
  function applied to the whole text before tokenization.
- ``ICUFoldingFilter.java``: see :func:`..cjk.icu_fold` (UTR#30-style
  accent/case/width folding); reused here for the folded chain.
- ``ICUTransformFilter.java``: per-token transliteration. Bundled
  systems: ``Cyrillic-Latin`` (ISO 9:1995, the system ICU's rules
  implement), ``Greek-Latin`` (classical scholarly romanization),
  ``Katakana-Hiragana`` (exact codepoint shift, U+30A1..U+30F6 ->
  U+3041..U+3096), ``Fullwidth-Halfwidth`` (NFKC width fold), and
  ``Any-Latin`` (Cyrillic + Greek applied per character). Han-Latin
  (pinyin) is scoped out — its data file is a ~40k-entry reading
  dictionary.
"""

from __future__ import annotations

import bisect
import unicodedata

import numpy as np

from .analyzers import Analyzer, VocabMapAnalyzer, register_analyzer
from .cjk import icu_fold
from .tokenizer import tokenize_with_positions

# ---------------------------------------------------------------------------
# Script detection (the subset of UCD Scripts.txt the tokenizer routes on;
# everything unlisted is COMMON and attaches to the surrounding run)
# ---------------------------------------------------------------------------

_SCRIPT_RANGES: list[tuple[int, int, str]] = sorted([
    (0x0041, 0x005A, "Latin"), (0x0061, 0x007A, "Latin"),
    (0x00C0, 0x024F, "Latin"), (0x1E00, 0x1EFF, "Latin"),
    (0xFF21, 0xFF3A, "Latin"), (0xFF41, 0xFF5A, "Latin"),
    (0x0370, 0x03FF, "Greek"), (0x1F00, 0x1FFF, "Greek"),
    (0x0400, 0x04FF, "Cyrillic"), (0x0500, 0x052F, "Cyrillic"),
    (0x0530, 0x058F, "Armenian"),
    (0x0590, 0x05FF, "Hebrew"),
    (0x0600, 0x06FF, "Arabic"), (0x0750, 0x077F, "Arabic"),
    (0x0900, 0x097F, "Devanagari"),
    (0x0980, 0x09FF, "Bengali"),
    (0x0B80, 0x0BFF, "Tamil"),
    (0x0E00, 0x0E7F, "Thai"),
    (0x0E80, 0x0EFF, "Lao"),
    (0x1000, 0x109F, "Myanmar"),
    (0x1780, 0x17FF, "Khmer"),
    (0x10A0, 0x10FF, "Georgian"),
    (0x1100, 0x11FF, "Hangul"), (0xAC00, 0xD7AF, "Hangul"),
    (0x3130, 0x318F, "Hangul"),
    (0x3041, 0x309F, "Hiragana"),
    (0x30A0, 0x30FF, "Katakana"), (0x31F0, 0x31FF, "Katakana"),
    (0xFF66, 0xFF9D, "Katakana"),
    (0x3400, 0x4DBF, "Han"), (0x4E00, 0x9FFF, "Han"),
    (0xF900, 0xFAFF, "Han"),
])
_SCRIPT_LOS = [r[0] for r in _SCRIPT_RANGES]

# scripts whose runs get a dictionary/lattice segmenter, not UAX#29
_DICT_SCRIPTS = frozenset(("Han", "Hiragana", "Katakana"))
# scripts with no bundled dictionary: emit the run whole
_WHOLE_RUN_SCRIPTS = frozenset(("Thai", "Lao", "Myanmar", "Khmer"))


def script_of(ch: str) -> str:
    cp = ord(ch)
    k = bisect.bisect_right(_SCRIPT_LOS, cp) - 1
    if k >= 0:
        lo, hi, name = _SCRIPT_RANGES[k]
        if lo <= cp <= hi:
            return name
    return "Common"


def script_runs(text: str) -> list[tuple[int, int, str]]:
    """Same-script runs as (start, end, script); Common characters
    extend the current run (``ScriptIterator.java:49`` resolves
    common/inherited to the surrounding script)."""
    runs: list[tuple[int, int, str]] = []
    start = 0
    cur = "Common"
    for i, ch in enumerate(text):
        s = script_of(ch)
        if s == "Common":
            continue
        if cur == "Common":
            # retroactively claim the leading common prefix of this run
            cur = s
        elif s != cur:
            runs.append((start, i, cur))
            start, cur = i, s
    runs.append((start, len(text), cur))
    return runs


# ---------------------------------------------------------------------------
# Normalizer2 (nfkc_cf) and the char-filter variant
# ---------------------------------------------------------------------------

def nfkc_cf(text: str) -> str:
    """ICUNormalizer2Filter's default mode: NFKC + Unicode case fold."""
    return unicodedata.normalize("NFKC", unicodedata.normalize(
        "NFKC", text).casefold())


def normalize_charfilter(text: str) -> str:
    """ICUNormalizer2CharFilter: same normalization, whole-text,
    applied BEFORE tokenization."""
    return nfkc_cf(text)


# ---------------------------------------------------------------------------
# Transliteration (ICUTransformFilter systems)
# ---------------------------------------------------------------------------

_CYRL = {
    "а": "a", "б": "b", "в": "v", "г": "g", "д": "d", "е": "e",
    "ё": "ë", "ж": "ž", "з": "z", "и": "i", "й": "j", "к": "k",
    "л": "l", "м": "m", "н": "n", "о": "o", "п": "p", "р": "r",
    "с": "s", "т": "t", "у": "u", "ф": "f", "х": "h", "ц": "c",
    "ч": "č", "ш": "š", "щ": "ŝ", "ъ": "ʺ", "ы": "y", "ь": "ʹ",
    "э": "è", "ю": "û", "я": "â",
    # Ukrainian / Belarusian additions (ISO 9)
    "є": "ê", "і": "ì", "ї": "ï", "ґ": "g̀", "ў": "ǔ",
}
_GREEK = {
    "α": "a", "β": "b", "γ": "g", "δ": "d", "ε": "e", "ζ": "z",
    "η": "ē", "θ": "th", "ι": "i", "κ": "k", "λ": "l", "μ": "m",
    "ν": "n", "ξ": "x", "ο": "o", "π": "p", "ρ": "r", "σ": "s",
    "ς": "s", "τ": "t", "υ": "y", "φ": "ph", "χ": "ch", "ψ": "ps",
    "ω": "ō",
}


def _strip_marks(c: str) -> str:
    return "".join(ch for ch in unicodedata.normalize("NFD", c)
                   if unicodedata.category(ch) != "Mn")


def _map_translit(table: dict[str, str], text: str) -> str:
    # Composed-first lookup: NFC the text so table rows for й/ё/ї/ў
    # (distinct ISO 9 letters, NOT и/е/і/у + mark) match; only when a
    # composed char misses is its mark-stripped base tried (folds
    # Greek tonos etc.). A char unmapped either way passes through
    # UNCHANGED — stripping it would erase diacritics a previous
    # transform pass just produced (Any-Latin: ю -> û must survive the
    # Greek pass).
    out = []
    for c in unicodedata.normalize("NFC", text):
        low = c.lower()
        m = table.get(low)
        if m is None:
            base = _strip_marks(low)
            m = table.get(base)
        if m is None:
            out.append(c)
        elif c != low:  # preserve an initial capital
            out.append(m[:1].upper() + m[1:])
        else:
            out.append(m)
    return "".join(out)


def _kata_to_hira(text: str) -> str:
    return "".join(chr(ord(c) - 0x60) if 0x30A1 <= ord(c) <= 0x30F6 else c
                   for c in text)


def _width_fold(text: str) -> str:
    return unicodedata.normalize("NFKC", text)


_TRANSFORMS = {
    "Cyrillic-Latin": lambda t: _map_translit(_CYRL, t),
    "Greek-Latin": lambda t: _map_translit(_GREEK, t),
    "Katakana-Hiragana": _kata_to_hira,
    "Fullwidth-Halfwidth": _width_fold,
    "Any-Latin": lambda t: _map_translit(_GREEK, _map_translit(_CYRL, t)),
}


def transliterate(text: str, system: str) -> str:
    """ICUTransformFilter with a bundled system id."""
    try:
        return _TRANSFORMS[system](text)
    except KeyError:
        raise KeyError(f"unknown transform system: {system}") from None


# ---------------------------------------------------------------------------
# ICUTokenizer
# ---------------------------------------------------------------------------

class ICUTokenizer(Analyzer):
    """Script-run segmentation. Per run: UAX#29 for alphabetic
    scripts, Chinese dictionary-DAG for Han, Japanese lattice for
    Kana; Thai-family runs whole (no bundled dictionary). As an
    analyzer it emits the raw tokens, with no filter."""

    def __init__(self) -> None:
        self._zh = None
        self._ja = None

    def _zh_seg(self):
        if self._zh is None:
            from .chinese import ChineseTokenizer
            self._zh = ChineseTokenizer()
        return self._zh

    def _ja_seg(self):
        if self._ja is None:
            from .japanese import JapaneseTokenizer
            self._ja = JapaneseTokenizer()
        return self._ja

    def tokens(self, text: str) -> list[str]:
        return self.tokenize(text)

    def tokenize(self, text: str) -> list[str]:
        out: list[str] = []
        for start, end, script in script_runs(text):
            run = text[start:end]
            if not run.strip():
                continue
            if script == "Han":
                out.extend(self._zh_seg().segment(run))
            elif script in ("Hiragana", "Katakana"):
                out.extend(s for s, _, _ in self._ja_seg().segment(run))
            elif script in _WHOLE_RUN_SCRIPTS:
                # no bundled dictionary: emit maximal SCRIPT-char
                # subruns whole, but Common characters that attached to
                # the run (spaces, digits, punctuation) are boundaries —
                # a term with interior whitespace would be unsearchable.
                i = 0
                n = len(run)
                while i < n:
                    if script_of(run[i]) == script:
                        j = i
                        while j < n and script_of(run[j]) == script:
                            j += 1
                        out.append(run[i:j])
                    else:
                        j = i
                        while j < n and script_of(run[j]) != script:
                            j += 1
                        toks, _ = tokenize_with_positions(run[i:j])
                        out.extend(toks)
                    i = j
            else:
                toks, _ = tokenize_with_positions(run)
                out.extend(toks)
        return out


class ICUAnalyzer(VocabMapAnalyzer):
    """ICUTokenizer + optional Any-Latin transform + ICU folding —
    the module's chains composed end-to-end. ``mode``:

    - ``"folded"``: tokenizer + ICUFoldingFilter (accent/case/width)
    - ``"latin"``: tokenizer + ICUTransformFilter(Any-Latin) + folding
    - ``"normalized"``: tokenizer + ICUNormalizer2Filter (nfkc_cf)

    Segmentation stays per document (script runs are inherently
    sequential); the post-step maps each DISTINCT raw token once. Unlike
    the other vocabulary maps, positions compact over SURVIVING tokens:
    a token that folds to empty (e.g. a bare Thai vowel sign) leaves no
    gap."""

    def __init__(self, mode: str = "folded"):
        assert mode in ("folded", "latin", "normalized")
        self.name = "icu_" + mode
        self.mode = mode
        self.base = ICUTokenizer()

    def _post(self, t: str) -> str:
        if self.mode == "normalized":
            return nfkc_cf(t)
        if self.mode == "latin":
            t = _TRANSFORMS["Any-Latin"](t)
        return icu_fold(t)

    def _one(self, t: str) -> str | None:
        return self._post(t) or None

    def tokens_with_positions(self, text: str):
        toks = super().tokens_with_positions(text)[0]
        return toks, list(range(len(toks)))

    def tokens_batch_factorized(self, texts: list[str]):
        vocab, codes, doc_idx, _, starts, ends = \
            super().tokens_batch_factorized(texts)
        # doc_idx is nondecreasing: a token's position is its index
        # minus its document's first index
        positions = np.arange(doc_idx.size, dtype=np.int64) - \
            np.searchsorted(doc_idx, doc_idx)
        return vocab, codes, doc_idx, positions, starts, ends


register_analyzer("icu_tokenizer", ICUAnalyzer("normalized"))
register_analyzer("icu", ICUAnalyzer("latin"))
