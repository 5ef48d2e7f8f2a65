"""CJK analysis chain + ICU-style folding.

Restates the reference CJK package
(``lucene/analysis/common/src/java/org/apache/lucene/analysis/cjk/``):

- :func:`cjk_width_fold` — ``CJKWidthFilter.java``: fullwidth ASCII
  variants fold to halfwidth (Ｆ→F, １→1), halfwidth Katakana folds to
  fullwidth (ｶ→カ) including voiced/semi-voiced mark composition
  (ﾊ+ﾞ→バ).
- :class:`CJKAnalyzer` — ``CJKAnalyzer.java`` createComponents:
  StandardTokenizer → CJKWidth → LowerCase → CJKBigram → StopFilter.
  ``CJKBigramFilter.java`` forms overlapping character bigrams across
  consecutive CJK tokens (Han singles, Hiragana singles, Katakana and
  Hangul runs all contribute their chars to one buffer; the buffer
  flushes at any non-CJK token or position gap). A lone CJK char emits
  as a unigram.
- :func:`icu_fold` — an approximation of ``ICUFoldingFilter.java``
  (UTR#30 foldings) from the stdlib: NFKC + casefold + NFKD
  diacritic strip + NFC. Covers case folding, width folding,
  compatibility forms (ﬁ→fi) and accent removal; it does NOT cover the
  handful of UTR#30 non-decomposable foldings (e.g. ø→o), which are
  listed in FOLD_EXTRAS below.
"""

from __future__ import annotations

import unicodedata

from .analyzers import (ENGLISH_STOP_WORDS, Analyzer, StandardAnalyzer,
                        VocabMapAnalyzer, register_analyzer)

# ---- CJKWidthFilter ------------------------------------------------------

_HALF_KATA = (
    "｡｢｣､･ｦｧｨｩｪｫｬｭｮｯｰｱｲｳｴｵｶｷｸｹｺｻｼｽｾｿﾀﾁﾂﾃﾄﾅﾆﾇﾈﾉﾊﾋﾌﾍﾎﾏﾐﾑﾒﾓﾔﾕﾖﾗﾘﾙﾚﾛﾜﾝ"
)
_FULL_KATA = (
    "。「」、・ヲァィゥェォャュョッーアイウエオカキクケコサシスセソタチツテトナニヌネノハヒフヘホマミムメモヤユヨラリルレロワン"
)
_WIDTH_MAP = {ord(h): f for h, f in zip(_HALF_KATA, _FULL_KATA)}
# fullwidth ASCII block FF01-FF5E -> 21-7E; ideographic space -> space
_WIDTH_MAP.update({c: chr(c - 0xFF01 + 0x21) for c in range(0xFF01, 0xFF5F)})
_WIDTH_MAP[0x3000] = " "

# halfwidth voiced (ﾞ) / semi-voiced (ﾟ) marks compose with the
# preceding folded Katakana (CJKWidthFilter.java:72-89)
_VOICED = {0xFF9E: 0x3099, 0xFF9F: 0x309A}


def cjk_width_fold(text: str) -> str:
    out = []
    for ch in text:
        cp = ord(ch)
        if cp in _VOICED and out:
            # compose: NFC of (previous char + combining mark)
            out[-1] = unicodedata.normalize(
                "NFC", out[-1] + chr(_VOICED[cp]))
            continue
        out.append(_WIDTH_MAP.get(cp, ch))
    return "".join(out)


# ---- CJK char classes (CJKBigramFilter HAN|HIRAGANA|KATAKANA|HANGUL) ----

def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return (
        0x4E00 <= cp <= 0x9FFF        # CJK Unified Ideographs
        or 0x3005 <= cp <= 0x3007     # 々〆〇 (Script=Han marks)
        or 0x3400 <= cp <= 0x4DBF     # Extension A
        or 0xF900 <= cp <= 0xFAFF     # Compatibility Ideographs
        or 0x3040 <= cp <= 0x309F     # Hiragana
        or 0x30A0 <= cp <= 0x30FF     # Katakana
        or 0x31F0 <= cp <= 0x31FF     # Katakana phonetic extensions
        or 0xAC00 <= cp <= 0xD7AF     # Hangul syllables
        or 0x1100 <= cp <= 0x11FF     # Hangul jamo
    )


def _token_is_cjk(tok: str) -> bool:
    return bool(tok) and all(_is_cjk(c) for c in tok)


def cjk_bigrams(tokens: list[str], positions: list[int]
                ) -> tuple[list[str], list[int]]:
    """CJKBigramFilter over a (token, position) stream: consecutive CJK
    tokens at consecutive positions pool their characters; the pool
    emits overlapping bigrams (one position step per bigram); a
    single-char pool emits the unigram. Non-CJK tokens pass through."""
    out_t: list[str] = []
    out_p: list[int] = []
    buf: list[str] = []
    buf_pos = 0

    def flush():
        nonlocal buf
        if not buf:
            return
        chars = "".join(buf)
        if len(chars) == 1:
            out_t.append(chars)
            out_p.append(buf_pos)
        else:
            for j in range(len(chars) - 1):
                out_t.append(chars[j:j + 2])
                out_p.append(buf_pos + j)
        buf = []

    prev_pos = None
    for tok, pos in zip(tokens, positions):
        if _token_is_cjk(tok):
            if buf and prev_pos is not None and pos != prev_pos + 1:
                flush()  # position gap (e.g. removed token) breaks runs
            if not buf:
                buf_pos = pos
            buf.append(tok)
            prev_pos = pos
        else:
            flush()
            out_t.append(tok)
            out_p.append(pos)
            prev_pos = pos
    flush()
    return out_t, out_p


class CJKAnalyzer(Analyzer):
    """CJKAnalyzer.java chain. Stop list: the reference ships an
    English-function-word list (stopwords.txt); bigrams never collide
    with it, so ENGLISH_STOP_WORDS gives the same behavior."""

    name = "cjk"

    def __init__(self, stop_words=ENGLISH_STOP_WORDS):
        self.base = StandardAnalyzer(stop_words=frozenset())
        self.stop_words = frozenset(stop_words)

    def tokens_with_positions(self, text: str):
        toks, pos = self.base.tokens_with_positions(cjk_width_fold(text))
        toks, pos = cjk_bigrams(toks, pos)
        out_t, out_p = [], []
        for t, p in zip(toks, pos):
            if t not in self.stop_words:
                out_t.append(t)
                out_p.append(p)
        return out_t, out_p

    def tokens(self, text: str) -> list[str]:
        return self.tokens_with_positions(text)[0]


# ---- ICU folding ---------------------------------------------------------

# UTR#30 foldings with no Unicode decomposition (ICUFoldingFilter's data
# file handles these; NFKD cannot)
FOLD_EXTRAS = str.maketrans({
    "ø": "o", "Ø": "o", "đ": "d", "Đ": "d", "ð": "d", "Ð": "d",
    "þ": "th", "Þ": "th", "ß": "ss", "æ": "ae", "Æ": "ae",
    "œ": "oe", "Œ": "oe", "ł": "l", "Ł": "l", "ħ": "h", "Ħ": "h",
})


def icu_fold(token: str) -> str:
    """NFKC case-fold + diacritic removal (ICUFoldingFilter analogue)."""
    s = unicodedata.normalize("NFKC", token).casefold()
    s = s.translate(FOLD_EXTRAS)
    s = unicodedata.normalize("NFKD", s)
    s = "".join(c for c in s if unicodedata.category(c) != "Mn")
    return unicodedata.normalize("NFC", s)


class ICUFoldingAnalyzer(VocabMapAnalyzer):
    """StandardTokenizer + ICU-style folding of every token."""

    name = "icu_folded"

    def __init__(self, stop_words=ENGLISH_STOP_WORDS):
        self.base = StandardAnalyzer(stop_words=frozenset())
        self.stop_words = frozenset(stop_words)

    def _one(self, t: str) -> str | None:
        f = icu_fold(t)
        return None if f in self.stop_words else f


register_analyzer("cjk", CJKAnalyzer())
register_analyzer("icu_folded", ICUFoldingAnalyzer())
