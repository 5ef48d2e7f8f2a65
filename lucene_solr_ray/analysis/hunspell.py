"""Hunspell dictionary stemming: .aff/.dic parsing + affix-strip lookup.

Restates ``lucene/analysis/common/src/java/org/apache/lucene/analysis/
hunspell/Dictionary.java`` (affix-file parsing: SFX/PFX groups, strip /
append / condition / cross-product), ``Stemmer.java`` (lookup: the word
itself, suffix strips, prefix strips, and prefix+suffix cross-products,
each validated against the root's flags and the rule's condition) and
``HunspellStemFilter.java:60`` (emit all dictionary stems per token, or
only the longest with ``longestOnly``).

Supported .aff surface — the subset the reference's own test
dictionaries (``simple.aff``, ``compressed.aff``) exercise: ``SFX`` /
``PFX`` rule groups with char flags, ``0`` for empty strip/append,
regex-class conditions anchored at the root's end (SFX) or start (PFX),
continuation flags after ``/`` on the append (parsed, not expanded),
and graceful skip of directives this engine doesn't use (SET, TRY, REP,
ICONV, compounding). Everything is pure data — the parsed dictionary is
a plain picklable object, so one copy ships to each Ray actor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .analyzers import StandardAnalyzer, VocabMapAnalyzer, register_analyzer


@dataclass(frozen=True)
class Affix:
    flag: str
    strip: str
    add: str
    condition: str          # raw hunspell condition ("." = always)
    cross: bool

    def condition_ok(self, root: str, *, prefix: bool) -> bool:
        if self.condition == ".":
            return True
        pat = _cond_regex(self.condition)
        if prefix:
            return re.match(pat, root) is not None
        return re.search(pat + "$", root) is not None


def _cond_regex(cond: str) -> str:
    """Hunspell conditions are sequences of chars / [classes] /
    [^negated]; they are already regex-compatible for our subset."""
    return cond


class HunspellDictionary:
    """Parsed .aff + .dic: ``roots`` maps word -> flag set; ``suffixes``
    / ``prefixes`` are indexed by APPEND string for O(1) candidate
    lookup during stemming (Dictionary.java builds the same
    affix-by-append FST index)."""

    def __init__(self, aff_text: str, dic_text: str):
        self.suffixes: dict[str, list[Affix]] = {}
        self.prefixes: dict[str, list[Affix]] = {}
        self._parse_aff(aff_text)
        self.roots: dict[str, frozenset] = {}
        self._parse_dic(dic_text)

    # -- parsing ----------------------------------------------------------
    def _parse_aff(self, text: str) -> None:
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            parts = lines[i].split()
            i += 1
            if len(parts) >= 4 and parts[0] in ("SFX", "PFX") \
                    and parts[3].isdigit() and parts[2] in ("Y", "N"):
                kind, flag, cross, n = (parts[0], parts[1],
                                        parts[2] == "Y", int(parts[3]))
                for _ in range(n):
                    p = lines[i].split()
                    i += 1
                    strip = "" if p[2] == "0" else p[2]
                    add = "" if p[3] == "0" else p[3]
                    add = add.split("/", 1)[0]  # continuation flags
                    cond = p[4] if len(p) > 4 else "."
                    a = Affix(flag, strip, add, cond, cross)
                    tgt = self.suffixes if kind == "SFX" else self.prefixes
                    tgt.setdefault(add, []).append(a)

    def _parse_dic(self, text: str) -> None:
        lines = text.splitlines()
        start = 1 if lines and lines[0].strip().isdigit() else 0
        for ln in lines[start:]:
            ln = ln.split("\t", 1)[0].strip()
            if not ln or ln.startswith("#"):
                continue
            if "/" in ln:
                word, flags = ln.split("/", 1)
                self.roots[word] = frozenset(flags)
            else:
                self.roots[ln] = frozenset()

    # -- stemming (Stemmer.java doStem/applyAffix) -------------------------
    def _suffix_roots(self, word: str):
        """Yield (root, affix) for every suffix rule whose append
        matches the word's tail and whose condition holds on the
        restored root."""
        for alen in range(len(word) + 1):
            add = word[len(word) - alen:]
            for a in self.suffixes.get(add, ()):
                root = word[: len(word) - alen] + a.strip
                if root and a.condition_ok(root, prefix=False):
                    yield root, a

    def stems(self, word: str) -> list[str]:
        """All dictionary stems of ``word`` (order: whole word, suffix
        strips, prefix strips, cross-products; deduped)."""
        out: list[str] = []
        seen: set[str] = set()

        def emit(root: str):
            if root not in seen:
                seen.add(root)
                out.append(root)

        flags_of = self.roots.get
        if word in self.roots:
            emit(word)
        for root, a in self._suffix_roots(word):
            fl = flags_of(root)
            if fl is not None and a.flag in fl:
                emit(root)
        for alen in range(1, len(word)):
            add = word[:alen]
            for a in self.prefixes.get(add, ()):
                root = a.strip + word[alen:]
                if not root or not a.condition_ok(root, prefix=True):
                    continue
                fl = flags_of(root)
                if fl is not None and a.flag in fl:
                    emit(root)
                if a.cross:
                    # prefix+suffix cross-product: strip a suffix from
                    # the prefix-stripped form; both flags must be on
                    # the final root and both rules cross-capable
                    for root2, s in self._suffix_roots(root):
                        if not s.cross:
                            continue
                        fl2 = flags_of(root2)
                        if fl2 is not None and a.flag in fl2 \
                                and s.flag in fl2:
                            emit(root2)
        return out

    def longest_stem(self, word: str) -> str | None:
        st = self.stems(word)
        return max(st, key=len) if st else None


class HunspellAnalyzer(VocabMapAnalyzer):
    """StandardTokenizer + lowercase + hunspell longest-stem (the
    deterministic single-output mode of HunspellStemFilter's
    ``longestOnly``; tokens with no dictionary stem pass through, as in
    the filter)."""

    def __init__(self, name: str, dictionary: HunspellDictionary,
                 stop_words=frozenset()):
        self.name = name
        self.dict = dictionary
        self.base = StandardAnalyzer(stop_words=frozenset())
        self.stop_words = frozenset(stop_words)

    def _one(self, t: str) -> str | None:
        if t in self.stop_words:
            return None
        return self.dict.longest_stem(t) or t


def load_hunspell(aff_path: str, dic_path: str,
                  *, register_as: str | None = None) -> HunspellAnalyzer:
    with open(aff_path, encoding="utf-8") as f:
        aff = f.read()
    with open(dic_path, encoding="utf-8") as f:
        dic = f.read()
    an = HunspellAnalyzer(register_as or "hunspell",
                          HunspellDictionary(aff, dic))
    if register_as:
        register_analyzer(register_as, an)
    return an
