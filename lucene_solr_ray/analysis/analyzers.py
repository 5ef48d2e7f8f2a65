"""Analyzers: tokenizer + filter chains, mirroring the reference's Analyzer API.

- :class:`StandardAnalyzer` replicates the reference chain
  ``StandardTokenizer -> StandardFilter(no-op) -> LowerCaseFilter -> StopFilter``
  (``lucene/analysis/common/src/java/org/apache/lucene/analysis/standard/
  StandardAnalyzer.java:87-113``), including the 33-word English stop set
  (``core/StopAnalyzer.java:42-48``) and position-gap accounting for removed
  stopwords (``core/StopFilter.java:31``, ``util/FilteringTokenFilter.java:50-58``).

- :class:`SimpleRegexAnalyzer` is the SQL-oracle-matchable analyzer: lowercase
  + split on ``[^a-z0-9]+`` + stop set — the ``LetterOrDigitTokenizer`` family
  (``core/LowerCaseTokenizer``-style, ``lucene/analysis/common/.../core/``).
  Its output is reproducible in DuckDB with ``string_split_regex``, which is
  what the driver's correctness oracle runs.

- :class:`WhitespaceAnalyzer` mirrors ``core/WhitespaceAnalyzer.java``.

- :class:`VocabMapAnalyzer` is a base analyzer plus a per-token map (a
  stemmer, a folding, a stop list); the English, folding, Snowball,
  Turkish, Hunspell, ICU-folding and ICU analyzers are all this one
  shape.

A batch of documents is analysed as ONE token stream,
``tokens_batch_factorized(texts) -> (vocab, codes, doc_idx, positions,
starts, ends)`` (the analogue of Lucene's attribute-based ``TokenStream``:
a term, a position and an offset per token, the terms kept as codes into
a duplicate-free batch vocabulary). ``index.build._invert`` consumes it
for every index build; ``tokens_batch`` is its string view
``vocab[codes]``. The StandardAnalyzer produces it with one vectorized
ASCII pass (``fast.ascii_tokens``) over its ASCII docs and one over its
non-ASCII docs, whose non-ASCII words alone go through the regex
tokenizer, and applies its stop filter to the Arrow vocabulary; a
VocabMapAnalyzer maps the base stream's vocabulary once. Any other
analyzer gets the stream by factorizing its ``tokens_batch``, without
char spans.

Analyzers are stateless after construction (compiled patterns, frozen stop
set); construct once per worker (module-level registry) — the Ray analogue of
``Analyzer.ReuseStrategy`` (``lucene/core/.../analysis/Analyzer.java:72-96``).

``field length`` for norms = number of tokens the full chain *emits* (stop
words and over-long tokens excluded) minus overlap tokens; with these chains
no filter emits posIncr==0 so numOverlap==0
(``index/DefaultIndexingChain.java:621-645``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import fast
from .fast import factorize_tokens
from .tokenizer import (
    DEFAULT_MAX_TOKEN_LENGTH,
    _build_pattern,
    simple_lowercase,
    simple_lowercase_codepoints,
    tokenize,
    tokenize_with_positions,
)

# StopAnalyzer.ENGLISH_STOP_WORDS_SET (core/StopAnalyzer.java:42-48)
ENGLISH_STOP_WORDS = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split()
)


class Analyzer:
    """Base: subclasses implement tokens(text) and tokens_with_positions(text).

    A batch of documents is analysed as one token stream,
    :meth:`tokens_batch_factorized` (the shape is described in
    ``fast.py``); :meth:`tokens_batch` is its string view."""

    name = "base"

    def tokens(self, text: str) -> list[str]:
        raise NotImplementedError

    def tokens_with_positions(self, text: str) -> tuple[list[str], list[int]]:
        # default: no position gaps beyond token order
        toks = self.tokens(text)
        return toks, list(range(len(toks)))

    def __call__(self, text: str) -> list[str]:
        return self.tokens(text)

    def tokens_batch(
        self, texts: list[str]
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Batch tokenize: returns (tokens, doc_idx:int64, positions:int64).

        Default implementation loops docs; analyzers with a native
        stream return its string view instead. Positions include gaps
        for tokens removed by the chain (stop words / over-long),
        mirroring posIncr accumulation (``core/StopFilter.java:31``,
        ``StandardTokenizer.java:158``).
        """
        all_t: list[str] = []
        all_d: list[np.ndarray] = []
        all_p: list[np.ndarray] = []
        for i, text in enumerate(texts):
            t, p = self.tokens_with_positions(text)
            all_t.extend(t)
            all_d.append(np.full(len(t), i, dtype=np.int64))
            all_p.append(np.asarray(p, dtype=np.int64))
        if all_d:
            return all_t, np.concatenate(all_d), np.concatenate(all_p)
        z = np.empty(0, np.int64)
        return all_t, z, z

    def tokens_batch_factorized(self, texts: list[str]):
        """The token stream ``(vocab, codes, doc_idx, positions, starts,
        ends)``. Default: :meth:`tokens_batch` factorized, without
        spans (``starts``/``ends`` None)."""
        tokens, doc_idx, positions = self.tokens_batch(texts)
        vocab, codes = factorize_tokens(tokens)
        return vocab, codes, doc_idx, positions, None, None


def _strings(stream) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A token stream's string view ``(tokens, doc_idx, positions)``."""
    vocab, codes, doc_idx, positions = stream[:4]
    return np.asarray(vocab, dtype=object)[codes].tolist(), doc_idx, \
        positions


def _recode(stream, vocab: list[str], remap: np.ndarray):
    """``stream`` with each code c replaced by ``remap[c]``, an index
    into the new ``vocab``; tokens whose code maps to -1 are dropped and
    leave their positions as gaps (``FilteringTokenFilter``)."""
    _, codes, *cols = stream
    codes = remap[codes]
    keep = codes >= 0
    if not keep.all():
        codes = codes[keep]
        cols = [c if c is None else c[keep] for c in cols]
    return (vocab, codes, *cols)


class StandardAnalyzer(Analyzer):
    """The reference default chain (StandardAnalyzer.java:87-113).

    Its batch stream tokenizes ASCII text with the vectorized mask pass
    (``fast.py``) and sends only the runs free of ASCII whitespace that
    hold a non-ASCII char through the regex tokenizer: no token spans
    ASCII whitespace, so such a run scanned alone yields the tokens the
    per-document path finds in it (:func:`_non_ascii_tokens`)."""

    name = "standard"

    def __init__(self, stop_words=ENGLISH_STOP_WORDS,
                 max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH):
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.max_token_length = max_token_length
        self._stop_set = pa.array(sorted(self.stop_words),
                                  pa.large_string()) if stop_words else None

    def tokens(self, text: str) -> list[str]:
        # lowercase first: 1:1 simple mapping never changes WB classes, so
        # lower->tokenize == tokenize->lower (the reference order) but cheaper.
        toks = tokenize(simple_lowercase(text), self.max_token_length)
        stop = self.stop_words
        return [t for t in toks if t not in stop]

    def tokens_with_positions(self, text: str) -> tuple[list[str], list[int]]:
        toks, pos = tokenize_with_positions(
            simple_lowercase(text), self.max_token_length
        )
        stop = self.stop_words
        out_t, out_p = [], []
        for t, p in zip(toks, pos):
            if t not in stop:
                out_t.append(t)
                out_p.append(p)
        return out_t, out_p

    def tokens_batch(self, texts: list[str]):
        return _strings(self.tokens_batch_factorized(texts))

    def tokens_batch_factorized(self, texts: list[str]):
        """The token stream, with char spans into the original texts (the
        1:1 simple lowercase preserves offsets). ASCII docs go through
        one vectorized pass (``fast.ascii_tokens``); the non-ASCII docs
        follow them (:func:`_non_ascii_tokens`), so each doc's run stays
        contiguous with ascending positions. The stop filter runs on the
        Arrow dictionary before the vocabulary becomes Python strings."""
        is_ascii = np.fromiter(map(str.isascii, texts), bool,
                               count=len(texts))
        ascii_ids = np.flatnonzero(is_ascii)
        n = self.max_token_length
        lowered = [texts[i].lower() for i in ascii_ids]
        doc_starts = fast.doc_starts_of(lowered)
        tokens, doc_idx, positions, starts, ends = fast.ascii_tokens(
            np.frombuffer("\n".join(lowered).encode("ascii"), np.uint8),
            doc_starts, n)
        base = doc_starts[doc_idx]
        starts, ends = starts - base, ends - base
        if ascii_ids.size < len(texts):
            other = np.flatnonzero(~is_ascii)
            o_tok, *o_cols = _non_ascii_tokens([texts[i] for i in other], n)
            doc_idx = ascii_ids[doc_idx]
            o_cols[0] = other[o_cols[0]]
            tokens = pa.concat_arrays([tokens, o_tok])
            doc_idx, positions, starts, ends = (
                np.concatenate(c) for c in zip(
                    (doc_idx, positions, starts, ends), o_cols))
        enc = pc.dictionary_encode(tokens)
        dictionary = enc.dictionary
        codes = enc.indices.to_numpy().astype(np.int64)
        remap = None
        if self._stop_set is not None:
            keep = pc.invert(pc.is_in(dictionary, value_set=self._stop_set))
            if keep.false_count:
                dictionary = dictionary.filter(keep)
                keep = keep.to_numpy(zero_copy_only=False)
                remap = np.where(keep, np.cumsum(keep) - 1, -1)
        stream = (fast.string_list(dictionary), codes, doc_idx, positions,
                  starts, ends)
        return stream if remap is None else _recode(stream, stream[0], remap)


def _non_ascii_tokens(texts: list[str], max_token_length: int):
    """``(tokens, doc_idx, positions, starts, ends)`` of texts that are
    not all ASCII, lowercased per codepoint: ``tokens`` is an Arrow
    string array and the spans are char offsets into each text.

    Only the maximal runs free of ASCII whitespace that hold a non-ASCII
    char go through the regex tokenizer. ASCII whitespace is in no token
    class, so no token spans it, and no pattern starts with an Extend or
    Format char, so whatever follows the whitespace (a combining mark
    included) is scanned alike whether the scan starts at the run or
    earlier in the text: a scan of the run alone finds exactly the
    tokens a scan of the whole text finds in it. Every other char goes
    through one ASCII pass over all the texts, with those runs blanked
    to spaces of equal length so that char offsets hold, and no length
    cap; the ASCII pass equals the regex on ASCII text. The two token
    sets are merged by start, positions are counted over both, and then
    over-long tokens are dropped."""
    doc_starts = fast.doc_starts_of(texts)
    cp = simple_lowercase_codepoints(np.frombuffer(
        "\n".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32))
    text = cp.tobytes().decode("utf-32-le", "surrogatepass")
    # the runs around each non-ASCII char: from just after the ASCII
    # whitespace before it to the one after it
    ws = np.flatnonzero((cp == 32) | (cp - 9 < 5))
    k = np.searchsorted(ws, np.flatnonzero(cp > 127))
    lo = np.unique(np.append(-1, ws)[k] + 1)
    hi = np.append(ws, cp.size)[np.searchsorted(ws, lo)]
    b = cp.astype(np.uint8)
    b[fast.run_index(lo, hi)] = ord(" ")
    m, starts, ends = fast.token_runs(b)
    tokens = fast.gather_tokens(b, m, starts, ends)
    r_tok: list[str] = []
    r_span: list[int] = []
    finditer = _build_pattern().finditer
    for a, z in zip(lo.tolist(), hi.tolist()):
        for mt in finditer(text, a, z):
            r_tok.append(mt.group())
            r_span.extend(mt.span())
    if r_tok:
        r_span = np.asarray(r_span, np.int64)
        starts = np.concatenate([starts, r_span[0::2]])
        ends = np.concatenate([ends, r_span[1::2]])
        order = np.argsort(starts, kind="stable")
        starts, ends = starts[order], ends[order]
        tokens = pa.concat_arrays(
            [tokens, pa.array(r_tok, pa.large_string())]).take(order)
    doc_idx, positions = fast.doc_positions(starts, doc_starts)
    ok = (ends - starts) <= max_token_length
    if not ok.all():
        tokens = tokens.filter(pa.array(ok))
        starts, ends = starts[ok], ends[ok]
        doc_idx, positions = doc_idx[ok], positions[ok]
    base = doc_starts[doc_idx]
    return tokens, doc_idx, positions, starts - base, ends - base


class VocabMapAnalyzer(Analyzer):
    """A base analyzer followed by a per-token map (stemmer, folding,
    elision, stop filter): :meth:`_one` maps a token to its term, or to
    None to drop it (its position stays a gap). The batch stream maps
    each DISTINCT token of the base stream once, so the cost scales with
    the batch vocabulary, not the token stream; tokens that map to one
    term ("running", "runs" -> "run") share one code. Subclasses keep
    their base analyzer in ``self.base``."""

    def _one(self, t: str) -> str | None:
        raise NotImplementedError

    def tokens(self, text: str) -> list[str]:
        return self.tokens_with_positions(text)[0]

    def tokens_with_positions(self, text: str):
        toks, pos = self.base.tokens_with_positions(text)
        out_t, out_p = [], []
        for t, p in zip(toks, pos):
            s = self._one(t)
            if s is not None:
                out_t.append(s)
                out_p.append(p)
        return out_t, out_p

    def tokens_batch(self, texts: list[str]):
        return _strings(self.tokens_batch_factorized(texts))

    def tokens_batch_factorized(self, texts: list[str]):
        stream = self.base.tokens_batch_factorized(texts)
        mapped = [self._one(t) for t in stream[0]]
        kept = [i for i, m in enumerate(mapped) if m is not None]
        vocab, codes = factorize_tokens([mapped[i] for i in kept])
        remap = np.full(len(mapped), -1, np.int64)
        remap[kept] = codes
        return _recode(stream, vocab, remap)


class SimpleRegexAnalyzer(Analyzer):
    """lowercase + split [^a-z0-9]+ + stop filter; DuckDB-reproducible."""

    name = "simple"
    _split = re.compile(r"[^a-z0-9]+")

    def __init__(self, stop_words=ENGLISH_STOP_WORDS,
                 max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH):
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.max_token_length = max_token_length

    def tokens(self, text: str) -> list[str]:
        stop = self.stop_words
        n = self.max_token_length
        return [t for t in self._split.split(text.lower())
                if t and len(t) <= n and t not in stop]

    def sql_tokens_cte(self, table: str = "documents", text_col: str = "text",
                       id_col: str = "doc_id") -> str:
        """DuckDB CTE body producing (doc_id, term) identical to tokens()."""
        stop_list = ", ".join(f"'{w}'" for w in sorted(self.stop_words))
        return (
            f"SELECT {id_col} AS doc_id, t AS term "
            f"FROM (SELECT {id_col}, unnest(string_split_regex(lower({text_col}), "
            f"'[^a-z0-9]+')) AS t FROM {table}) "
            f"WHERE t <> '' AND length(t) <= {self.max_token_length}"
            + (f" AND t NOT IN ({stop_list})" if stop_list else "")
        )


class WhitespaceAnalyzer(Analyzer):
    name = "whitespace"
    _split = re.compile(r"\s+")

    def tokens(self, text: str) -> list[str]:
        return [t for t in self._split.split(text) if t]


_REGISTRY: dict[str, Analyzer] = {}


def get_analyzer(name: str) -> Analyzer:
    """Per-process analyzer cache (the Analyzer.ReuseStrategy analogue)."""
    if name not in _REGISTRY:
        if name == "standard":
            _REGISTRY[name] = StandardAnalyzer()
        elif name == "standard_nostop":
            _REGISTRY[name] = StandardAnalyzer(stop_words=())
        elif name == "simple":
            _REGISTRY[name] = SimpleRegexAnalyzer()
        elif name == "simple_nostop":
            _REGISTRY[name] = SimpleRegexAnalyzer(stop_words=())
        elif name == "whitespace":
            _REGISTRY[name] = WhitespaceAnalyzer()
        elif name == "ngram":
            _REGISTRY[name] = NGramAnalyzer()
        elif name == "edge_ngram":
            _REGISTRY[name] = EdgeNGramAnalyzer()
        elif name == "shingle":
            _REGISTRY[name] = ShingleAnalyzer()
        elif name == "common_grams":
            _REGISTRY[name] = CommonGramsAnalyzer()
        else:
            from . import filters  # noqa: F401  registers english/code
            from . import snowball  # noqa: F401  registers de/fr/es
            from . import cjk  # noqa: F401  registers cjk/icu_folded
            from . import light  # noqa: F401  registers ar/fa/cs/hi
            from . import phonetic  # noqa: F401  registers phonetic
            from . import phonetic2  # noqa: F401  registers phonetic_*
            from . import light2  # noqa: F401  registers el/ro/ca
            from . import urlemail  # noqa: F401  registers url_email
            from . import japanese  # noqa: F401  registers ja_morph
            from . import chinese  # noqa: F401  registers zh_smart
            from . import icu  # noqa: F401  registers icu / icu_tokenizer
            from . import polish  # noqa: F401  registers polish / polish_light

            if name not in _REGISTRY:
                raise KeyError(f"unknown analyzer: {name}")
    return _REGISTRY[name]


def register_analyzer(name: str, analyzer: Analyzer) -> None:
    """Extension hook — the TokenizerFactory/AnalyzerFactory SPI analogue
    (``lucene/analysis/common/.../util/TokenizerFactory.java``)."""
    _REGISTRY[name] = analyzer


class NGramAnalyzer(Analyzer):
    """Character n-grams per token (``lucene/analysis/common/.../ngram/
    NGramTokenFilter.java``): grams of length [min_gram, max_gram] emitted
    in order per source token (used for substring/fuzzy-ish matching)."""

    name = "ngram"

    def __init__(self, min_gram: int = 2, max_gram: int = 3,
                 base: str = "simple_nostop"):
        self.min_gram = min_gram
        self.max_gram = max_gram
        self.base = get_analyzer(base)

    def tokens(self, text: str) -> list[str]:
        out = []
        for tok in self.base.tokens(text):
            for n in range(self.min_gram, self.max_gram + 1):
                for i in range(len(tok) - n + 1):
                    out.append(tok[i : i + n])
        return out


class EdgeNGramAnalyzer(Analyzer):
    """Leading-edge character n-grams per token (``lucene/analysis/common/
    .../ngram/EdgeNGramTokenFilter.java``) — the autocomplete/search-as-
    you-type staple: "search" -> se, sea, sear (min..max)."""

    name = "edge_ngram"

    def __init__(self, min_gram: int = 2, max_gram: int = 10,
                 base: str = "standard", keep_full: bool = True):
        self.min_gram = min_gram
        self.max_gram = max_gram
        self.keep_full = keep_full
        self.base = get_analyzer(base)

    def tokens(self, text: str) -> list[str]:
        out = []
        for tok in self.base.tokens(text):
            hi = min(self.max_gram, len(tok))
            for n in range(self.min_gram, hi + 1):
                out.append(tok[:n])
            if self.keep_full and len(tok) > self.max_gram:
                out.append(tok)
            elif len(tok) < self.min_gram:
                out.append(tok)
        return out


class ShingleAnalyzer(Analyzer):
    """Word shingles (``lucene/analysis/common/.../shingle/
    ShingleFilter.java``): token n-grams joined by a separator; unigrams
    optionally kept (outputUnigrams)."""

    name = "shingle"

    def __init__(self, shingle_size: int = 2, output_unigrams: bool = True,
                 sep: str = " ", base: str = "standard"):
        self.shingle_size = shingle_size
        self.output_unigrams = output_unigrams
        self.sep = sep
        self.base = get_analyzer(base)

    def tokens(self, text: str) -> list[str]:
        toks = self.base.tokens(text)
        out = list(toks) if self.output_unigrams else []
        n = self.shingle_size
        for i in range(len(toks) - n + 1):
            out.append(self.sep.join(toks[i : i + n]))
        return out


class CommonGramsAnalyzer(Analyzer):
    """CommonGramsFilter (``lucene/analysis/common/.../commongrams/
    CommonGramsFilter.java:63-88``): alongside every unigram, emit a
    bigram ``a_b`` for each adjacent pair where either side is a common
    word, so phrase queries on stop-heavy phrases ("to be or not to be")
    hit pre-joined grams instead of huge stopword postings. Grams overlap
    the FIRST token of the pair (posIncr 0 on the gram), matching the
    reference's position handling. Index-side variant (unigrams + grams);
    the query-side CommonGramsQueryFilter drop-unigram behavior is the
    ``output_unigrams=False`` flag."""

    name = "common_grams"

    def __init__(self, common_words=ENGLISH_STOP_WORDS, sep: str = "_",
                 output_unigrams: bool = True, base: str = "standard_nostop"):
        self.common = frozenset(common_words)
        self.sep = sep
        self.output_unigrams = output_unigrams
        self.base = get_analyzer(base)

    def tokens(self, text: str) -> list[str]:
        return self.tokens_with_positions(text)[0]

    def tokens_with_positions(self, text: str) -> tuple[list[str], list[int]]:
        toks, pos = self.base.tokens_with_positions(text)
        out: list[str] = []
        opos: list[int] = []
        common = self.common
        for i, t in enumerate(toks):
            if self.output_unigrams:
                out.append(t)
                opos.append(pos[i])
            if i + 1 < len(toks) and (t in common or toks[i + 1] in common):
                out.append(t + self.sep + toks[i + 1])
                opos.append(pos[i])
        return out, opos
