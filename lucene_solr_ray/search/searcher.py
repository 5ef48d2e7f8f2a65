"""IndexSearcher: BM25 query execution over a built index.

The single-process scoring core (used standalone at small scale, and as the
per-shard worker inside scorer actor pools — SURVEY.md §3.2). Execution
mirrors the reference contract Query -> Weight (per-searcher stats) ->
vectorized scorer -> top-k collector:

- per-term scoring: ``search/TermQuery.java:41-95`` + ``TermScorer.java:69-71``
  with BM25 float32 op order (bm25.py)
- BooleanQuery: sorted-doc-array intersection/union with float64 clause-sum
  cast to float32 (``ConjunctionScorer``/``DisjunctionSumScorer`` accumulate
  double, return float — ``search/DisjunctionSumScorer.java``)
- MUST_NOT: mask (``ReqExclScorer.java``); FILTER: non-scoring conjunction
- minimumNumberShouldMatch (``MinShouldMatchSumScorer.java``)
- multi-term queries rewrite against the term dictionary to a constant-score
  union, the 5.2 default CONSTANT_SCORE rewrite (``MultiTermQuery.java:66-76``)
- top-k ties and searchAfter per topk.py (HitQueue/TopDocs semantics)

``precise=True`` scores in float64 on exact lengths (SQL-oracle mode, see
bm25.py).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa

from ..index.build import IndexManifest
from . import bm25
from .query import (
    BooleanQuery,
    ConstantScoreQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from .readers import MergedReader, NormsReader, SegmentsReader
from .topk import top_k


def _wildcard_to_regex(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


# ReversedWildcardAnalyzer's marker (analysis/misc.py REVERSE_MARKER;
# the reference's ReverseStringFilter START_OF_HEADING_MARKER)
_REV_MARKER = "\u0001"


def _levenshtein_within(a: str, b: str, k: int) -> bool:
    if abs(len(a) - len(b)) > k:
        return False
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        lo = len(b) + 1
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            lo = min(lo, cur[j])
        if lo > k:
            return False
        prev = cur
    return prev[-1] <= k


def fuzzy_candidates(reader, qterm: str, k: int,
                     transpositions: bool = False) -> tuple[list[str], int]:
    """Fuzzy-term expansion via Levenshtein-DFA ∩ sorted term dict —
    the reference's complexity class (``FuzzyQuery.java:66-76`` rewrites
    to ``LevenshteinAutomata``; ``IntersectTermsEnum`` leapfrogs the DFA
    against BlockTree): dictionary probes are O(matches + automaton
    boundary crossings), independent of vocabulary size.

    ``transpositions=True`` switches to the OSA automaton
    (``FuzzyQuery.java``'s default language); plain Levenshtein stays
    the default here to match this engine's historical semantics.

    Returns (matching terms, number of dictionary probes). Output is
    property-tested identical to :func:`fuzzy_candidates_scan`.
    """
    from .levenshtein import (DamerauLevenshteinDFA, LevenshteinDFA,
                              intersect_sorted)

    cls = DamerauLevenshteinDFA if transpositions else LevenshteinDFA
    return intersect_sorted(cls(qterm, k), reader.unique_terms())


def fuzzy_candidates_scan(reader, qterm: str, k: int) -> tuple[list[str], int]:
    """Pruned linear fuzzy-term expansion (the pre-automaton path, kept
    as the brute-force oracle for the DFA equivalence tests) — the
    LevenshteinAutomata role
    (``util/automaton/LevenshteinAutomata.java``: restrict the dictionary
    walk to terms that can be within k edits) done with two exact lower
    bounds instead of a DFA intersection:

    1. length band: ``|len(t) - len(q)| <= k``;
    2. character-multiset bound: ``max(len_t, len_q) - |multiset(t) ∩
       multiset(q)| <= k`` (every unmatched character costs an edit).

    Both are necessary conditions, so output is IDENTICAL to the full
    O(V) scan; only the survivors run the DP. The per-term (length,
    char-histogram) table is built once per reader and cached.

    Returns (matching terms, number of DP evaluations performed).
    """
    u = reader.unique_terms()
    aux = getattr(reader, "_fuzzy_aux", None)
    if aux is None:
        lens = np.fromiter((len(t) for t in u), np.int32, count=u.size)
        joined = "".join(u).encode("utf-8", "surrogatepass")
        flat = np.frombuffer(joined, np.uint8)
        # byte lengths may differ from char lengths for non-ASCII; bucket
        # bytes (still a valid lower bound: shared bytes >= shared chars
        # is NOT guaranteed for multi-byte chars, so only apply the
        # histogram bound to pure-ASCII terms)
        blens = np.fromiter(
            (len(t.encode("utf-8", "surrogatepass")) for t in u),
            np.int64, count=u.size)
        is_ascii = blens == lens
        codes = np.full(flat.size, 36, np.int64)
        m = (flat >= 97) & (flat <= 122)
        codes[m] = flat[m] - 97
        m = (flat >= 48) & (flat <= 57)
        codes[m] = flat[m] - 48 + 26
        term_idx = np.repeat(np.arange(u.size, dtype=np.int64), blens)
        counts = np.zeros((u.size, 37), np.uint16)
        np.add.at(counts.reshape(-1), term_idx * 37 + codes, 1)
        aux = reader._fuzzy_aux = (lens, counts, is_ascii)
    lens, counts, is_ascii = aux
    lq = len(qterm)
    mask = np.abs(lens - lq) <= k
    qb = qterm.encode("utf-8", "surrogatepass")
    if len(qb) == lq:  # ASCII query: histogram bound applies
        qf = np.frombuffer(qb, np.uint8)
        qcodes = np.full(qf.size, 36, np.int64)
        m = (qf >= 97) & (qf <= 122)
        qcodes[m] = qf[m] - 97
        m = (qf >= 48) & (qf <= 57)
        qcodes[m] = qf[m] - 48 + 26
        qcount = np.bincount(qcodes, minlength=37).astype(np.uint16)
        inter = np.minimum(counts, qcount[None, :]).sum(
            axis=1).astype(np.int64)
        bound = np.maximum(lens, lq) - inter
        mask &= (~is_ascii) | (bound <= k)
    cands = u[mask]
    out = [t for t in cands
           if _levenshtein_within(qterm, t, k)]
    return out, int(cands.size)


def _sloppy_freq(lookups, ci: int, slop: int) -> float:
    """Sloppy phrase matching (``search/SloppyPhraseScorer.java`` family /
    the classic window-merge algorithm): offset-adjusted positions per term;
    advance the minimum cursor; each window with span <= slop contributes
    ``1/(1+span)`` (``BM25Similarity.sloppyFreq``, BM25Similarity.java:70-72).
    Repeated-term interaction is simplified vs the reference (documented)."""
    adj = []
    for off, (idx, cum, pos) in enumerate(lookups):
        j = int(idx[ci])
        p = np.cumsum(pos[cum[j]:cum[j + 1]].astype(np.int64)) - off
        adj.append(p)
    ptr = [0] * len(adj)
    freq = 0.0
    while True:
        cur = [a[p] for a, p in zip(adj, ptr)]
        mn = min(cur)
        mx = max(cur)
        if mx - mn <= slop:
            freq += 1.0 / (1 + (mx - mn))
        mi = cur.index(mn)
        ptr[mi] += 1
        if ptr[mi] >= adj[mi].size:
            return freq


def _sloppy_freq2_flat(searcher, cand, datas, slop: int) -> np.ndarray:
    """Vectorized 2-term sloppy phrase frequency, EXACTLY equal to the
    :func:`_sloppy_freq` cursor walk (property-tested).

    Derivation: the walk consumes elements of the two offset-adjusted
    position lists A, B in merged order (ties consume A first), pairing
    each consumed element with the other list's current head. Therefore

        freq = sum_{a in A, a <= max(B)} f(succ_B>=(a) - a)
             + sum_{b in B, b <  max(A)} f(succ_A>(b) - b)

    with ``f(d) = 1/(1+|d|) if |d| <= slop else 0`` — successor lookups,
    which one searchsorted per direction computes for ALL candidates at
    once over disjoint (candidate, position) int64 key spaces."""
    sides = []
    max_pos = 1
    for off, (docs, tfs, pos) in enumerate(datas):
        ci, p_abs = IndexSearcher._gather_runs(cand, docs, tfs, pos)
        p = p_abs - off
        sides.append((ci, p))
        if p.size:
            max_pos = max(max_pos, int(p.max()) + 2)
    stride = np.int64(2 * max_pos + 4)
    base = np.int64(max_pos + 1)  # keep keys positive after the -off shift
    (ci_a, pa), (ci_b, pb) = sides
    ka = ci_a * stride + pa + base
    kb = ci_b * stride + pb + base
    # per-candidate max of each side (runs are contiguous per candidate)
    n = cand.size
    max_b = np.full(n, -np.inf)
    np.maximum.at(max_b, ci_b, pb.astype(np.float64))
    max_a = np.full(n, -np.inf)
    np.maximum.at(max_a, ci_a, pa.astype(np.float64))
    freqs = np.zeros(n, np.float64)

    def f_add(src_ci, spans, ok):
        w = np.zeros(spans.size, np.float64)
        m = ok & (np.abs(spans) <= slop)
        w[m] = 1.0 / (1.0 + np.abs(spans[m]))
        np.add.at(freqs, src_ci[m], w[m])

    # A side: successor in B with key >= ka (same candidate)
    pos_b = np.searchsorted(kb, ka, side="left")
    okA = pos_b < kb.size
    safe = np.minimum(pos_b, kb.size - 1)
    okA &= ci_b[safe] == ci_a
    okA &= pa <= max_b[ci_a]
    f_add(ci_a, np.where(okA, kb[safe] - ka, 0), okA)
    # B side: successor in A with key > kb (strict: ties consumed A first)
    pos_a = np.searchsorted(ka, kb, side="right")
    okB = pos_a < ka.size
    safe = np.minimum(pos_a, ka.size - 1)
    okB &= ci_a[safe] == ci_b
    okB &= pb < max_a[ci_b]
    f_add(ci_b, np.where(okB, ka[safe] - kb, 0), okB)
    return freqs


class IndexSearcher:
    def __init__(self, index_dir: str, precise: bool = False, *,
                 reader=None, norms=None, global_stats: dict | None = None,
                 apply_deletes: bool = True, similarity=None,
                 k1: float | None = None, b: float | None = None,
                 bloom: bool = False, prev: "IndexSearcher | None" = None):
        """``global_stats`` (optional): {"max_doc", "sum_ttf", "df": {term:
        df}} — injected by the doc-sharded distributed path so every shard
        scores with GLOBAL collection statistics (exactly what a single
        Lucene index's Weight would see; Solr's distributed-IDF problem
        solved by a stats pre-pass instead of per-shard stats).

        ``prev`` (optional): the searcher this one replaces; its norms
        and merged reader are reused for the files that did not change
        (``NormsReader`` / ``MergedReader``), with results identical to
        a fresh open."""
        self.manifest = IndexManifest.load(index_dir)
        self._stats = global_stats
        if global_stats is not None:
            self.max_doc = int(global_stats["max_doc"])
            sum_ttf = int(global_stats["sum_ttf"])
            self.avgdl = (
                float(np.float32(sum_ttf / float(self.max_doc)))
                if sum_ttf > 0 else 1.0
            )
        else:
            self.max_doc = self.manifest.max_doc
            self.avgdl = self.manifest.avgdl
        self.norms = norms if norms is not None else NormsReader(
            index_dir, self.manifest.max_doc, prev=getattr(prev, "norms", None)
        )
        from .readers import _LRU

        self._result_cache = _LRU(256)
        self._rev_wildcard: bool | None = None  # lazily probed
        self.live_docs = None
        if apply_deletes:
            import os as _os

            if _os.path.isdir(_os.path.join(index_dir, "deletes")):
                from ..index.deletes import LiveDocs

                self.live_docs = LiveDocs(index_dir, self.manifest.max_doc)
        if reader is not None:
            self.reader = reader
        elif self.manifest.merged and os.path.isdir(
            os.path.join(index_dir, "merged")
        ):
            self.reader = MergedReader(index_dir,
                                       prev=getattr(prev, "reader", None))
        else:
            self.reader = SegmentsReader(index_dir)
        if bloom:
            from ..codec.bloom import ensure_bloom

            ensure_bloom(index_dir, self.reader)
        else:
            # an existing sidecar attaches automatically (results are
            # identical; only the miss path gets cheaper) so serving
            # actor pools benefit without plumbing a flag through
            from ..codec.bloom import read_bloom

            fs = read_bloom(index_dir)
            if fs is not None:
                self.reader.attach_bloom(fs)
        # Similarity extension point (IndexSearcher.setSimilarity): None =
        # the bit-faithful BM25 default; e.g. similarities.ClassicSimilarity
        self.similarity = similarity
        # BM25Similarity(k1, b) tuning; defaults keep the reference
        # constants (and therefore bit-identical default scoring)
        self._k1 = bm25.K1 if k1 is None else float(k1)
        self._b = bm25.B if b is None else float(b)
        self.precise = precise
        self._autoprefix_reader = False  # False = unprobed, None = absent
        if precise:
            # float64 avgdl without the float32 cast, exact lengths
            sum_ttf = (
                int(self._stats["sum_ttf"]) if self._stats is not None
                else self.manifest.sum_total_term_freq
            )
            self.avgdl_precise = (
                sum_ttf / float(self.max_doc) if sum_ttf > 0 else 1.0
            )
        else:
            self._cache = bm25.norm_cache(self.avgdl, k1=self._k1, b=self._b)

    def _autoprefix(self):
        """Lazily open the auto-prefix sidecar if the index has one."""
        if self._autoprefix_reader is False:
            from ..index.autoprefix import (
                AutoPrefixReader,
                has_autoprefix,
                is_stale,
            )

            idx = self.manifest.index_dir
            self._autoprefix_reader = (
                AutoPrefixReader(idx)
                if has_autoprefix(idx) and not is_stale(idx) else None
            )
        return self._autoprefix_reader

    # ---- stats (CollectionStatistics / TermStatistics analogues) ----
    def doc_freq(self, term: str) -> int:
        if self._stats is not None and "df" in self._stats:
            return int(self._stats["df"].get(term, 0))
        return self.reader.doc_freqs([term])[term]

    # ---- scoring ----
    def _score_term(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        docs, tfs = self.reader.postings(term)
        if self.live_docs is not None and docs.size:
            keep = self.live_docs.mask[docs]
            docs, tfs = docs[keep], tfs[keep]
        if docs.size == 0:
            return docs, np.empty(0, np.float32)
        df = self.doc_freq(term)
        if self.precise:
            scores = bm25.score_precise(
                tfs, self.norms.length[docs], df, self.max_doc,
                self.avgdl_precise, k1=self._k1, b=self._b,
            )
        else:
            scores = bm25.score_postings(
                tfs, self.norms.norm[docs], bm25.idf(df, self.max_doc),
                self._cache, k1=self._k1,
            )
        return docs, scores

    def _docs_only(self, q: Query) -> np.ndarray:
        """Matching doc set (sorted), ignoring scores (FILTER context)."""
        docs, _ = self._score(q)
        return docs

    def _reversed_terms_available(self) -> bool:
        """One-time probe: does the dictionary contain reversed marker
        terms? (Cost = one sorted-range slice, cached.)"""
        if self._rev_wildcard is None:
            self._rev_wildcard = bool(
                self.reader.has_terms_in_range(_REV_MARKER, "\u0002"))
        return self._rev_wildcard

    def _max_term_len(self) -> int:
        """Longest term in the dictionary (cached per reader) — the
        traversal bound for infinite-language regexp automata (an upper
        bound is fine, so fixed-width numpy dtypes answer in O(1))."""
        r = self.reader
        ml = getattr(r, "_max_term_len", None)
        if ml is None:
            u = r.unique_terms()
            if isinstance(u, np.ndarray) and u.dtype.kind == "U":
                ml = u.dtype.itemsize // 4
            else:
                ml = int(max((len(t) for t in u), default=0))
            try:
                r._max_term_len = ml
            except AttributeError:
                pass
        return ml

    def _rewrite_terms(self, q: Query) -> list[str]:
        r = self.reader
        if isinstance(q, PrefixQuery):
            hi = q.prefix + "\U0010FFFF"
            return r.terms_in_range(q.prefix, hi, True, True)
        if isinstance(q, WildcardQuery):
            pat = re.compile(_wildcard_to_regex(q.pattern) + r"\Z")
            i = min(
                (q.pattern.index(c) for c in "*?" if c in q.pattern),
                default=len(q.pattern),
            )
            if i > 0:  # automaton leapfrog (WildcardQuery.java rewrites
                # to an automaton too) — the constant prefix lands the
                # first probe, then probes scale with matches instead of
                # the whole prefix range (a*e matches few of many a*)
                from .regexdfa import UnsupportedRegex, regexp_candidates

                try:
                    got, _ = regexp_candidates(
                        r.unique_terms(), _wildcard_to_regex(q.pattern),
                        max_len=self._max_term_len())
                    return [t for t in got
                            if not t.startswith(_REV_MARKER)]
                except UnsupportedRegex:  # pragma: no cover - */? always
                    pass                  # compile; keep the scan path
                pre = q.pattern[:i]
                cand = r.terms_in_range(pre, pre + "\U0010FFFF", True, True)
                return [t for t in cand if pat.match(t)]
            # leading wildcard: if the index carries reversed marker
            # terms (ReversedWildcardAnalyzer), rewrite onto them — the
            # reversed pattern has a literal prefix (at least the
            # marker), turning the O(V) dictionary scan into a sorted
            # range scan (ReversedWildcardFilterFactory's query-time
            # rewrite in SolrQueryParserBase.getWildcardQuery)
            if self._reversed_terms_available():
                rp = _REV_MARKER + q.pattern[::-1]
                rpat = re.compile(_wildcard_to_regex(rp) + r"\Z")
                j = min((rp.index(c) for c in "*?" if c in rp),
                        default=len(rp))
                pre = rp[:j]
                cand = r.terms_in_range(pre, pre + "\U0010FFFF", True, True)
                # marker terms carry the same postings as the originals
                return [t for t in cand if rpat.match(t)]
            return r.terms_matching(
                lambda t: not t.startswith(_REV_MARKER)
                and bool(pat.match(t)))
        if isinstance(q, RegexpQuery):
            # automaton path (RegExp.java -> CompiledAutomaton ->
            # IntersectTermsEnum): compile the pattern to an NFA-subset
            # DFA and leapfrog the sorted dict — probes O(matches +
            # boundary crossings). Skipped for '.'-headed patterns
            # (leading-any makes every term a candidate: the leapfrog
            # degenerates to a slower full scan) and for constructs
            # outside the compiled subset.
            if not q.pattern.startswith("."):
                from .regexdfa import UnsupportedRegex, regexp_candidates

                try:
                    got, _ = regexp_candidates(
                        r.unique_terms(), q.pattern,
                        max_len=self._max_term_len())
                    return [t for t in got
                            if not t.startswith(_REV_MARKER)]
                except UnsupportedRegex:
                    pass
            # full-anchor the scan oracle exactly like the automaton
            # (RegexpQuery matches the ENTIRE term; a bare top-level
            # alternation must not let \Z bind to the last branch only)
            pat = re.compile("(?:" + q.pattern + r")\Z")
            # literal-prefix extraction narrows the dictionary scan to a
            # sorted range (the CompiledAutomaton common-prefix walk,
            # util/automaton/CompiledAutomaton.java) — a leading run of
            # plain characters before any regex metachar
            lit = []
            i = 0
            p = q.pattern
            while i < len(p):
                c = p[i]
                if c == "\\" and i + 1 < len(p) and not p[i + 1].isalnum():
                    lit.append(p[i + 1])
                    i += 2
                    continue
                if c.isalnum():
                    # a following quantifier makes this char optional
                    if i + 1 < len(p) and p[i + 1] in "*?{|":
                        break
                    lit.append(c)
                    i += 1
                    continue
                break
            if lit:
                pre = "".join(lit)
                cand = r.terms_in_range(pre, pre + "\U0010FFFF", True, True)
                return [t for t in cand if pat.match(t)]
            return r.terms_matching(
                lambda t: not t.startswith(_REV_MARKER)
                and bool(pat.match(t)))
        if isinstance(q, TermRangeQuery):
            return r.terms_in_range(
                q.lower, q.upper, q.include_lower, q.include_upper
            )
        if isinstance(q, FuzzyQuery):
            terms, _ = fuzzy_candidates(
                r, q.term, q.max_edits,
                transpositions=getattr(q, "transpositions", False))
            return terms
        raise TypeError(q)

    def _score(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive (docs asc, scores) for a query tree."""
        dtype = np.float64 if self.precise else np.float32
        if isinstance(q, TermQuery):
            return self._score_term(q.term)
        if isinstance(q, MatchAllDocsQuery):
            lo, hi = (
                self._stats.get("doc_range", (0, self.max_doc))
                if self._stats is not None else (0, self.max_doc)
            )
            docs = np.arange(lo, hi, dtype=np.int64)
            if self.live_docs is not None:
                docs = docs[self.live_docs.mask[docs]]
            return docs, np.ones(docs.size, dtype)
        if isinstance(q, ConstantScoreQuery):
            docs = self._docs_only(q.query)
            return docs, np.full(docs.size, dtype(q.score))
        from .query import DocValuesRangeQuery, DocValuesTermsQuery

        if isinstance(q, (DocValuesTermsQuery, DocValuesRangeQuery)):
            col = self.docvalues(q.field)
            if isinstance(q, DocValuesTermsQuery):
                m = np.isin(col, np.asarray(list(q.values)))
            else:
                m = np.ones(col.shape[0], bool)
                if q.lower is not None:
                    m &= (col >= q.lower) if q.include_lower else \
                        (col > q.lower)
                if q.upper is not None:
                    m &= (col <= q.upper) if q.include_upper else \
                        (col < q.upper)
            docs = np.flatnonzero(m).astype(np.int64)
            if self.live_docs is not None and docs.size:
                docs = docs[self.live_docs.mask[docs]]
            return docs, np.ones(docs.size, dtype)
        if isinstance(
            q, (PrefixQuery, WildcardQuery, RegexpQuery, TermRangeQuery,
                FuzzyQuery)
        ):
            # auto-prefix fast path (lucene/codecs/autoprefix): a stored
            # prefix term IS the constant-score union, so a sidecar hit
            # skips the dictionary scan and every per-term postings
            # decode; results are identical by construction
            if isinstance(q, PrefixQuery):
                ap = self._autoprefix()
                docs = ap.docs_for(q.prefix) if ap is not None else None
                if docs is not None:
                    if self.live_docs is not None and docs.size:
                        docs = docs[self.live_docs.mask[docs]]
                    return docs, np.ones(docs.size, dtype)
            elif isinstance(q, TermRangeQuery):
                ap = self._autoprefix()
                if ap is not None and len(ap):
                    from ..index.autoprefix import range_docs

                    docs = range_docs(ap, self.reader, q.lower, q.upper,
                                      q.include_lower, q.include_upper)
                    if self.live_docs is not None and docs.size:
                        docs = docs[self.live_docs.mask[docs]]
                    return docs, np.ones(docs.size, dtype)
            # CONSTANT_SCORE rewrite: union of matching terms' docs, score 1
            terms = self._rewrite_terms(q)
            if not terms:
                return np.empty(0, np.int64), np.empty(0, dtype)
            all_docs = [self.reader.postings(t)[0] for t in terms]
            docs = np.unique(np.concatenate(all_docs))
            if self.live_docs is not None and docs.size:
                docs = docs[self.live_docs.mask[docs]]
            return docs, np.ones(docs.size, dtype)
        if isinstance(q, PhraseQuery):
            return self._score_phrase(q)
        from .query import MultiPhraseQuery

        if isinstance(q, MultiPhraseQuery):
            return self._score_multi_phrase(q)
        if isinstance(q, BooleanQuery):
            return self._score_bool(q)
        from .blockjoin import (
            ToChildBlockJoinQuery,
            ToParentBlockJoinQuery,
            score_to_child,
            score_to_parent,
        )

        if isinstance(q, ToParentBlockJoinQuery):
            return score_to_parent(self, q)
        if isinstance(q, ToChildBlockJoinQuery):
            return score_to_child(self, q)
        from .spans import SpanQuery, score_spans

        if isinstance(q, SpanQuery):
            if self.precise:
                raise NotImplementedError(
                    "span queries run in float32 (Lucene-faithful) mode"
                )
            if not self.manifest.store_positions:
                raise NotImplementedError(
                    "span queries need a positional index"
                )
            return score_spans(self, q)
        from .query import BoostingQuery, BoostQuery, DisjunctionMaxQuery

        if isinstance(q, BoostQuery):
            docs, scores = self._score(q.query)
            return docs, (scores * dtype(q.boost)).astype(dtype)
        if isinstance(q, BoostingQuery):
            # BoostingQuery.java: match's hits/scores; context only
            # multiplies the overlap by boost (no new matches, no score
            # contribution from the context side)
            docs, scores = self._score(q.match)
            ctx = self._docs_only(q.context)
            demote = np.isin(docs, ctx, assume_unique=True)
            scores = np.where(demote, scores * dtype(q.boost),
                              scores).astype(dtype)
            return docs, scores
        if isinstance(q, DisjunctionMaxQuery):
            # max + tie_breaker * (sum - max) (DisjunctionMaxScorer.java)
            subs = [self._score(sub) for sub in q.queries]
            if not subs:
                return np.empty(0, np.int64), np.empty(0, dtype)
            union = np.unique(np.concatenate([d for d, _ in subs]))
            mx = np.zeros(union.size, np.float64)
            sm = np.zeros(union.size, np.float64)
            for docs, scores in subs:
                pos = np.searchsorted(union, docs)
                np.maximum.at(mx, pos, scores.astype(np.float64))
                np.add.at(sm, pos, scores.astype(np.float64))
            out = mx + float(q.tie_breaker) * (sm - mx)
            return union, out.astype(dtype)
        raise TypeError(f"unsupported query: {q}")

    def _score_phrase(self, q: PhraseQuery) -> tuple[np.ndarray, np.ndarray]:
        """ExactPhraseScorer (search/ExactPhraseScorer.java): candidate docs
        = positions-conjunction; phraseFreq = number of aligned position
        runs; idf = SUM of the terms' idfs (BM25Similarity.idfExplain for
        TermStatistics[], BM25Similarity.java:173-186); score =
        idf_sum*(k1+1)*freq/(freq+norm)."""
        dtype = np.float64 if self.precise else np.float32
        if not self.manifest.store_positions:
            raise NotImplementedError(
                "phrase queries need a positional index "
                "(build_index(store_positions=True))"
            )
        terms = list(q.terms)
        datas = [self.reader.postings_with_positions(t) for t in terms]
        if any(d[0].size == 0 for d in datas):
            return np.empty(0, np.int64), np.empty(0, dtype)
        cand = datas[0][0]
        for docs, _, _ in datas[1:]:
            cand = np.intersect1d(cand, docs, assume_unique=True)
        if self.live_docs is not None and cand.size:
            cand = cand[self.live_docs.mask[cand]]
        if cand.size == 0:
            return cand, np.empty(0, dtype)
        # per-term lookup helpers: posting index + position-run boundaries
        lookups = []
        for docs, tfs, pos in datas:
            cum = np.concatenate(([0], np.cumsum(tfs)))
            idx = np.searchsorted(docs, cand)
            lookups.append((idx, cum, pos))
        if q.slop == 0:
            # ONE flattened pass over all candidates (no per-doc Python
            # loop): gather each term's position runs for every candidate,
            # make positions absolute (segmented cumsum over the prox-delta
            # stream), offset-align, and intersect via packed
            # (candidate, position) int64 keys — the vectorized
            # ExactPhraseScorer.
            base_keys = base_ci = None
            alive = None
            max_pos = 1
            gathered = []
            for off, ((docs, tfs, pos), (idx, cum, _)) in enumerate(
                zip(datas, lookups)
            ):
                counts = tfs[idx].astype(np.int64)
                starts = cum[idx].astype(np.int64)
                total = int(counts.sum())
                seg0 = np.zeros(counts.size, np.int64)
                np.cumsum(counts[:-1], out=seg0[1:])
                intra = np.arange(total, dtype=np.int64) - np.repeat(
                    seg0, counts)
                flat_idx = np.repeat(starts, counts) + intra
                deltas = pos[flat_idx].astype(np.int64)
                # absolute positions: cumsum reset at each run start
                cs = np.cumsum(deltas)
                run_base = cs[seg0] - deltas[seg0]
                p_abs = cs - np.repeat(run_base, counts)
                ci = np.repeat(np.arange(counts.size, dtype=np.int64),
                               counts)
                gathered.append((ci, p_abs - off))
                if p_abs.size:
                    max_pos = max(max_pos, int(p_abs.max()) + 1)
            stride = np.int64(max_pos + len(terms) + 1)
            for off, (ci, p) in enumerate(gathered):
                keys = ci * stride + p
                if off == 0:
                    base_keys, base_ci = keys, ci
                    alive = np.ones(keys.size, bool)
                else:
                    alive &= np.isin(base_keys, keys, assume_unique=True)
            freqs = np.bincount(
                base_ci[alive], minlength=cand.size
            ).astype(np.float64) if base_keys is not None else np.zeros(
                cand.size, np.float64)
        elif len(terms) == 2:
            # vectorized 2-term sloppy freq — closed form of the cursor
            # walk (proof in _sloppy_freq2_flat): one flattened pass over
            # all candidates via disjoint (candidate, position) key spaces
            freqs = _sloppy_freq2_flat(self, cand, datas, q.slop)
        else:
            freqs = np.zeros(cand.size, np.float64)
            for ci in range(cand.size):
                freqs[ci] = _sloppy_freq(lookups, ci, q.slop)
        keep = freqs > 0
        cand, freqs = cand[keep], freqs[keep]
        if cand.size == 0:
            return cand, np.empty(0, dtype)
        if self.precise:
            idf_sum = sum(
                float(np.log(1 + (self.max_doc - self.doc_freq(t) + 0.5)
                             / (self.doc_freq(t) + 0.5)))
                for t in terms
            )
            tf = freqs.astype(np.float64)
            dl = self.norms.length[cand].astype(np.float64)
            scores = (
                idf_sum * (self._k1 + 1.0) * tf
                / (tf + self._k1 * ((1 - self._b)
                                    + self._b * dl / self.avgdl_precise))
            )
            return cand, scores
        idf_sum = np.float32(0.0)
        for t in terms:  # float32 accumulation, reference order
            idf_sum = idf_sum + bm25.idf(self.doc_freq(t), self.max_doc)
        scores = bm25.score_postings(
            freqs, self.norms.norm[cand], idf_sum, self._cache,
            k1=self._k1,
        )
        return cand, scores

    @staticmethod
    def _gather_runs(cand, docs, tfs, pos):
        """Per-candidate position runs for one term, flattened:
        (ci, abs_positions) where ci indexes into ``cand``; candidates the
        term doesn't contain contribute nothing."""
        cum = np.concatenate(([0], np.cumsum(tfs))).astype(np.int64)
        idx = np.searchsorted(docs, cand)
        okm = idx < docs.size
        safe = np.minimum(idx, docs.size - 1)
        okm &= docs[safe] == cand
        rows = np.flatnonzero(okm)
        counts = tfs[idx[okm]].astype(np.int64)
        starts = cum[idx[okm]]
        total = int(counts.sum())
        if total == 0:
            e = np.empty(0, np.int64)
            return e, e
        seg0 = np.zeros(counts.size, np.int64)
        np.cumsum(counts[:-1], out=seg0[1:])
        intra = np.arange(total, dtype=np.int64) - np.repeat(seg0, counts)
        flat = np.repeat(starts, counts) + intra
        deltas = pos[flat].astype(np.int64)
        cs = np.cumsum(deltas)
        run_base = cs[seg0] - deltas[seg0]
        p_abs = cs - np.repeat(run_base, counts)
        return np.repeat(rows, counts), p_abs

    def _score_multi_phrase(self, q) -> tuple[np.ndarray, np.ndarray]:
        """MultiPhraseQuery (search/MultiPhraseQuery.java): each slot is a
        set of alternative terms; a match aligns ONE term per slot at
        consecutive positions. Vectorized like the exact-phrase scorer:
        per slot, the union of its terms' offset-aligned (candidate,
        position) keys; phraseFreq = slot-0 start positions surviving
        every slot's membership test. idf = sum over all involved terms
        (idfExplain over the flattened termArrays)."""
        dtype = np.float64 if self.precise else np.float32
        if not self.manifest.store_positions:
            raise NotImplementedError(
                "multi-phrase queries need a positional index"
            )
        slot_data = []
        for slot in q.slots:
            per_term = [self.reader.postings_with_positions(t)
                        for t in slot]
            per_term = [d for d in per_term if d[0].size]
            if not per_term:
                return np.empty(0, np.int64), np.empty(0, dtype)
            slot_data.append(per_term)
        cand = None
        for per_term in slot_data:
            u = (per_term[0][0] if len(per_term) == 1
                 else np.unique(np.concatenate([d for d, _, _ in per_term])))
            cand = u if cand is None else np.intersect1d(
                cand, u, assume_unique=True)
        if self.live_docs is not None and cand.size:
            cand = cand[self.live_docs.mask[cand]]
        if cand.size == 0:
            return cand, np.empty(0, dtype)
        gathered = []
        max_pos = 1
        for off, per_term in enumerate(slot_data):
            cis, ps = [], []
            for docs, tfs, pos in per_term:
                ci, p_abs = self._gather_runs(cand, docs, tfs, pos)
                cis.append(ci)
                ps.append(p_abs - off)
                if p_abs.size:
                    max_pos = max(max_pos, int(p_abs.max()) + 1)
            gathered.append((np.concatenate(cis), np.concatenate(ps)))
        stride = np.int64(max_pos + len(q.slots) + 1)
        base_keys = base_ci = alive = None
        for off, (ci, p) in enumerate(gathered):
            keys = ci * stride + p
            if off == 0:
                # dedupe slot-0 keys (two alternatives at one position
                # must count one phrase start)
                keys, first_idx = np.unique(keys, return_index=True)
                base_keys, base_ci = keys, ci[first_idx]
                alive = np.ones(keys.size, bool)
            else:
                alive &= np.isin(base_keys, keys)
        freqs = np.bincount(base_ci[alive],
                            minlength=cand.size).astype(np.float64)
        keep = freqs > 0
        cand, freqs = cand[keep], freqs[keep]
        if cand.size == 0:
            return cand, np.empty(0, dtype)
        all_terms = [t for slot in q.slots for t in slot]
        if self.precise:
            idf_sum = sum(
                float(np.log(1 + (self.max_doc - self.doc_freq(t) + 0.5)
                             / (self.doc_freq(t) + 0.5)))
                for t in all_terms if self.doc_freq(t)
            )
            tf = freqs
            dl = self.norms.length[cand].astype(np.float64)
            scores = (
                idf_sum * (self._k1 + 1.0) * tf
                / (tf + self._k1 * ((1 - self._b)
                                    + self._b * dl / self.avgdl_precise))
            )
            return cand, scores
        idf_sum = np.float32(0.0)
        for t in all_terms:
            df = self.doc_freq(t)
            if df:
                idf_sum = idf_sum + bm25.idf(df, self.max_doc)
        scores = bm25.score_postings(
            freqs, self.norms.norm[cand], idf_sum, self._cache,
            k1=self._k1,
        )
        return cand, scores

    def _score_bool(self, q: BooleanQuery) -> tuple[np.ndarray, np.ndarray]:
        from .query import FILTER, MUST, MUST_NOT, SHOULD

        dtype = np.float64 if self.precise else np.float32
        must, should, must_not, filt = [], [], [], []
        for occur, sub in q.clauses:
            res = self._score(sub)
            {MUST: must, SHOULD: should, MUST_NOT: must_not,
             FILTER: filt}[occur].append(res)

        if must or filt:
            cand = None
            for docs, _ in must + filt:
                cand = docs if cand is None else np.intersect1d(
                    cand, docs, assume_unique=True
                )
        else:
            if not should:
                return np.empty(0, np.int64), np.empty(0, dtype)
            total = sum(d.size for d, _ in should)
            if (q.min_should_match <= 1 and not must_not
                    and self.max_doc <= 4_000_000 and total > 16_384):
                # dense-accumulator disjunction (BooleanScorer's bucket
                # window, taken to one window over maxDoc): no sort/unique,
                # identical float64 clause-order additions. Buffers are
                # REUSED across queries (allocate + zero of 2 x maxDoc
                # arrays dominated hot-OR latency at 10^6 docs); only the
                # touched positions are reset after use (reuse is safe:
                # searchers are driven single-threaded per actor).
                acc = getattr(self, "_dense_acc", None)
                if acc is None:
                    acc = self._dense_acc = np.zeros(self.max_doc,
                                                     np.float64)
                    self._dense_hit = np.zeros(self.max_doc, bool)
                hit = self._dense_hit
                for docs, scores in should:
                    acc[docs] += scores.astype(np.float64)
                    hit[docs] = True
                cand = np.flatnonzero(hit)
                out = acc[cand].astype(dtype)
                acc[cand] = 0.0
                hit[cand] = False
                return cand, out
            cand = np.unique(np.concatenate([d for d, _ in should]))

        msm = q.min_should_match
        if msm > 0 and should:
            cnt = np.zeros(cand.size, np.int32)
            for docs, _ in should:
                pos = np.searchsorted(cand, docs)
                ok = (pos < cand.size) & (cand[np.minimum(pos, cand.size - 1)]
                                          == docs)
                np.add.at(cnt, pos[ok], 1)
            cand = cand[cnt >= msm]

        for docs, _ in must_not:
            cand = cand[~np.isin(cand, docs, assume_unique=True)]
        if cand.size == 0:
            return cand, np.empty(0, dtype)

        # sum scoring clauses in float64, cast (double-accumulate contract)
        acc = np.zeros(cand.size, np.float64)
        for docs, scores in must + should:
            pos = np.searchsorted(cand, docs)
            ok = (pos < cand.size) & (cand[np.minimum(pos, cand.size - 1)]
                                      == docs)
            np.add.at(acc, pos[ok], scores[ok].astype(np.float64))
        return cand, acc.astype(dtype)

    def _wand_terms(self, q: Query) -> list[str] | None:
        """Terms list when q is a pure OR-of-TermQuery (the shape block-max
        pruning applies to); None otherwise."""
        from .query import SHOULD

        if isinstance(q, TermQuery):
            return [q.term]
        if isinstance(q, BooleanQuery) and q.min_should_match <= 1:
            terms = []
            for occur, sub in q.clauses:
                if occur != SHOULD or not isinstance(sub, TermQuery):
                    return None
                terms.append(sub.term)
            return terms or None
        return None

    # ---- public API ----
    def search(
        self, q: Query, k: int = 10, after: tuple[float, int] | None = None,
        prune: bool = False,
    ) -> pa.Table:
        """``prune=True`` enables block-max top-k pruning (wand.py) for
        disjunctive term queries — rank- and score-identical to the
        exhaustive path, just skipping provably sub-threshold blocks.

        Results are cached per (query, k, after, prune) — the Solr
        queryResultCache analogue (``solr/.../search/FastLRUCache.java``);
        the index is immutable so there is no invalidation."""
        try:
            key = ("qr", q, k, after, prune)
            hit = self._result_cache.get(key)
        except TypeError:  # unhashable custom query
            key = None
            hit = None
        if hit is not None:
            return hit
        if self.similarity is not None:
            terms = self._wand_terms(q)
            if terms is None:
                raise NotImplementedError(
                    f"similarity {self.similarity.name!r} supports term / "
                    "OR-of-terms queries"
                )
            docs, scores = self.similarity.score_or(self, terms)
            d, s = top_k(docs, scores.astype(np.float32), k, after=after)
            out = pa.table({
                "rank": pa.array(np.arange(1, d.size + 1, dtype=np.int32)),
                "doc_id": pa.array(d),
                "score": pa.array(s),
            })
            if key is not None:
                self._result_cache.put(key, out)
            return out
        if (prune and not self.precise and after is None
                and (terms := self._wand_terms(q)) is not None):
            from .wand import wand_or_topk

            d, s = wand_or_topk(self, terms, k)
        else:
            docs, scores = self._score(q)
            d, s = top_k(docs, scores, k, after=after)
        out = pa.table({
            "rank": pa.array(np.arange(1, d.size + 1, dtype=np.int32)),
            "doc_id": pa.array(d),
            "score": pa.array(s),
        })
        if key is not None:
            self._result_cache.put(key, out)
        return out

    def count(self, q: Query) -> int:
        return int(self._docs_only(q).size)

    def explain(self, q: Query, doc_id: int) -> dict:
        """Score explanation tree for one document —
        ``IndexSearcher.explain`` / ``Explanation.java``: nested
        {match, value, description, details} mirroring the BM25 weight
        structure (idf / freq / norm legs for term queries, clause sums
        for booleans, products for boosts)."""
        def no_match(desc):
            return {"match": False, "value": 0.0, "description": desc,
                    "details": []}

        if isinstance(q, TermQuery):
            docs, tfs = self.reader.postings(q.term)
            pos = np.searchsorted(docs, doc_id)
            if pos >= docs.size or docs[pos] != doc_id or (
                self.live_docs is not None
                and not self.live_docs.mask[doc_id]
            ):
                return no_match(f"no matching term {q.term!r}")
            freq = int(tfs[pos])
            df = self.doc_freq(q.term)
            idf_v = float(bm25.idf(df, self.max_doc))
            dl = int(self.norms.length[doc_id])
            if self.precise:
                norm = self._k1 * ((1 - self._b)
                                   + self._b * dl / self.avgdl_precise)
            else:
                norm = float(self._cache[self.norms.norm[doc_id]])
            score = idf_v * (self._k1 + 1.0) * freq / (freq + norm)
            return {
                "match": True, "value": float(score),
                "description": (f"weight({q.term} in {doc_id}) "
                                "[BM25], product of:"),
                "details": [
                    {"match": True, "value": idf_v,
                     "description": f"idf(docFreq={df}, "
                                    f"docCount={self.max_doc})",
                     "details": []},
                    {"match": True,
                     "value": (self._k1 + 1.0) * freq / (freq + norm),
                     "description": f"tfNorm(freq={freq}, k1={self._k1}, "
                                    f"b={self._b}, fieldLength={dl}, "
                                    f"avgFieldLength={self.avgdl})",
                     "details": []},
                ],
            }
        if isinstance(q, BooleanQuery):
            from .query import FILTER, MUST, MUST_NOT, SHOULD

            details = []
            total = 0.0
            for occur, sub in q.clauses:
                e = self.explain(sub, doc_id)
                if occur == MUST_NOT:
                    if e["match"]:
                        return no_match("excluded by MUST_NOT clause")
                    continue
                if occur in (MUST, FILTER) and not e["match"]:
                    return no_match(f"missing required clause {sub}")
                if e["match"] and occur != FILTER:
                    details.append(e)
                    total += e["value"]
            if not details:
                return no_match("no matching clauses")
            return {"match": True, "value": total,
                    "description": "sum of:", "details": details}
        from .query import BoostQuery

        if isinstance(q, BoostQuery):
            e = self.explain(q.query, doc_id)
            if not e["match"]:
                return e
            return {"match": True, "value": e["value"] * q.boost,
                    "description": f"boost {q.boost} * score, product of:",
                    "details": [e]}
        # generic fallback: score the query, look the doc up
        docs, scores = self._score(q)
        pos = np.searchsorted(docs, doc_id)
        if pos >= docs.size or docs[pos] != doc_id:
            return no_match(f"no match for {type(q).__name__}")
        return {"match": True, "value": float(scores[pos]),
                "description": f"{type(q).__name__} score", "details": []}

    def collect(self, q: Query, collector):
        """Collector extension point (``search/Collector.java`` /
        ``IndexSearcher.search(Query, Collector)``): the vectorized
        equivalent hands the full (docs asc, scores) arrays to a custom
        collector callable and returns its result — histograms, custom
        top-k policies, facet accumulators, early-exit counters."""
        docs, scores = self._score(q)
        return collector(docs, scores)

    # ---- sort-by-field (TopFieldCollector) ----
    def docvalues(self, field: str) -> np.ndarray:
        """Dense per-doc column values in doc-id order — the NumericDocValues
        analogue; the source parquet columns ARE the docvalues store
        (SURVEY §2.3). Cached per searcher."""
        cache = getattr(self, "_docvalues", None)
        if cache is None:
            cache = self._docvalues = {}
        v = cache.get(field)
        if v is None and field.startswith("external_"):
            # ExternalFileField (solr/core/.../schema/ExternalFileField
            # .java + function/FileFloatSource.java): key=value lines in
            # external_<name>[.*] files under the index dir, keyed by
            # the unique key; later files override earlier; missing keys
            # default to 0. Reloaded per searcher (reload-on-commit).
            v = cache[field] = self._load_external_file(field)
        if v is None:
            import pyarrow.parquet as pq

            dv_dir = os.path.join(self.manifest.index_dir, "docvalues")
            if field in getattr(self.manifest, "docvalues_fields", []) \
                    and os.path.isdir(dv_dir):
                # index-resident column store (the .dvd analogue): built
                # per segment at index time, read in partition order
                files = sorted(
                    os.path.join(dv_dir, f)
                    for f in os.listdir(dv_dir) if f.endswith(".parquet"))
                v = np.concatenate([
                    pq.read_table(f, columns=[field])
                    .column(field).to_numpy(zero_copy_only=False)
                    for f in files
                ])
            else:
                parts = []
                for p in self.manifest.partitions:
                    pf = pq.ParquetFile(p["file"])
                    for rg in p["row_groups"]:
                        parts.append(
                            pf.read_row_group(rg, columns=[field])
                            .column(field).to_numpy(zero_copy_only=False)
                        )
                v = np.concatenate(parts)
            # overlay docvalues-update generations in order (the .dvd
            # update-gen files of IndexWriter.updateNumericDocValues;
            # a reopened searcher sees them — NRT semantics)
            ud = os.path.join(self.manifest.index_dir,
                              "docvalues_updates", field)
            if os.path.isdir(ud):
                v = v.copy()
                for f in sorted(os.listdir(ud)):
                    if not f.endswith(".parquet"):
                        continue
                    t = pq.read_table(os.path.join(ud, f))
                    ids = t.column("doc_id").to_numpy()
                    v[ids[ids < v.size]] = \
                        t.column("value").to_numpy()[ids < v.size]
            cache[field] = v
        return v

    def _load_external_file(self, field: str,
                            key_col: str = "doc_key",
                            default: float = 0.0) -> np.ndarray:
        """Dense per-doc floats from ``external_<name>`` files."""
        idx = self.manifest.index_dir
        files = sorted(
            f for f in os.listdir(idx)
            if f == field or f.startswith(field + "."))
        kv: dict[str, float] = {}
        for f in files:
            with open(os.path.join(idx, f)) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or "=" not in line:
                        continue
                    k_, _, val = line.rpartition("=")
                    try:
                        kv[k_] = float(val)
                    except ValueError:
                        continue
        keys = self.docvalues(key_col)
        out = np.full(self.max_doc, default, np.float64)
        if kv:
            # vectorized: sorted file-key vocabulary + searchsorted
            # probe (the doc loop would be O(maxDoc) dict gets)
            fk = np.asarray(sorted(kv), dtype=object)
            fv = np.asarray([kv[k_] for k_ in fk], np.float64)
            dk = np.asarray([str(x) for x in keys], dtype=object)
            pos = np.searchsorted(fk, dk)
            ok = (pos < fk.size) & (
                fk[np.minimum(pos, fk.size - 1)] == dk)
            out[ok] = fv[pos[ok]]
        return out

    def search_by_field(
        self, q: Query, k: int, field: str, *, descending: bool = True,
        values: np.ndarray | None = None,
        after: tuple | None = None,
    ) -> pa.Table:
        """Top-k hits ordered by a docvalues field instead of score —
        ``TopFieldCollector`` (search/TopFieldCollector.java, 705 LoC;
        Solr ``sort=field desc``). Tie-break: ascending doc id (the
        collector's docID tie-break; with global doc ids the sharded merge
        needs no shardIndex disambiguation).

        ``after=(value, doc_id)`` is the cursorMark deep-paging cursor
        (searchAfter for field sorts): only strictly-later hits return."""
        if values is None:
            values = self.docvalues(field)
        docs = self._docs_only(q)
        v = values[docs]
        if after is not None:
            av, ad = after
            if descending:
                keep = (v < av) | ((v == av) & (docs > ad))
            else:
                keep = (v > av) | ((v == av) & (docs > ad))
            docs, v = docs[keep], v[keep]
        key = -v if descending else v
        order = np.lexsort((docs, key))[:k]
        d = docs[order]
        return pa.table({
            "rank": pa.array(np.arange(1, d.size + 1, dtype=np.int32)),
            "doc_id": pa.array(d),
            field: pa.array(v[order]),
        })


class SearcherManager:
    """SearcherManager / DirectoryReader.openIfChanged analogue
    (``search/SearcherManager.java``, ``index/DirectoryReader.java:122-202``):
    hands out the current searcher and swaps in a fresh one when the
    manifest generation (mtime + merged flag + delete generations) changed —
    the batch-rebuild notion of near-real-time reopen. The new searcher
    is opened from the current one (``IndexSearcher(prev=...)``), so a
    publish that appended files reads only those."""

    def __init__(self, index_dir: str, **kw):
        self.index_dir = index_dir
        self._kw = kw
        self._version = None
        self._searcher = None
        self.maybe_refresh()

    def _current_version(self):
        import os as _os

        man = _os.path.join(self.index_dir, "manifest.json")
        v = [_os.path.getmtime(man)]
        deld = _os.path.join(self.index_dir, "deletes")
        if _os.path.isdir(deld):
            v.append(tuple(sorted(_os.listdir(deld))))
        return tuple(v)

    def maybe_refresh(self) -> bool:
        v = self._current_version()
        if v != self._version:
            self._searcher = IndexSearcher(self.index_dir,
                                           prev=self._searcher, **self._kw)
            self._version = v
            return True
        return False

    def acquire(self) -> "IndexSearcher":
        return self._searcher


class SearcherLifetimeManager:
    """``search/SearcherLifetimeManager.java``: pin point-in-time
    searchers by token so a user paging through results keeps seeing
    the SAME index version even as reopens happen (the "searcher
    leases" pattern behind searchAfter pagination across requests).

    ``record`` returns a token for the searcher's version; ``acquire``
    returns that exact searcher (or None if pruned); ``prune`` drops
    searchers older than a max age — the reference's
    PruneByAge policy."""

    def __init__(self):
        import time as _time

        self._time = _time
        self._by_token: dict = {}  # token -> (searcher, recorded_at)

    def record(self, searcher: "IndexSearcher") -> str:
        man = searcher.manifest
        token = f"{id(searcher):x}-{man.max_doc}"
        if token not in self._by_token:
            self._by_token[token] = (searcher, self._time.monotonic())
        return token

    def acquire(self, token: str):
        hit = self._by_token.get(token)
        return hit[0] if hit is not None else None

    def prune(self, max_age_sec: float) -> int:
        now = self._time.monotonic()
        dead = [t for t, (_, at) in self._by_token.items()
                if now - at > max_age_sec]
        for t in dead:
            del self._by_token[t]
        return len(dead)


class TimeExceededException(Exception):
    """TimeLimitingCollector.TimeExceededException: carries the partial
    result collected before the budget ran out."""

    def __init__(self, partial, elapsed_ms: float, budget_ms: float):
        super().__init__(
            f"time allowed {budget_ms:.0f} ms exceeded ({elapsed_ms:.0f} ms)"
        )
        self.partial = partial
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


class TimeLimitingCollector:
    """``search/TimeLimitingCollector.java`` / Solr ``timeAllowed``:
    wrap any collector with a wall-clock budget. The vectorized scorer
    hands the collector (docs, scores) once per query, so the check
    points are BETWEEN scoring stages (clause boundaries), not per doc
    — call ``checkpoint()`` from multi-stage drivers; ``__call__``
    checks before and after the wrapped collector. With ``greedy=True``
    (the reference's greedy mode) the wrapped collector always runs and
    its result rides the exception as ``partial``."""

    def __init__(self, inner, time_allowed_ms: float, *,
                 greedy: bool = False, _clock=None):
        import time as _time

        self.inner = inner
        self.budget_ms = float(time_allowed_ms)
        self.greedy = greedy
        self._clock = _clock or (lambda: _time.monotonic() * 1000.0)
        self._t0 = self._clock()

    def _elapsed(self) -> float:
        return self._clock() - self._t0

    def checkpoint(self, partial=None) -> None:
        e = self._elapsed()
        if e > self.budget_ms:
            raise TimeExceededException(partial, e, self.budget_ms)

    def __call__(self, docs, scores):
        if not self.greedy:
            self.checkpoint()
        out = self.inner(docs, scores)
        e = self._elapsed()
        if e > self.budget_ms:
            raise TimeExceededException(out, e, self.budget_ms)
        return out
