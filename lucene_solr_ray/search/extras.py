"""Secondary search operators (SURVEY.md §2.5/2.6/2.12 coverage):

- :func:`rescore` — ``search/QueryRescorer.java``: re-rank a first-pass
  top-window by combining first/second-pass scores.
- :func:`more_like_this` — ``lucene/queries/.../mlt/MoreLikeThis.java``:
  select the highest tf-idf terms of a source text, build an OR query.
- :func:`suggest_prefix` — AnalyzingSuggester-lite
  (``suggest/.../analyzing/AnalyzingSuggester.java``): dictionary prefix
  scan ranked by collection frequency.
- :func:`spellcheck` — DirectSpellChecker analogue
  (``suggest/.../DirectSpellChecker.java``): dictionary terms within edit
  distance, ranked by df.
- :func:`highlight` — a simple unified-highlighter analogue
  (``lucene/highlighter``): best window around query-term hits with
  <em> markup (offsets via re-analysis, as Lucene does for non-stored
  offsets).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from . import bm25
from .query import BooleanQuery, Query, TermQuery
from .searcher import IndexSearcher, _levenshtein_within


def rescore(
    searcher: IndexSearcher,
    first_pass: pa.Table,
    q: Query,
    query_weight: float = 1.0,
    rescore_query_weight: float = 1.0,
    window: int | None = None,
) -> pa.Table:
    """QueryRescorer.rescore: combined = w1*first + w2*second (second = 0
    for window docs the rescore query doesn't match); docs outside the
    window keep their order below the window."""
    docs = np.asarray(first_pass["doc_id"].to_pylist(), np.int64)
    scores = np.asarray(first_pass["score"].to_pylist(), np.float64)
    n = docs.size if window is None else min(window, docs.size)
    r_docs, r_scores = searcher._score(q)
    pos = np.searchsorted(r_docs, docs[:n]) if r_docs.size else None
    second = np.zeros(n, np.float64)
    if r_docs.size:
        ok = (pos < r_docs.size) & (
            r_docs[np.minimum(pos, r_docs.size - 1)] == docs[:n]
        )
        second[ok] = r_scores[pos[ok]].astype(np.float64)
    combined = query_weight * scores[:n] + rescore_query_weight * second
    order = np.lexsort((docs[:n], -combined))
    out_docs = np.concatenate([docs[:n][order], docs[n:]])
    out_scores = np.concatenate([combined[order], scores[n:]])
    return pa.table({
        "rank": pa.array(np.arange(1, out_docs.size + 1, dtype=np.int32)),
        "doc_id": pa.array(out_docs),
        "score": pa.array(out_scores.astype(np.float32)),
    })


def more_like_this(
    searcher: IndexSearcher,
    text: str,
    *,
    max_query_terms: int = 25,
    min_term_freq: int = 2,
    min_doc_freq: int = 5,
    analyzer: str | None = None,
) -> Query:
    """Build the MLT query: top tf*idf terms of ``text``
    (MoreLikeThis.java defaults: maxQueryTerms=25, minTermFreq=2,
    minDocFreq=5)."""
    from collections import Counter

    from ..analysis import get_analyzer

    ana = (get_analyzer(analyzer) if analyzer
           else searcher.manifest.resolve_analyzer())
    tf = Counter(ana.tokens(text))
    scored = []
    for term, f in tf.items():
        if f < min_term_freq:
            continue
        df = searcher.doc_freq(term)
        if df < min_doc_freq:
            continue
        scored.append((float(f) * float(bm25.idf(df, searcher.max_doc)),
                       term))
    scored.sort(key=lambda x: (-x[0], x[1]))
    terms = [t for _, t in scored[:max_query_terms]]
    if not terms:
        return BooleanQuery.build()
    return BooleanQuery.build(should=[TermQuery(t) for t in terms])


def suggest_prefix(searcher: IndexSearcher, prefix: str,
                   n: int = 10) -> pa.Table:
    """Prefix suggestions ranked by total term frequency desc, term asc."""
    terms = searcher.reader.terms_in_range(
        prefix, prefix + "\U0010FFFF", True, True
    )
    ttfs = np.array(
        [searcher.reader.total_term_freq(t) for t in terms], np.int64
    )
    order = np.lexsort((np.asarray(terms, object), -ttfs))[:n]
    return pa.table({
        "term": pa.array([terms[i] for i in order], pa.string()),
        "ttf": pa.array(ttfs[order]),
    })


def spellcheck(searcher: IndexSearcher, word: str, *, max_edits: int = 2,
               n: int = 10) -> pa.Table:
    """Correction candidates within ``max_edits``, ranked df desc, term
    asc (DirectSpellChecker's docFreq ordering); dictionary walk pruned
    by the fuzzy candidate bounds (searcher.fuzzy_candidates)."""
    from .searcher import fuzzy_candidates

    cands, _ = fuzzy_candidates(searcher.reader, word, max_edits)
    dfs = np.array([searcher.doc_freq(t) for t in cands], np.int64)
    order = np.lexsort((np.asarray(cands, object), -dfs))[:n]
    return pa.table({
        "term": pa.array([cands[i] for i in order], pa.string()),
        "df": pa.array(dfs[order]),
    })


def spellcheck_collate(searcher: IndexSearcher, query_text: str,
                       analyzer, *, max_edits: int = 2) -> dict:
    """Collation ('did you mean'): rewrite the query replacing every term
    absent from the index with its best correction (df-ranked, the
    DirectSpellChecker ordering) and verify the collated query actually
    hits — Solr's ``spellcheck.collate``. Returns
    {original, collation, changed, hits}."""
    from .query import parse_query
    from .searcher import fuzzy_candidates

    toks = analyzer.tokens(query_text)
    replacements: dict[str, str] = {}
    for t in dict.fromkeys(toks):
        if searcher.doc_freq(t) > 0:
            continue
        cands, _ = fuzzy_candidates(searcher.reader, t, max_edits)
        if not cands:
            continue
        dfs = [(searcher.doc_freq(c), c) for c in cands]
        dfs.sort(key=lambda x: (-x[0], x[1]))
        replacements[t] = dfs[0][1]
    if not replacements:
        q = parse_query(query_text, analyzer)
        return {"original": query_text, "collation": query_text,
                "changed": False, "hits": searcher.count(q)}
    # surface-level rewrite: replace whole-word occurrences (lowercased
    # match — the analyzed form)
    collated = query_text
    for bad, good in replacements.items():
        collated = re.sub(rf"(?i)\b{re.escape(bad)}\b", good, collated)
    q = parse_query(collated, analyzer)
    return {"original": query_text, "collation": collated,
            "changed": True, "hits": searcher.count(q)}


def highlight_results(searcher: IndexSearcher, q, results,
                      *, window_chars: int = 120,
                      use_offsets: bool = False) -> "pa.Table":
    """Snippets for a search-result table: fetch the stored fields for
    the hit doc ids (stored fields ARE the source parquet) and build
    best-window snippets — the 2-phase query's STAGE_GET_FIELDS +
    highlighting component.

    ``use_offsets=True`` is the PostingsHighlighter path
    (``postingshighlight/PostingsHighlighter.java``): match spans come
    from the index's offset stream (store_offsets=True at build) — no
    re-analysis of the stored text, which at 100 TB is the difference
    between slicing bytes for k docs and re-tokenizing them."""
    from ..index.check import fetch_docs
    from .distributed import query_terms

    doc_ids = results["doc_id"].to_pylist()
    if not doc_ids:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "snippet": pa.array([], pa.string())})
    field = searcher.manifest.field
    docs = fetch_docs(searcher.manifest.index_dir, doc_ids=doc_ids,
                      columns=[field])
    terms = sorted(query_terms(q))
    by_id = dict(zip(docs["doc_id"].to_pylist(),
                     docs[field].to_pylist()))
    if use_offsets:
        spans_by_doc = offsets_for_docs(searcher, terms, doc_ids)
        snippets = [
            highlight_spans(by_id.get(d, "") or "",
                            spans_by_doc.get(int(d), []),
                            window_chars=window_chars)
            for d in doc_ids
        ]
    else:
        snippets = [
            highlight(by_id.get(d, "") or "", terms,
                      window_chars=window_chars)
            for d in doc_ids
        ]
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "snippet": pa.array(snippets, pa.string()),
    })


def offsets_for_docs(searcher: IndexSearcher, terms: list[str],
                     doc_ids: list[int]) -> dict[int, list[tuple]]:
    """Per-doc sorted (char_start, char_end) match spans for ``terms``,
    decoded from the index offset stream (the ``.pay`` read path). Only
    the requested docs' spans are un-deltad — cost is O(k docs), not
    O(postings)."""
    reader = searcher.reader
    if not getattr(reader, "has_offsets", False):
        raise ValueError(
            "index has no offsets (build with store_offsets=True)")
    want = np.asarray(sorted(set(int(d) for d in doc_ids)), np.int64)
    out: dict[int, list[tuple]] = {int(d): [] for d in want}
    for t in terms:
        docs, tfs, off = reader.term_offsets(t)
        if not docs.size:
            continue
        cum = np.zeros(docs.size + 1, np.int64)
        np.cumsum(2 * tfs.astype(np.int64), out=cum[1:])
        pos_in = np.searchsorted(docs, want)
        for k, d in enumerate(want.tolist()):
            i = int(pos_in[k])
            if i >= docs.size or int(docs[i]) != d:
                continue
            sl = off[cum[i]:cum[i + 1]].astype(np.int64)
            starts = np.cumsum(sl[0::2])  # un-delta
            lens = sl[1::2]
            out[d].extend(zip(starts.tolist(),
                              (starts + lens).tolist()))
    for d in out:
        out[d].sort()
    return out


def highlight_spans(text: str, spans: list[tuple], *,
                    window_chars: int = 120, pre: str = "<em>",
                    post: str = "</em>") -> str:
    """Best-window snippet from precomputed match spans (the offset-based
    twin of :func:`highlight` — same window selection on span starts)."""
    if not spans:
        return text[:window_chars]
    hits = [s for s, _e in spans]
    best_start, best_cnt = hits[0], 1
    for h in hits:
        cnt = sum(1 for x in hits if h <= x < h + window_chars)
        if cnt > best_cnt:
            best_start, best_cnt = h, cnt
    lo = max(0, best_start - 10)
    hi = lo + window_chars
    parts = []
    cur = lo
    for s, e in spans:
        if s < lo or s >= hi:
            continue
        e = min(e, hi)
        parts.append(text[cur:s])
        parts.append(pre + text[s:e] + post)
        cur = e
    parts.append(text[cur:hi])
    return "".join(parts)


def highlight(text: str, terms: list[str], *, window_chars: int = 120,
              pre: str = "<em>", post: str = "</em>",
              lowercase: bool = True) -> str:
    """Best-window snippet with highlighted terms (token-boundary regex)."""
    if not terms:
        return text[:window_chars]
    pat = re.compile(
        r"\b(" + "|".join(re.escape(t) for t in terms) + r")\b",
        re.IGNORECASE if lowercase else 0,
    )
    hits = [m.start() for m in pat.finditer(text)]
    if not hits:
        return text[:window_chars]
    # window with the most hits
    best_start, best_cnt = hits[0], 1
    for h in hits:
        cnt = sum(1 for x in hits if h <= x < h + window_chars)
        if cnt > best_cnt:
            best_start, best_cnt = h, cnt
    lo = max(0, best_start - 10)
    snippet = text[lo : lo + window_chars]
    return pat.sub(lambda m: f"{pre}{m.group(0)}{post}", snippet)


def term_vector(text: str, analyzer) -> "pa.Table":
    """TermVectorComponent analogue (``solr/.../component/
    TermVectorComponent.java``): per-doc term vector (term, tf, positions)
    by re-analysis — Lucene stores these at index time when
    ``storeTermVectors`` is set; re-analysis of the stored field is the
    equivalent for our always-stored source rows."""
    from collections import defaultdict

    toks, pos = analyzer.tokens_with_positions(text)
    acc: dict = defaultdict(list)
    for t, p in zip(toks, pos):
        acc[t].append(p)
    terms = sorted(acc)
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "tf": pa.array([len(acc[t]) for t in terms], pa.int64()),
        "positions": pa.array([acc[t] for t in terms],
                              pa.list_(pa.int64())),
    })


def payload_score(searcher: IndexSearcher, term: str, *, fn: str = "avg",
                  k: int = 10) -> "pa.Table":
    """PayloadScoreQuery / the Solr 5.x PayloadTermQuery surface
    (``queries/.../payloads/PayloadScoreQuery.java``, Solr
    ``{!payload_score f=.. func=..}``): rank docs by an aggregate of the
    term's per-occurrence payloads (avg/min/max/sum), decoded from the
    index payload stream. Ties break on doc id ascending."""
    docs, tfs, pay = searcher.reader.term_payloads(term)
    if not docs.size:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    cum = np.zeros(docs.size, np.int64)
    np.cumsum(tfs[:-1].astype(np.int64), out=cum[1:])
    pay64 = pay.astype(np.float64)
    if fn == "avg":
        agg = np.add.reduceat(pay64, cum) / tfs
    elif fn == "sum":
        agg = np.add.reduceat(pay64, cum)
    elif fn == "min":
        agg = np.minimum.reduceat(pay64, cum)
    elif fn == "max":
        agg = np.maximum.reduceat(pay64, cum)
    else:
        raise ValueError(f"unknown payload fn {fn!r}")
    if searcher.live_docs is not None:
        alive = searcher.live_docs.mask(docs)
        docs, agg = docs[alive], agg[alive]
    order = np.lexsort((docs, -agg))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, order.size + 1, dtype=np.int64)),
        "doc_id": pa.array(docs[order]),
        "score": pa.array(agg[order], pa.float64()),
    })


def payload_check(searcher: IndexSearcher, term: str,
                  expected: list[float]) -> np.ndarray:
    """SpanPayloadCheckQuery (``queries/.../payloads/
    SpanPayloadCheckQuery.java``) for a term span: doc ids whose
    occurrence-payload sequence for ``term`` equals ``expected``."""
    docs, tfs, pay = searcher.reader.term_payloads(term)
    want = np.asarray(expected, np.float32)
    out = []
    cum = np.zeros(docs.size + 1, np.int64)
    np.cumsum(tfs.astype(np.int64), out=cum[1:])
    for i in range(docs.size):
        seq = pay[cum[i]:cum[i + 1]]
        if seq.size == want.size and np.array_equal(seq, want):
            out.append(int(docs[i]))
    arr = np.asarray(out, np.int64)
    if searcher.live_docs is not None and arr.size:
        arr = arr[searcher.live_docs.mask(arr)]
    return arr


def elevate(searcher: IndexSearcher, q, elevated_docs: list[int],
            k: int = 10, *, excluded_docs: list[int] = ()):
    """QueryElevationComponent (``solr/core/.../handler/component/
    QueryElevationComponent.java``): pin the configured doc ids at the
    top of the result, in configuration order, then fill with the
    organic ranking excluding the pinned docs; ``excluded_docs`` never
    appear (elevate.xml ``<doc id=.. exclude="true"/>``). Returns
    pa.Table (rank, doc_id, elevated) — ``elevated`` is 1 for pinned
    rows."""
    import numpy as np
    import pyarrow as pa

    pinned = [int(d) for d in elevated_docs][:k]
    excl = np.asarray([int(d) for d in excluded_docs], np.int64)
    t = searcher.search(q, k=k + len(pinned) + excl.size)
    organic = t["doc_id"].to_numpy(zero_copy_only=False)
    drop = np.asarray(pinned, np.int64)
    if excl.size:
        drop = np.concatenate([drop, excl])
    mask = ~np.isin(organic, drop)
    fill = organic[mask][: max(k - len(pinned), 0)]
    docs = np.concatenate([np.asarray(pinned, np.int64), fill])[:k]
    flags = np.zeros(docs.size, np.int64)
    flags[: len(pinned)] = 1
    return pa.table({
        "rank": pa.array(np.arange(1, docs.size + 1, dtype=np.int64)),
        "doc_id": pa.array(docs, pa.int64()),
        "elevated": pa.array(flags, pa.int64()),
    })


def common_terms_query(searcher, terms: list[str], *,
                       max_tf_fraction: float = 0.01,
                       low_freq_msm: int = 1):
    """CommonTermsQuery (``lucene/queries/.../CommonTermsQuery.java``):
    split query terms by document frequency at ``max_tf_fraction`` of
    maxDoc. Rare (low-freq) terms drive matching (SHOULD with
    ``low_freq_msm``); common terms only CONTRIBUTE score on docs the
    rare terms already matched — the stopword-robust query shape that
    avoids scanning a stopword's full posting list as a match driver.
    With no rare terms, falls back to all-common OR (the reference's
    behavior). Returns a composed BooleanQuery."""
    from .query import BooleanQuery, TermQuery

    cutoff = max(1, int(max_tf_fraction * searcher.max_doc))
    low = [t for t in terms if 0 < searcher.doc_freq(t) <= cutoff]
    high = [t for t in terms if searcher.doc_freq(t) > cutoff]
    if not low:
        return BooleanQuery.build(
            should=[TermQuery(t) for t in high] or [TermQuery(t)
                                                    for t in terms])
    clauses = [("SHOULD", TermQuery(t)) for t in low]
    # high-freq terms: score-only SHOULD clauses; msm counts only the
    # low-freq group, which BooleanQuery models with msm over SHOULD —
    # so put the common terms in as zero-msm SHOULD via a nested query
    inner_low = BooleanQuery(tuple(clauses),
                             min_should_match=min(low_freq_msm,
                                                  len(low)))
    if not high:
        return inner_low
    return BooleanQuery.build(
        must=[inner_low],
        should=[TermQuery(t) for t in high])


def complex_phrase_query(searcher, phrase: str, *, slop: int = 0,
                         max_expansions: int = 128):
    """ComplexPhraseQueryParser (``lucene/queryparser/.../complexPhrase/
    ComplexPhraseQueryParser.java``): wildcards/prefixes INSIDE a quoted
    phrase — '"jo* smith"' — by expanding each wildcard slot against
    the term dictionary (bounded by ``max_expansions``, the rewrite's
    maxExpansions) and matching with MultiPhraseQuery position
    semantics. Plain slots analyze normally. Returns None when a
    wildcard slot has no dictionary expansion (no doc can match)."""
    from ..analysis import get_analyzer
    from .query import MultiPhraseQuery, PhraseQuery, TermQuery
    from .query import WildcardQuery

    ana = searcher.manifest.resolve_analyzer() \
        if hasattr(searcher.manifest, "resolve_analyzer") \
        else get_analyzer("standard")
    slots: list[tuple[str, ...]] = []
    for word in phrase.split():
        if "*" in word or "?" in word:
            terms = searcher._rewrite_terms(
                WildcardQuery(word.lower()))[:max_expansions]
            if not terms:
                return None
            slots.append(tuple(terms))
        else:
            toks = ana.tokens(word)
            if not toks:
                continue  # stopword position collapses (parser behavior)
            slots.append(tuple(toks))
    if not slots:
        return None
    if len(slots) == 1:
        return TermQuery(slots[0][0]) if len(slots[0]) == 1 else \
            MultiPhraseQuery((slots[0],))
    if all(len(s) == 1 for s in slots):
        return PhraseQuery(tuple(s[0] for s in slots), slop=slop)
    if slop:
        raise ValueError(
            "sloppy wildcard phrases are not supported (exact "
            "MultiPhrase only, like the parser's inOrder=true default)")
    return MultiPhraseQuery(tuple(slots))


def rank_passages(text: str, spans: list[tuple], idf_of: dict | None,
                  *, max_passages: int = 3,
                  pre: str = "<em>", post: str = "</em>"):
    """PostingsHighlighter passage ranking (``postingshighlight/
    PostingsHighlighter.java`` + PassageScorer): split the doc into
    sentence passages (BreakIterator.getSentenceInstance analogue:
    '.'/'?'/'!' + space boundaries), score each passage by the
    PassageScorer formula — sum over unique matched terms of
    weight(term) * tf-norm, weight = idf-like, tf-norm = 1/(1+ln(1+tf))
    inverted: tf/(tf+k) with k=1 keeps the reference's diminishing
    returns — and return the ``max_passages`` best, in document order,
    with match offsets wrapped.

    ``spans`` = [(start, end, term)] character offsets from the index's
    offset stream; ``idf_of`` maps term -> weight (None = 1.0 each).
    """
    import re as _re

    bounds = [0]
    for m in _re.finditer(r"[.!?]\s+", text):
        bounds.append(m.end())
    bounds.append(len(text))
    passages = [(bounds[i], bounds[i + 1])
                for i in range(len(bounds) - 1)
                if bounds[i] < bounds[i + 1]]

    scored = []
    for pi, (ps, pe) in enumerate(passages):
        inside = [(s, e, t) for (s, e, t) in spans if ps <= s < pe]
        if not inside:
            continue
        per_term: dict[str, int] = {}
        for _s, _e, t in inside:
            per_term[t] = per_term.get(t, 0) + 1
        score = 0.0
        for t, tf in per_term.items():
            w = (idf_of or {}).get(t, 1.0)
            score += w * (tf / (tf + 1.0))
        scored.append((score, pi, ps, pe, inside))
    scored.sort(key=lambda x: (-x[0], x[1]))
    top = sorted(scored[:max_passages], key=lambda x: x[1])

    out = []
    for score, _pi, ps, pe, inside in top:
        frag = text[ps:pe]
        # wrap matches back-to-front so offsets stay valid
        for s, e, _t in sorted(inside, key=lambda x: -x[0]):
            frag = (frag[: s - ps] + pre + frag[s - ps: e - ps]
                    + post + frag[e - ps:])
        out.append((score, frag.strip()))
    return out


def fuzzy_like_this(searcher: IndexSearcher, text: str, *,
                    max_num_terms: int = 50, max_edits: int = 1,
                    prefix_length: int = 0,
                    analyzer: str | None = None) -> Query:
    """FuzzyLikeThisQuery (``lucene/sandbox/src/java/org/apache/lucene/
    sandbox/queries/FuzzyLikeThisQuery.java``): fuzz each analyzed input
    term against the index vocabulary, score every variant by
    edit-similarity × idf (the reference's ScoreTermQueue ordering),
    keep the global top ``max_num_terms`` variants, and OR them with the
    similarity as a query-time boost (idf re-enters through BM25 at
    score time, mirroring the reference leaving tf×idf to the scorer).
    """
    from ..analysis import get_analyzer
    from .query import BoostQuery, FuzzyQuery

    ana = (get_analyzer(analyzer) if analyzer
           else searcher.manifest.resolve_analyzer())
    seen = set()
    scored: list[tuple[float, str, float]] = []
    for term in dict.fromkeys(ana.tokens(text)):   # order-stable unique
        if prefix_length and len(term) < prefix_length:
            continue
        variants = searcher._rewrite_terms(
            FuzzyQuery(term, max_edits=max_edits))
        for v in variants:
            if v in seen:
                continue
            if prefix_length and v[:prefix_length] != term[:prefix_length]:
                continue
            seen.add(v)
            dist = 0 if v == term else next(
                (k for k in range(1, max_edits + 1)
                 if _levenshtein_within(term, v, k)), max_edits)
            sim = 1.0 - dist / max(1, min(len(term), len(v)))
            df = searcher.doc_freq(v)
            if df == 0:
                continue
            rank = sim * float(bm25.idf(df, searcher.max_doc))
            scored.append((rank, v, sim))
    scored.sort(key=lambda x: (-x[0], x[1]))
    top = scored[:max_num_terms]
    if not top:
        return BooleanQuery.build()
    return BooleanQuery.build(should=[
        (TermQuery(v) if sim == 1.0 else BoostQuery(TermQuery(v), sim))
        for _r, v, sim in top
    ])
