"""The traced run's layer pass: time the calls into each layer of the
package from the benchmark's own code, and derive the per-layer metrics.

The pass is the same on every workload (a fresh index over the
workload's seeded corpus), except that the two cache hit ratios replay
the workload's own query stream, and ``trace.overhead_ratio`` compares
the workload's traced and untraced operations.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from inputs import CLASSES, OR_CLASSES, QueryGen, UpsertGen, rng_for, \
    term_bands
from workloads import NRT_BATCH_DOCS, NUM_DOCS, QUERY_K, Run, dir_bytes

PER_CLASS = 300        # queries per class for per-class latencies
COLD_TERMS = 1000      # first-time postings reads
HOT_TERMS = 100        # highest-df terms for decode and chunk counts
EMPTY_REQUESTS = 200
PUBLISHES = 4
ABSENT_TERM = "zqxjkvabsentterm"

# (metric, unit); the README explains which end-to-end metric each moves
PER_LAYER = [
    ("analysis.busy_s", "s"),
    ("analysis.mb_per_s", "MB/s"),
    ("analysis.tokens", "count"),
    ("index.build.segment_busy_s", "s"),
    ("index.build.ray_overhead_s", "s"),
    ("codec.bytes_per_posting", "bytes"),
    ("codec.decode_mb_per_s", "MB/s"),
    ("index.merge.busy_s", "s"),
    ("index.merge.bytes_rewritten", "bytes"),
    ("index.merge.chunks_per_hot_term.merged", "count"),
    ("index.merge.chunks_per_hot_term.nrt", "count"),
    ("index.updates.update_ms", "ms"),
    ("search.queryparser.parse_us", "us"),
    ("search.readers.postings_cold_ms.p50", "ms"),
    ("search.readers.postings_cold_ms.p99", "ms"),
    ("search.readers.postings_hit_ratio", "ratio"),
    ("search.readers.result_hit_ratio", "ratio"),
    *[(f"search.searcher.search_ms.{c}.{p}", "ms")
      for c in CLASSES for p in ("p50", "p99")],
    ("search.searcher.reopen_ms", "ms"),
    ("search.searcher.open_s", "s"),
    ("search.searcher.rss_mb", "MB"),
    *[(f"search.wand.search_ms.{c}", "ms") for c in OR_CLASSES],
    ("search.wand.speedup", "ratio"),
    ("search.distributed.empty_request_ms", "ms"),
    ("search.distributed.pool_start_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def _ms(xs) -> np.ndarray:
    return np.asarray(xs) * 1e3


def _timed(tr, name: str, fn, *args, **kw):
    with tr.span(name):
        return fn(*args, **kw)


def layer_pass(run: Run) -> dict:
    import ray

    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.codec import decode_postings
    from lucene_solr_ray.index import (
        build_index,
        build_segment,
        merge_index,
        plan_partitions,
        update_documents,
    )
    from lucene_solr_ray.search import (
        IndexSearcher,
        SearcherManager,
        parse_query,
    )
    from lucene_solr_ray.search.distributed import ServingPool, query_terms

    tr = run.tracer
    tr.enabled = True
    m: dict = {}
    rpp = run.rows_per_partition
    ana = get_analyzer("standard")
    texts = run.corpus["content"].to_pylist()

    # analysis: the batch tokenizer the segment build uses
    tok = getattr(ana, "tokens_batch_factorized", None)
    ntok = 0
    for i in range(0, len(texts), 2000):
        part = texts[i:i + 2000]
        with tr.span("analysis.tokens_batch"):
            res = tok(part) if tok is not None else None
            if res is None:
                res = ana.tokens_batch(part)
        ntok += len(res[-2])  # doc index per token
    busy = sum(tr.durations("analysis.tokens_batch"))
    text_mb = sum(len(t.encode()) for t in texts) / 1e6
    m.update({"analysis.busy_s": busy, "analysis.tokens": ntok,
              "analysis.mb_per_s": text_mb / busy})

    # index.build: Ray pipeline wall time vs the segment builds it runs
    idx = os.path.join(run.work, "layer-index")
    t0 = time.perf_counter()
    man = _timed(tr, "index.build.build_index", build_index,
                 run.corpus_path, idx, rows_per_partition=rpp)
    build_wall = time.perf_counter() - t0
    seg_out = os.path.join(run.work, "layer-segments")
    for part in plan_partitions(run.corpus_path, rpp):
        _timed(tr, "index.build.build_segment", build_segment, part, seg_out,
               text_field=man.field, analyzer_name=man.analyzer,
               byte_aligned=man.byte_aligned)
    seg_busy = sum(tr.durations("index.build.build_segment"))
    m.update({"index.build.segment_busy_s": seg_busy,
              "index.build.ray_overhead_s": build_wall - seg_busy})

    # codec: segment payload bytes per posting
    bins = os.path.join(idx, "segments")
    bin_bytes = sum(os.path.getsize(os.path.join(bins, f))
                    for f in os.listdir(bins) if f.endswith(".bin"))
    postings = sum(p["num_postings"] for p in man.partitions)
    m["codec.bytes_per_posting"] = bin_bytes / postings

    # index.merge
    t0 = time.perf_counter()
    _timed(tr, "index.merge.merge_index", merge_index, idx)
    m["index.merge.busy_s"] = time.perf_counter() - t0
    mdir = os.path.join(idx, "merged")
    m["index.merge.bytes_rewritten"] = sum(
        os.path.getsize(os.path.join(mdir, f)) for f in os.listdir(mdir)
        if f.endswith(".bin"))

    # search.searcher open time and resident memory
    opens = []
    for _ in range(3):
        rss0 = _rss_mb()
        t0 = time.perf_counter()
        s = _timed(tr, "search.searcher.open", IndexSearcher, idx)
        opens.append(time.perf_counter() - t0)
    m["search.searcher.open_s"] = statistics.median(opens)
    m["search.searcher.rss_mb"] = _rss_mb() - rss0

    bands = term_bands(s.reader, NUM_DOCS, ana)
    hot = sorted(bands["head"].tolist(),
                 key=lambda t: -s.reader.doc_freqs([t])[t])[:HOT_TERMS]

    def chunks_per_hot_term(reader) -> float:
        return float(np.mean([len(reader.chunks(t)) for t in hot]))

    m["index.merge.chunks_per_hot_term.merged"] = chunks_per_hot_term(
        s.reader)

    # codec decode over hot-term payloads
    nbytes = 0
    for t in hot:
        for c in s.reader.chunks(t):
            nbytes += len(c.payload)
            _timed(tr, "codec.decode_postings", decode_postings, c.payload)
    m["codec.decode_mb_per_s"] = nbytes / 1e6 / sum(
        tr.durations("codec.decode_postings"))

    qg = QueryGen(bands, rng_for(run.seed, "layers"))
    by_class = {c: qg.unique(PER_CLASS, classes=(c,), weights=[1])
                for c in CLASSES}

    # search.queryparser
    parsed = {}
    for c in CLASSES:
        for _, text in by_class[c]:
            parsed[text] = _timed(tr, "search.queryparser.parse",
                                  parse_query, text, ana)
    m["search.queryparser.parse_us"] = 1e6 * statistics.median(
        tr.durations("search.queryparser.parse"))

    # search.readers: first-time postings reads on a fresh searcher
    cold = IndexSearcher(idx)
    terms = sorted({t for q in parsed.values() for t in query_terms(q)})
    rng = rng_for(run.seed, "cold")
    for t in rng.permutation(np.array(terms, dtype=object))[:COLD_TERMS]:
        _timed(tr, "search.readers.postings", cold.reader.postings, t)
    pc = _ms(tr.durations("search.readers.postings"))
    m["search.readers.postings_cold_ms.p50"] = float(np.percentile(pc, 50))
    m["search.readers.postings_cold_ms.p99"] = float(np.percentile(pc, 99))

    # search.searcher per query class (library defaults, fresh searcher)
    ex = IndexSearcher(idx)
    for c in CLASSES:
        for _, text in by_class[c]:
            _timed(tr, f"search.searcher.search.{c}", ex.search,
                   parsed[text], k=QUERY_K)
        d = _ms(tr.durations(f"search.searcher.search.{c}"))
        m[f"search.searcher.search_ms.{c}.p50"] = float(np.percentile(d, 50))
        m[f"search.searcher.search_ms.{c}.p99"] = float(np.percentile(d, 99))

    # search.wand: pruned on a fresh searcher, same OR queries
    pr = IndexSearcher(idx)
    ex_total = pr_total = 0.0
    for c in OR_CLASSES:
        for _, text in by_class[c]:
            _timed(tr, f"search.wand.search.{c}", pr.search, parsed[text],
                   k=QUERY_K, prune=True)
        d = tr.durations(f"search.wand.search.{c}")
        m[f"search.wand.search_ms.{c}"] = float(np.percentile(_ms(d), 50))
        pr_total += sum(d)
        ex_total += sum(tr.durations(f"search.searcher.search.{c}"))
    m["search.wand.speedup"] = ex_total / pr_total

    # search.readers hit ratios: replay the workload's stream, peeking the
    # result LRU and the postings LRU before each call
    rs = IndexSearcher(idx)
    stream = run.stream or [x for c in CLASSES for x in by_class[c]]
    res_hits = post_hits = post_total = 0
    for _, text in stream[:5000]:
        q = parse_query(text, ana)
        res_hits += ("qr", q, QUERY_K, None, run.stream_prune) \
            in rs._result_cache
        for t in query_terms(q):
            post_total += 1
            post_hits += ("p", t) in rs.reader._cache
        rs.search(q, k=QUERY_K, prune=run.stream_prune)
    m["search.readers.result_hit_ratio"] = res_hits / min(len(stream), 5000)
    m["search.readers.postings_hit_ratio"] = post_hits / max(post_total, 1)

    # search.distributed: pool start and the pure round trip
    t0 = time.perf_counter()
    pool = _timed(tr, "search.distributed.pool_start", ServingPool, idx,
                  num_actors=run.nproc)
    m["search.distributed.pool_start_s"] = time.perf_counter() - t0
    for i in range(EMPTY_REQUESTS):
        with tr.span("search.distributed.empty_request", i):
            res = pool.search_many([ABSENT_TERM])
        run.tally.check(res.num_rows == 0, "absent term returned hits")
    m["search.distributed.empty_request_ms"] = float(np.percentile(
        _ms(tr.durations("search.distributed.empty_request")), 50))
    for a in pool.actors:
        ray.kill(a)

    # index.updates + reopen, then chunk growth on hot terms
    mgr = SearcherManager(idx)
    ups = UpsertGen(run.corpus, run.spare, run.seed, NRT_BATCH_DOCS)
    for i in range(PUBLISHES + 1):
        batch, fids, _ = ups.next_batch()
        with tr.span("index.updates.update_documents", i):
            update_documents(idx, batch, "path")
        with tr.span("search.searcher.reopen", i):
            mgr.maybe_refresh()
        ups.published(fids)
    # the first update in a process is a cold start; skip it
    upd = _ms(tr.durations("index.updates.update_documents")[-PUBLISHES:])
    reo = _ms(tr.durations("search.searcher.reopen")[-PUBLISHES:])
    m["index.updates.update_ms"] = float(np.median(upd))
    m["search.searcher.reopen_ms"] = float(np.median(reo))
    m["index.merge.chunks_per_hot_term.nrt"] = chunks_per_hot_term(
        mgr.acquire().reader)

    # tracing overhead: traced over untraced operations of the workload
    ot = run.op_times
    m["trace.overhead_ratio"] = (
        float(np.mean(ot[True]) / np.mean(ot[False]))
        if ot[True] and ot[False] else 1.0)
    run.report["layer_index_bytes"] = dir_bytes(idx)
    return m
