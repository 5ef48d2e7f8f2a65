"""The four workloads. Each is a closed loop driven by one client in one
process: the next operation starts only when the previous one returned.

Every workload fills in the same end-to-end metrics, because every
workload must report every metric; README.md gives each metric's
meaning per workload and the name ISSUE-style reports use for it:

- ``setup_s``: median of the set-ups of the state the workload needs
  (see ``Run.setup_sample``);
- ``op_p50_ms`` / ``op_tail_ms``: latency of the workload's repeated
  operation, median and tail (see ``tail_percentile``);
- ``items_per_s``: documents made searchable per second (ingest: the
  corpus over the median build + merge round; nrt: one upsert's documents
  over the median publish), or queries answered per second of loop time
  (search, serve);
- ``index_bytes_per_input_byte``: index directory bytes over the corpus
  text's UTF-8 bytes.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pyarrow.parquet as pq

from gates import (
    Tally,
    check_merged_gate,
    hits,
    nrt_gate,
    oracle_gate,
    prune_gate,
    same_hits,
)
from inputs import (
    OR_CLASSES,
    QueryGen,
    UpsertGen,
    content_bytes,
    rng_for,
    term_bands,
    write_corpus,
    zipf_stream,
)
from spans import Tracer

# 4,000 documents, not the 50,000 of a full-size corpus: one build_index +
# merge_index of 50k documents takes 12-15 s on one core, and every run
# of every workload must fit the benchmark's whole-suite time budget
NUM_DOCS = 4000
QUERY_K = 10
SETUP_REPEATS = 7
WARMUP_QUERIES = 300
QUERY_CHUNK = 2000       # unique queries generated per refill
# search measures in blocks of this much loop time, each followed by its
# answer check, so the measurement spans twice the loop time: a shared
# host's speed can shift every few seconds, and one unbroken window
# catches one state
SEARCH_BLOCK_S = 1.0
# below the searcher's 256-entry result cache, so serve's pool fits it
SERVE_POOL = 200
NRT_BATCH_DOCS = 100
NRT_QUERIES = 200        # unique queries after each publish
# Every upsert appends a segment, and a publish gets slower with each one
# (about 260 ms for the first after a merge, 850 ms for the 19th), so a
# run that published until its time ran out would report a median that
# depends on how many publishes fit. nrt runs whole epochs instead: this
# many publishes on the merged index, then the index is put back.
NRT_EPOCH = 6
MIN_INGEST_ROUNDS = 4
GATE_QUERIES = 60


def tail_percentile(n: int) -> float:
    """p90, or with fewer than 100 samples the highest percentile that
    still has ten samples beyond it; the median below 20 samples.

    Not p99: on a one-core host shared with other machines, five serve
    runs of the same code gave p99 from 3.3 to 7.1 ms and p90 from 2.3
    to 3.4 ms. The per-workload report still prints p99."""
    if n >= 100:
        return 90.0
    if n < 20:
        return 50.0
    return 100.0 * (1.0 - 10.0 / n)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    nproc: int
    work: str
    tracer: Tracer
    traced: bool
    tally: Tally = field(default_factory=Tally)
    metrics: dict = field(default_factory=dict)   # end-to-end, by name
    # per-workload numbers under the names of the workload's own
    # operations (query_p50_ms, build_s, publish_p50_ms, ...), with units
    named: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)    # other detail numbers
    op_times: dict = field(default_factory=lambda: {False: [], True: []})
    # state the traced run's layer pass reuses
    corpus: object = None
    spare: object = None
    corpus_path: str = ""
    stream: list = field(default_factory=list)
    stream_prune: bool = False
    t_start: float = field(default_factory=time.perf_counter)

    @property
    def rows_per_partition(self) -> int:
        """At least four partitions, two per core, whole row groups."""
        parts = max(4, 2 * self.nproc)
        return -(-NUM_DOCS // (parts * 1000)) * 1000

    def op_block(self, i: int, block: int) -> None:
        """In the traced run, alternate untraced and traced blocks of
        operations, so the run also measures tracing overhead."""
        if self.traced:
            self.tracer.enabled = (i // block) % 2 == 1

    def op_done(self, seconds: float) -> None:
        self.op_times[self.tracer.enabled].append(seconds)

    def op_error(self, what: str) -> None:
        self.tally.fail(f"{what}: {traceback.format_exc(limit=3)}")

    def finish(self, lat_s: list[float], items_per_s: float,
               index_ratio: float) -> None:
        lat = np.asarray(lat_s) * 1e3
        tail = tail_percentile(lat.size)
        self.metrics.update({
            "op_p50_ms": float(np.percentile(lat, 50)),
            "op_tail_ms": float(np.percentile(lat, tail)),
            "items_per_s": items_per_s,
            "index_bytes_per_input_byte": index_ratio,
        })
        self.report.update({"op_samples": int(lat.size),
                            "op_tail_percentile": tail})

    def setup_sample(self, seconds: float) -> None:
        """One more set-up time; ``setup_s`` is the median of all of them.
        ingest and nrt also set up again between operations, so the
        samples span the run: the host's speed drifts within a run."""
        samples = self.report.setdefault("setup_samples_s", [])
        samples.append(seconds)
        self.metrics["setup_s"] = statistics.median(samples)

    def name(self, metric: str, value: float, unit: str) -> None:
        self.named[metric] = (value, unit)

    def mark(self, phase: str) -> None:
        """Record the seconds since the run started, at the end of a
        phase; the result file keeps them to show where a run's wall
        time goes."""
        self.report.setdefault("phase_end_s", {})[phase] = round(
            time.perf_counter() - self.t_start, 2)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def median_setup(run: Run, fn) -> object:
    """Time ``fn`` SETUP_REPEATS times, each a set-up sample."""
    obj = None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        obj = fn(i)
        run.setup_sample(time.perf_counter() - t0)
    return obj


def prepare_index(run: Run) -> str:
    """Seeded corpus -> build_index -> merge_index, untimed."""
    from lucene_solr_ray.index import build_index, merge_index

    run.corpus_path = os.path.join(run.work, "corpus.parquet")
    run.corpus, run.spare = write_corpus(run.corpus_path, NUM_DOCS,
                                         run.seed)
    run.mark("corpus")
    idx = os.path.join(run.work, "index")
    build_index(run.corpus_path, idx,
                rows_per_partition=run.rows_per_partition)
    merge_index(idx)
    run.report["index_ratio"] = dir_bytes(idx) / content_bytes(run.corpus)
    run.mark("index")
    return idx


def query_loop(run: Run, searcher, analyzer, items, lat: list,
               answers: list, budget_s: float, first_id: int,
               block: int = 100) -> tuple[float, int]:
    """Parse and run queries until ``budget_s`` of loop time is spent,
    keeping each (text, parsed query, result) for the check after the
    loop.
    Returns (loop seconds, queries run)."""
    from lucene_solr_ray.search import parse_query

    tr = run.tracer
    busy = 0.0
    n = 0
    for cls, text in items:
        if busy >= budget_s:
            break
        run.op_block(first_id + n, block)
        run.tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("op.query", first_id + n):
                with tr.span("search.queryparser.parse"):
                    q = parse_query(text, analyzer)
                with tr.span("search.searcher.search"):
                    res = searcher.search(q, k=QUERY_K)
        except Exception:
            run.op_error(f"query {text!r}")
            busy += time.perf_counter() - t0
            n += 1
            continue
        dt = time.perf_counter() - t0
        busy += dt
        lat.append(dt)
        run.op_done(dt)
        answers.append((text, q, res))
        n += 1
    return busy, n


def check_answers(run: Run, ref, answers: list) -> None:
    """Every timed answer must equal the answer of ``ref``, a separate
    exhaustive searcher on the same index version (no shared caches)."""
    for text, q, res in answers:
        if not same_hits(res, ref.search(q, k=QUERY_K)):
            run.tally.fail(f"timed answer != fresh searcher for {text!r}")


def name_queries(run: Run, lat_s: list[float]) -> None:
    lat = np.asarray(lat_s) * 1e3
    run.name("query_p50_ms", float(np.percentile(lat, 50)), "ms")
    run.name("query_p99_ms", float(np.percentile(lat, 99)), "ms")


# ---------------------------------------------------------------- ingest

def ingest(run: Run) -> None:
    """build_index + merge_index rounds over the seeded corpus."""
    from lucene_solr_ray.index import IndexManifest, build_index, merge_index

    tr = run.tracer
    run.corpus_path = os.path.join(run.work, "corpus.parquet")
    run.corpus, run.spare = write_corpus(run.corpus_path, NUM_DOCS,
                                         run.seed)
    input_bytes = content_bytes(run.corpus)
    small = os.path.join(run.work, "setup-corpus.parquet")
    pq.write_table(run.corpus.slice(0, 1000), small, row_group_size=1000)

    def setup(i):
        out = os.path.join(run.work, f"setup-{i}")
        build_index(small, out, rows_per_partition=1000)
        return out

    # the first Ray Data build and merge in a process start their worker
    # pools; time them apart so the set-up median is not one cold start
    t0 = time.perf_counter()
    merge_index(setup("cold"))
    run.report["cold_start_s"] = time.perf_counter() - t0
    median_setup(run, setup)

    rpp = run.rows_per_partition
    builds, merges = [], []
    busy = 0.0
    ratio = None
    r = 0
    while busy < run.seconds or r < MIN_INGEST_ROUNDS:
        out = os.path.join(run.work, f"round-{r}")
        run.op_block(r, 1)
        run.tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("op.ingest", r):
                with tr.span("index.build.build_index"):
                    build_index(run.corpus_path, out, rows_per_partition=rpp)
                t1 = time.perf_counter()
                with tr.span("index.merge.merge_index"):
                    merge_index(out)
        except Exception:
            run.op_error(f"ingest round {r}")
            busy += time.perf_counter() - t0
            r += 1
            if r > 4 * MIN_INGEST_ROUNDS and not builds:
                break
            continue
        t2 = time.perf_counter()
        busy += t2 - t0
        run.op_done(t2 - t0)
        builds.append(t1 - t0)
        merges.append(t2 - t1)
        # checks, outside the timed region
        man = IndexManifest.load(out)
        run.tally.check(man.max_doc == NUM_DOCS and man.merged,
                        f"round {r}: manifest max_doc={man.max_doc}")
        if ratio is None:
            check_merged_gate(run.tally, out)
            ratio = dir_bytes(out) / input_bytes
        shutil.rmtree(out)
        t0 = time.perf_counter()
        setup(f"after-{r}")
        run.setup_sample(time.perf_counter() - t0)
        r += 1
    oracle_gate(run.tally, run.corpus, run.work, run.seed)
    # op_p50_ms is the build and items_per_s covers build + merge, so
    # together they bound both halves of a round
    rounds = [b + m for b, m in zip(builds, merges)]
    run.report.update({"build_samples_s": builds, "merge_samples_s": merges})
    run.finish(builds, NUM_DOCS / statistics.median(rounds), ratio or 0.0)
    run.name("build_s", statistics.median(builds), "s")
    run.name("merge_s", statistics.median(merges), "s")
    run.name("ingest_docs_per_s", run.metrics["items_per_s"], "docs/s")
    run.name("index_bytes_per_input_byte", ratio or 0.0, "ratio")


# ---------------------------------------------------------------- search

def search(run: Run) -> None:
    """In-process IndexSearcher, library defaults, unique seeded queries."""
    from lucene_solr_ray.search import IndexSearcher

    idx = prepare_index(run)
    searcher = median_setup(run, lambda i: IndexSearcher(idx))
    ref = IndexSearcher(idx)
    run.mark("setup")
    ana = searcher.manifest.resolve_analyzer()
    qg = QueryGen(term_bands(searcher.reader, NUM_DOCS, ana),
                  rng_for(run.seed, "search"))
    seen: set = set()
    query_loop(run, searcher, ana, qg.unique(WARMUP_QUERIES, seen=seen),
               [], [], float("inf"), 0)
    lat: list = []
    busy = 0.0
    n = 0
    while busy < run.seconds:
        chunk = qg.unique(QUERY_CHUNK, seen=seen)
        answers: list = []
        b, k = query_loop(run, searcher, ana, chunk, lat, answers,
                          min(SEARCH_BLOCK_S, run.seconds - busy), n)
        check_answers(run, ref, answers)
        run.stream.extend(chunk[:k])
        busy += b
        n += k
    run.mark("loop")
    prune_gate(run.tally, idx,
               [t for _, t in qg.unique(GATE_QUERIES, classes=OR_CLASSES,
                                        weights=[1, 1, 1], seen=seen)],
               ana)
    oracle_gate(run.tally, run.corpus, run.work, run.seed)
    run.mark("gates")
    run.finish(lat, n / busy, run.report["index_ratio"])
    name_queries(run, lat)
    run.name("qps", run.metrics["items_per_s"], "queries/s")


# ---------------------------------------------------------------- serve

def serve(run: Run) -> None:
    """ServingPool (deployment defaults, nproc actors), one query per
    request, Zipf-repeated from a fixed pool."""
    import ray

    from lucene_solr_ray.search import IndexSearcher, parse_query
    from lucene_solr_ray.search.distributed import ServingPool

    tr = run.tracer
    idx = prepare_index(run)
    local = IndexSearcher(idx)
    ana = local.manifest.resolve_analyzer()
    qg = QueryGen(term_bands(local.reader, NUM_DOCS, ana),
                  rng_for(run.seed, "serve"))
    pool_q = qg.unique(SERVE_POOL)
    pools: list = []

    def start(i):
        for p in pools:
            for a in p.actors:
                ray.kill(a)
        pools[:] = [ServingPool(idx, num_actors=run.nproc)]
        return pools[0]

    pool = median_setup(run, start)
    order = zipf_stream(SERVE_POOL, 1_000_000, rng_for(run.seed, "zipf"))
    for j in order[:WARMUP_QUERIES]:
        pool.search_many([pool_q[j][1]])
    lat: list = []
    answers: list = []
    busy = 0.0
    n = 0
    for j in order[WARMUP_QUERIES:]:
        if busy >= run.seconds:
            break
        run.op_block(n, 100)
        run.tally.attempted += 1
        text = pool_q[j][1]
        t0 = time.perf_counter()
        try:
            with tr.span("op.request", n):
                with tr.span("search.distributed.search_many"):
                    res = pool.search_many([text])
        except Exception:
            run.op_error(f"request {text!r}")
            busy += time.perf_counter() - t0
            n += 1
            continue
        dt = time.perf_counter() - t0
        busy += dt
        lat.append(dt)
        run.op_done(dt)
        answers.append((j, res))
        run.stream.append(pool_q[j])
        n += 1
    run.stream_prune = True
    for a in pool.actors:
        ray.kill(a)
    # every answer must equal the in-process searcher's (library defaults)
    want = {j: hits(local.search(parse_query(pool_q[j][1], ana), k=QUERY_K))
            for j in set(int(j) for j, _ in answers)}
    for j, res in answers:
        if hits(res) != want[int(j)]:
            run.tally.fail(f"served != in-process for {pool_q[j][1]!r}")
    # the same request stream in-process, as an actor answers it (parsed
    # query and result caches, prune=True): what the Ray hop adds
    inproc = IndexSearcher(idx)
    parsed: dict = {}
    for _, text in pool_q:
        parsed[text] = parse_query(text, ana)
    for j in order[:WARMUP_QUERIES]:
        inproc.search(parsed[pool_q[j][1]], k=QUERY_K, prune=True)
    local_lat = []
    for _, text in run.stream:
        t0 = time.perf_counter()
        inproc.search(parsed[text], k=QUERY_K, prune=True)
        local_lat.append(time.perf_counter() - t0)
    prune_gate(run.tally, idx, [t for _, t in pool_q[:GATE_QUERIES]], ana)
    oracle_gate(run.tally, run.corpus, run.work, run.seed)
    run.finish(lat, n / busy, run.report["index_ratio"])
    name_queries(run, lat)
    run.name("qps", run.metrics["items_per_s"], "queries/s")
    # requests whose query text came before in the run (warm-up included):
    # with the pool inside both actor caches, the share served from cache
    asked = set(order[:WARMUP_QUERIES].tolist())
    repeats = 0
    for j in order[WARMUP_QUERIES:WARMUP_QUERIES + n].tolist():
        repeats += j in asked
        asked.add(j)
    run.name("repeat_share", repeats / max(n, 1), "ratio")
    inproc_p50 = 1e3 * float(np.percentile(local_lat, 50))
    run.name("inprocess_p50_ms", inproc_p50, "ms")
    run.name("hop_share", 1.0 - inproc_p50 / run.metrics["op_p50_ms"],
             "ratio")


# ---------------------------------------------------------------- nrt

def publish(run: Run, idx: str, mgr, ups: UpsertGen, rid) -> float:
    """One keyed upsert, timed until the new version is searchable."""
    from lucene_solr_ray.index import update_documents

    tr = run.tracer
    batch, fids, replaced = ups.next_batch()
    run.tally.attempted += 1
    t0 = time.perf_counter()
    with tr.span("op.publish", rid):
        with tr.span("index.updates.update_documents"):
            res = update_documents(idx, batch, "path")
        with tr.span("search.searcher.reopen"):
            changed = mgr.maybe_refresh()
    dt = time.perf_counter() - t0
    new_ids = ups.published(fids)
    run.tally.check(changed and res["deleted"] == len(replaced),
                    f"publish {rid}: refreshed={changed} deleted="
                    f"{res['deleted']} want {len(replaced)}")
    nrt_gate(run.tally, mgr.acquire(), ups, fids, new_ids, replaced)
    return dt


def nrt(run: Run) -> None:
    """Keyed upserts with a reopen after each, then unique queries, in
    epochs of NRT_EPOCH publishes that each start from the merged index."""
    from lucene_solr_ray.search import IndexSearcher, SearcherManager

    idx = prepare_index(run)
    merged = os.path.join(run.work, "merged")
    shutil.copytree(idx, merged)
    mgr = median_setup(run, lambda i: SearcherManager(idx))
    s0 = mgr.acquire()
    ana = s0.manifest.resolve_analyzer()
    qg = QueryGen(term_bands(s0.reader, NUM_DOCS, ana),
                  rng_for(run.seed, "nrt"))
    ups = UpsertGen(run.corpus, run.spare, run.seed, NRT_BATCH_DOCS)
    seen: set = set()
    publish(run, idx, mgr, ups, "warmup")  # first update: untimed
    lat: list = []
    pubs: list = []
    busy = 0.0
    n = 0
    c = 0
    while busy < run.seconds:
        # untimed: back to the merged index, no upsert applied
        shutil.rmtree(idx)
        shutil.copytree(merged, idx)
        ups.reset()
        t0 = time.perf_counter()
        mgr = SearcherManager(idx)
        run.setup_sample(time.perf_counter() - t0)
        for _ in range(NRT_EPOCH):
            run.op_block(c, 1)
            t0 = time.perf_counter()
            try:
                dt = publish(run, idx, mgr, ups, c)
            except Exception:
                run.op_error(f"publish {c}")
                busy += time.perf_counter() - t0
                c += 1
                continue
            pubs.append(dt)
            chunk = qg.unique(NRT_QUERIES, seen=seen)
            answers: list = []
            b, k = query_loop(run, mgr.acquire(), ana, chunk, lat, answers,
                              float("inf"), n, block=NRT_QUERIES)
            # checked before the next publish changes the index
            check_answers(run, IndexSearcher(idx), answers)
            run.stream.extend(chunk)
            busy += dt + b
            n += k
            c += 1
    oracle_gate(run.tally, run.corpus, run.work, run.seed)
    run.report["publish_samples_s"] = pubs
    run.finish(lat, NRT_BATCH_DOCS / statistics.median(pubs),
               run.report["index_ratio"])
    name_queries(run, lat)
    run.name("publish_p50_ms", 1e3 * statistics.median(pubs), "ms")


WORKLOADS = {"ingest": ingest, "search": search, "serve": serve, "nrt": nrt}
