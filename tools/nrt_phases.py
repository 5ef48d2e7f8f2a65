"""NRT publish phases of two checkouts of the engine, side by side.

    python tools/nrt_phases.py BASE CHANGE [--seed 707] [--rounds 4]
        [--epochs 2] [--work DIR]

perfbench's ``nrt`` workload times each publish (``update_documents`` +
``SearcherManager.maybe_refresh``) as a whole. This script splits it.
It writes the perfbench corpus (``perfbench/inputs.py:write_corpus(path,
4000, seed)``), then, in one subprocess per checkout (``PYTHONPATH`` set
to it), builds and merges the index as ``nrt`` does
(``rows_per_partition=1000``). Then it runs ``--rounds`` rounds; each
round runs one subprocess per checkout, the two in alternating order,
and each subprocess runs ``--epochs`` epochs of perfbench's ``nrt``
publishes without starting Ray: a warm-up publish, then per epoch a
fresh copy of the merged index, a new ``SearcherManager`` and 6 upserts
of 100 documents from ``perfbench/inputs.py:UpsertGen``, each followed,
untimed, by what ``nrt`` runs between publishes: 200 unique queries
from its ``QueryGen`` on the reopened searcher and on a fresh one.

Each phase is timed by wrapping the engine function that does it:

- update: ``manifest`` (``IndexManifest.load``), ``key lookup``
  (``updates._matching_doc_ids``), ``live docs``
  (``LiveDocs`` built inside ``update_documents``), ``segment build``
  (``updates._append``: the append file and its segment), ``delete
  write`` (``deletes.write_deletes``) and ``commit``
  (``IndexManifest.commit``);
- reopen: ``manifest`` (``IndexManifest.load``), ``terms``
  (``MergedReader``), ``norms`` (``NormsReader``) and ``live docs``
  (``LiveDocs``).

It prints, for each side, the median of each phase at each position in
the epoch (in ms), and the median publish by position with the 6th
against the 1st. A phase a checkout does not run prints as ``-``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PHASES = [
    ("update", "manifest"), ("update", "key lookup"), ("update", "live docs"),
    ("update", "segment build"), ("update", "delete write"),
    ("update", "commit"), ("update", "total"),
    ("reopen", "manifest"), ("reopen", "terms"), ("reopen", "norms"),
    ("reopen", "live docs"), ("reopen", "total"),
    ("publish", "total"),
]


def _bench_path(checkouts: list[str]) -> str:
    return next(os.path.join(c, "perfbench") for c in checkouts
                if os.path.exists(os.path.join(c, "perfbench", "inputs.py")))


def prepare(corpus: str, out: str) -> None:
    """Runs under one checkout: build and merge the index into ``out``."""
    import ray

    from lucene_solr_ray.index import build_index, merge_index

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    try:
        build_index(corpus, out, rows_per_partition=1000)
    finally:
        ray.shutdown()
    merge_index(out)


class _Clock:
    """Sums the time spent in wrapped functions under the phase of the
    outermost wrapped call (``update`` or ``reopen``)."""

    def __init__(self):
        self.scope = None
        self.sample: dict = {}

    def add(self, name: str, dt: float) -> None:
        key = f"{self.scope} / {name}"
        self.sample[key] = self.sample.get(key, 0.0) + 1e3 * dt

    def wrap(self, fn, name: str, scope: str | None = None):
        clock = self

        def timed(*a, **kw):
            outer = clock.scope
            if scope is not None:
                clock.scope = scope
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                dt = time.perf_counter() - t0
                if clock.scope is not None:
                    clock.add(name, dt)
                clock.scope = outer
        return timed


def _instrument(clock: _Clock) -> None:
    """Wrap each phase's engine function in ``clock``."""
    from lucene_solr_ray.index import build, deletes, updates
    from lucene_solr_ray.search import readers, searcher

    updates.update_documents = clock.wrap(
        updates.update_documents, "total", "update")
    searcher.SearcherManager.maybe_refresh = clock.wrap(
        searcher.SearcherManager.maybe_refresh, "total", "reopen")
    updates._matching_doc_ids = clock.wrap(
        updates._matching_doc_ids, "key lookup")
    updates._append = clock.wrap(updates._append, "segment build")
    updates.write_deletes = clock.wrap(updates.write_deletes,
                                       "delete write")
    build.IndexManifest.commit = clock.wrap(build.IndexManifest.commit,
                                            "commit")
    load = build.IndexManifest.load.__func__
    build.IndexManifest.load = classmethod(clock.wrap(load, "manifest"))
    for cls, name in ((readers.MergedReader, "terms"),
                      (readers.NormsReader, "norms"),
                      (deletes.LiveDocs, "live docs")):
        cls.__init__ = clock.wrap(cls.__init__, name)


def epochs(bench: str, corpus: str, spare: str, merged: str, work: str,
           seed: int, n: int, out: str) -> None:
    """Runs under one checkout: ``n`` epochs of timed publishes."""
    import pyarrow.parquet as pq

    sys.path.insert(0, bench)
    from inputs import QueryGen, UpsertGen, rng_for, term_bands
    from workloads import (NRT_BATCH_DOCS, NRT_EPOCH, NRT_QUERIES, NUM_DOCS,
                           QUERY_K)

    from lucene_solr_ray.index import updates
    from lucene_solr_ray.search import (IndexSearcher, SearcherManager,
                                        parse_query)

    clock = _Clock()
    _instrument(clock)
    ups = UpsertGen(pq.read_table(corpus), pq.read_table(spare), seed,
                    NRT_BATCH_DOCS)
    idx = os.path.join(work, "index")
    qg, seen = None, set()

    def queries() -> None:
        """nrt's untimed work after a publish: unique queries on the
        reopened searcher, then the same on a fresh one."""
        chunk = qg.unique(NRT_QUERIES, seen=seen)
        qs = [parse_query(text, ana) for _, text in chunk]
        for s in (mgr.acquire(), IndexSearcher(idx)):
            for q in qs:
                s.search(q, k=QUERY_K)

    def publish() -> dict:
        batch, fids, replaced = ups.next_batch()
        clock.sample = {}
        t0 = time.perf_counter()
        res = updates.update_documents(idx, batch, "path")
        changed = mgr.maybe_refresh()
        clock.sample["publish / total"] = 1e3 * (time.perf_counter() - t0)
        ups.published(fids)
        if not changed or res["deleted"] != len(replaced):
            raise AssertionError(f"publish: refreshed={changed} "
                                 f"deleted={res['deleted']}")
        return clock.sample

    samples = []
    for e in range(n + 1):
        if os.path.exists(idx):
            shutil.rmtree(idx)
        shutil.copytree(merged, idx)
        ups.reset()
        mgr = SearcherManager(idx)
        if e == 0:
            ana = mgr.acquire().manifest.resolve_analyzer()
            qg = QueryGen(term_bands(mgr.acquire().reader, NUM_DOCS, ana),
                          rng_for(seed, "nrt"))
            publish()  # warm-up, untimed
            continue
        for pos in range(NRT_EPOCH):
            samples.append({"pos": pos, **publish()})
            queries()
    with open(out, "w") as f:
        json.dump(samples, f)


def _table(label: str, samples: list[dict], epoch: int) -> list[float]:
    """Print one side's medians; returns the publish median by position."""
    print(f"\n{label}: median ms by position in the epoch "
          f"({len(samples) // epoch} epochs)")
    print(f"{'phase':<26}" + "".join(f"{p + 1:>8}" for p in range(epoch))
          + f"{'all':>8}")
    pub = []
    for scope, name in PHASES:
        key = f"{scope} / {name}"
        row, cells = [], []
        for p in range(epoch):
            vals = [s[key] for s in samples if s["pos"] == p and key in s]
            row += vals
            cells.append(f"{statistics.median(vals):8.1f}" if vals
                         else f"{'-':>8}")
            if key == "publish / total":
                pub.append(statistics.median(vals))
        cells.append(f"{statistics.median(row):8.1f}" if row else f"{'-':>8}")
        print(f"{key:<26}" + "".join(cells))
    return pub


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--seed", type=int, default=707)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--epochs", type=int, default=2,
                    help="epochs per checkout per round")
    ap.add_argument("--work", default=None,
                    help="directory for the corpus and the indexes "
                         "(default: a new temporary directory)")
    ap.add_argument("--prepare", nargs=2, metavar=("CORPUS", "OUT"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--epochs-worker", nargs=6,
                    metavar=("BENCH", "CORPUS", "SPARE", "MERGED", "WORK",
                             "OUT"), help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if a.prepare:
        prepare(*a.prepare)
        return 0
    if a.epochs_worker:
        bench, corpus, spare, merged, work, out = a.epochs_worker
        epochs(bench, corpus, spare, merged, work, a.seed, a.epochs, out)
        return 0
    if not (a.base and a.change):
        ap.error("BASE and CHANGE checkouts are required")
    work = a.work or tempfile.mkdtemp(prefix="nrt_phases_")
    os.makedirs(work, exist_ok=True)
    checkouts = [os.path.abspath(a.base), os.path.abspath(a.change)]
    labels = ("base", "change")
    bench = _bench_path(checkouts)
    sys.path[:0] = [os.path.dirname(bench), bench]
    import pyarrow.parquet as pq
    from inputs import write_corpus
    from workloads import NRT_EPOCH, NUM_DOCS

    corpus = os.path.join(work, "corpus.parquet")
    spare = os.path.join(work, "spare.parquet")
    _, spare_tbl = write_corpus(corpus, NUM_DOCS, a.seed)
    pq.write_table(spare_tbl, spare)

    def run(ck: str, *args: str) -> None:
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--seed", str(a.seed), "--epochs", str(a.epochs),
                        *args],
                       env=dict(os.environ, PYTHONPATH=ck), cwd=ck,
                       check=True)

    merged = {}
    for label, ck in zip(labels, checkouts):
        merged[label] = os.path.join(work, label, "merged")
        if os.path.exists(merged[label]):
            shutil.rmtree(merged[label])
        run(ck, "--prepare", corpus, merged[label])
    samples = {label: [] for label in labels}
    for r in range(a.rounds):
        order = list(zip(labels, checkouts))
        for label, ck in order if r % 2 == 0 else order[::-1]:
            out = os.path.join(work, label, f"round-{r}.json")
            run(ck, "--epochs-worker", bench, corpus, spare, merged[label],
                os.path.join(work, label), out)
            with open(out) as f:
                samples[label] += json.load(f)
    for label in labels:
        pub = _table(label, samples[label], NRT_EPOCH)
        print(f"{label}: publish median {statistics.median(pub):.1f} ms; "
              f"6th / 1st {pub[-1] / pub[0]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
