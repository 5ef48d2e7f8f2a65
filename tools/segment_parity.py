"""Segment parity between two checkouts of the engine.

    python tools/segment_parity.py BASE CHANGE [--seed 701] [--docs 4000]
        [--work DIR]

A change to analysis or to the segment build must leave every segment
the same. This script writes the perfbench corpus
(``perfbench/inputs.py:write_corpus(path, docs, seed)``) and, in one
subprocess per checkout (``PYTHONPATH`` set to it, so its Ray workers
import it too), builds it with ``rows_per_partition=1000`` in three
configurations: ``standard``; ``standard`` with positions and offsets;
and ``english``. It then reports, per configuration and partition,
whether the segment terms tables (``segments/part-*.parquet``) are
equal as tables and the ``.bin`` and norms files byte-identical.

Each subprocess also writes the ``standard`` token stream
(``tokens_batch_factorized``) of the corpus and spare documents in
1,000-doc batches, which must be identical (vocabulary list, codes,
doc_idx, positions, starts, ends, dtypes included), and times the
stream of a batch of mostly non-ASCII documents (median of 7 runs).

The exit status is 0 when everything is equal. Run it from a checkout
whose ``perfbench/`` writes the corpus (the first of BASE and CHANGE
that has it is used).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time

CONFIGS = {
    "standard": {},
    "positions_offsets": {"store_positions": True, "store_offsets": True},
    "english": {"analyzer": "english"},
}
BATCH = 1000


def _non_ascii_batch(texts: list[str], seed: int) -> list[str]:
    """``BATCH`` documents of which nine in ten carry non-ASCII words
    (accented Latin, Cyrillic, CJK, Arabic digits, a combining mark, NBSP
    and U+3000) spliced in at random spaces."""
    import numpy as np

    words = ["café", "Жук", "日本語", "naïve", "1,٣", "é.x", "_é_",
             "\u0301ét", "a\u00a0b", "中\u3000文", "Straße", "ｶﾀｶﾅ"]
    rng = np.random.default_rng(seed)
    out = []
    for t in texts[:BATCH]:
        if rng.random() < 0.9:
            parts = t.split(" ")
            for _ in range(1 + len(parts) // 20):
                k = int(rng.integers(len(parts)))
                parts[k] = parts[k] + " " + words[rng.integers(len(words))]
            t = " ".join(parts)
        out.append(t)
    return out


def worker(corpus: str, spare: str, out: str, seed: int) -> None:
    """Runs under one checkout: build every configuration, write the
    stream and the timing."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.index import build_index

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    try:
        for name, kw in CONFIGS.items():
            build_index(corpus, os.path.join(out, name),
                        text_field="content", rows_per_partition=1000, **kw)
    finally:
        ray.shutdown()
    texts = pq.read_table(corpus)["content"].to_pylist() + \
        pq.read_table(spare)["content"].to_pylist()
    ana = get_analyzer("standard")
    streams = [ana.tokens_batch_factorized(texts[i:i + BATCH])
               for i in range(0, len(texts), BATCH)]
    with open(os.path.join(out, "stream.pkl"), "wb") as f:
        pickle.dump([(s[0], *map(np.asarray, s[1:])) for s in streams], f)
    batch = _non_ascii_batch(texts, seed)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        ana.tokens_batch_factorized(batch)
        times.append(time.perf_counter() - t0)
    with open(os.path.join(out, "timing.json"), "w") as f:
        json.dump({"non_ascii_batch_ms": 1e3 * float(np.median(times)),
                   "non_ascii_docs": sum(not t.isascii() for t in batch)}, f)


def _files_equal(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def compare(base: str, change: str) -> list[str]:
    """Differences between the two worker outputs (empty when equal)."""
    import numpy as np
    import pyarrow.parquet as pq

    diffs = []
    for name in CONFIGS:
        for sub in ("segments", "norms"):
            da, db = (os.path.join(d, name, sub) for d in (base, change))
            fa, fb = sorted(os.listdir(da)), sorted(os.listdir(db))
            if fa != fb:
                diffs.append(f"{name}/{sub}: files {fa} != {fb}")
                continue
            for f in fa:
                pa_, pb = os.path.join(da, f), os.path.join(db, f)
                if sub == "segments" and f.endswith(".parquet"):
                    same = pq.read_table(pa_).equals(pq.read_table(pb))
                else:
                    same = _files_equal(pa_, pb)
                print(f"{name}/{sub}/{f}: {'equal' if same else 'DIFFERS'}")
                if not same:
                    diffs.append(f"{name}/{sub}/{f}")
    with open(os.path.join(base, "stream.pkl"), "rb") as f:
        sa = pickle.load(f)
    with open(os.path.join(change, "stream.pkl"), "rb") as f:
        sb = pickle.load(f)
    same = len(sa) == len(sb) and all(
        x[0] == y[0] and all(u.dtype == v.dtype and np.array_equal(u, v)
                             for u, v in zip(x[1:], y[1:]))
        for x, y in zip(sa, sb))
    print(f"stream of {len(sa)} batches, "
          f"{sum(len(x[1]) for x in sa)} tokens: "
          f"{'identical' if same else 'DIFFERS'}")
    if not same:
        diffs.append("stream")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--docs", type=int, default=4000)
    ap.add_argument("--work", default=None,
                    help="directory for the corpus and the indexes "
                         "(default: a new temporary directory)")
    ap.add_argument("--worker", nargs=3, metavar=("CORPUS", "SPARE", "OUT"),
                    help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if a.worker:
        worker(*a.worker, a.seed)
        return 0
    if not (a.base and a.change):
        ap.error("BASE and CHANGE checkouts are required")
    work = a.work or tempfile.mkdtemp(prefix="segment_parity_")
    os.makedirs(work, exist_ok=True)
    checkouts = [os.path.abspath(a.base), os.path.abspath(a.change)]
    bench = next(os.path.join(c, "perfbench") for c in checkouts
                 if os.path.exists(os.path.join(c, "perfbench", "inputs.py")))
    sys.path[:0] = [os.path.dirname(bench), bench]
    from inputs import write_corpus

    corpus = os.path.join(work, "corpus.parquet")
    spare = os.path.join(work, "spare.parquet")
    import pyarrow.parquet as pq
    _, spare_tbl = write_corpus(corpus, a.docs, a.seed)
    pq.write_table(spare_tbl, spare)
    outs = []
    for label, ck in zip(("base", "change"), checkouts):
        out = os.path.join(work, label)
        env = dict(os.environ, PYTHONPATH=ck)
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--seed", str(a.seed),
                        "--worker", corpus, spare, out],
                       env=env, cwd=ck, check=True)
        outs.append(out)
    diffs = compare(*outs)
    for label, out in zip(("base", "change"), outs):
        with open(os.path.join(out, "timing.json")) as f:
            t = json.load(f)
        print(f"{label}: {t['non_ascii_docs']} of {BATCH} docs non-ASCII, "
              f"stream {t['non_ascii_batch_ms']:.1f} ms (median of 7)")
    print("PARITY OK" if not diffs else f"PARITY FAILED: {diffs}")
    return 0 if not diffs else 1


if __name__ == "__main__":
    sys.exit(main())
