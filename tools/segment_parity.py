"""Segment parity between two checkouts of the engine.

    python tools/segment_parity.py BASE CHANGE [--seed 701] [--docs 4000]
        [--work DIR] [--merged] [--out FILE]

A change to analysis or to the segment build must leave every segment
the same. This script writes the perfbench corpus
(``perfbench/inputs.py:write_corpus(path, docs, seed)``) and, in one
subprocess per checkout (``PYTHONPATH`` set to it, so its Ray workers
import it too), builds it with ``rows_per_partition=1000`` in three
configurations: ``standard``; ``standard`` with positions and offsets;
and ``english``. It then reports, per configuration and partition,
whether the segment terms tables (``segments/part-*.parquet``) and the
norms tables (``norms/part-*.parquet``) are equal as tables and the
``.bin`` files byte-identical. Terms and norms are compared as tables,
not bytes, so a change to their on-disk encoding alone is no
difference.

When the two checkouts' ``FORMAT_VERSION`` differ, their ``.bin`` bytes
and the pointers into them need not agree. Each subprocess then also
decodes every partition's terms through its own reader (every term's
postings, and its positions and char offsets when stored) into a
``decoded/`` table, and the comparison is: those tables equal, the terms
tables equal without their ``offset`` / ``length`` columns, and the norms
tables equal on the columns both have (the left-out ones are printed).

Each subprocess also writes the ``standard`` token stream
(``tokens_batch_factorized``) of the corpus and spare documents in
1,000-doc batches, which must be identical (vocabulary list, codes,
doc_idx, positions, starts, ends, dtypes included), and times the
stream of a batch of mostly non-ASCII documents (median of 7 runs).

``--merged`` adds a merged pass: each subprocess also runs
``merge_index`` on a copy of each build, then ``check_merged(strict=True)``,
and reads ``index_info(...)``. It prints, per checkout and
configuration, the bytes of each top-level directory, the total per
input byte (the UTF-8 bytes of the ``content`` column, as perfbench's
``index_bytes_per_input_byte`` counts them), the term dictionary's bytes
per column (``terms_bytes_by_column``), how many ``segments/*.parquet``
or ``segments/*.bin`` files the merge commit still names, and which merge
outputs' ``.bin`` is not laid out in row order; ``--out`` writes all of
it as one JSON file. With ``--merged``, the exit status also requires
that ``check_merged`` passes for both checkouts, and that CHANGE's merge
commits name no partition terms file or ``.bin`` (a merged index keeps
one copy of each posting) and every merge output's offsets are
row-ordered: each stream (postings, positions, then offsets or payloads)
follows the one before it in the ``.bin``, and its offsets are its base
plus the exclusive cumulative sum of its lengths.

The exit status is 0 when everything is equal. Run it from a checkout
whose ``perfbench/`` writes the corpus (the first of BASE and CHANGE
that has it is used).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
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


def unordered_streams(idx: str) -> list[str]:
    """The streams of ``idx``'s listed terms files whose ``.bin`` is not
    laid out in row order (see the module docstring), as
    ``file: column``."""
    import numpy as np
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import IndexManifest

    bad = []
    for f in IndexManifest.load(idx).terms_files:
        t = pq.read_table(os.path.join(idx, f))
        base = 0
        for s in ("", "pos_", "off_", "pay_"):
            if s + "offset" not in t.schema.names:
                continue
            lens = t[s + "length"].to_numpy()
            if not np.array_equal(t[s + "offset"].to_numpy(),
                                  base + np.cumsum(lens) - lens):
                bad.append(f"{f}: {s}offset")
            base += int(lens.sum())
    return bad


def merged_pass(out: str) -> None:
    """Merge a copy of each configuration's build under ``out``, check
    it and count its bytes; writes ``merged.json`` into ``out``."""
    from lucene_solr_ray.index import IndexManifest, check_merged, \
        merge_index
    from lucene_solr_ray.index.check import index_info

    result = {}
    for name in CONFIGS:
        idx = os.path.join(out, name + "-merged")
        shutil.copytree(os.path.join(out, name), idx)
        merge_index(idx)
        try:
            check_merged(idx, strict=True)
            checked = "ok"
        except AssertionError as e:
            checked = f"FAILED: {e}"
        named = [f for f in IndexManifest.load(idx).files()
                 if f.startswith("segments" + os.sep)
                 and f.endswith((".parquet", ".bin"))]
        info = index_info(idx)
        result[name] = {"bytes_by_family": info["bytes_by_family"],
                        # an index_info before it had this key: {}
                        "terms_bytes_by_column":
                            info.get("terms_bytes_by_column", {}),
                        "check_merged": checked,
                        "segments_named": len(named),
                        "unordered_streams": unordered_streams(idx)}
    with open(os.path.join(out, "merged.json"), "w") as f:
        json.dump(result, f)


def report_merged(outs: list[str], labels: list[str],
                  input_bytes: int) -> tuple[dict, bool]:
    """Print each checkout's merged pass; returns the results and
    whether every check held."""
    results, ok = {}, True
    for label, out in zip(labels, outs):
        with open(os.path.join(out, "merged.json")) as f:
            results[label] = json.load(f)
        for name, r in results[label].items():
            total = sum(r["bytes_by_family"].values())
            r["bytes_per_input_byte"] = total / input_bytes
            fams = ", ".join(f"{k} {v:,}" for k, v in
                             sorted(r["bytes_by_family"].items()))
            print(f"{label} {name} merged: {total:,} B = "
                  f"{r['bytes_per_input_byte']:.3f} of input ({fams}); "
                  f"check_merged {r['check_merged']}; "
                  f"segments/ files named {r['segments_named']}")
            cols = ", ".join(f"{k} {v:,}" for k, v in
                             r["terms_bytes_by_column"].items()) \
                or "not reported"
            print(f"{label} {name} terms bytes by column: {cols}")
            print(f"{label} {name} streams not in row order: "
                  f"{r['unordered_streams'] or 'none'}")
            ok &= r["check_merged"] == "ok"
            ok &= label != "change" or (r["segments_named"] == 0
                                        and not r["unordered_streams"])
    return results, ok


def worker(corpus: str, spare: str, out: str, seed: int,
           merged: bool = False, decoded: bool = False) -> None:
    """Runs under one checkout: build every configuration (with
    ``decoded``, run :func:`decode_partitions`; with ``merged``,
    :func:`merged_pass`), write the stream and the timing."""
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
        if decoded:
            decode_partitions(out)
        if merged:
            merged_pass(out)
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


def format_version(checkout: str) -> int:
    """``FORMAT_VERSION`` of the engine in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "-c", "from lucene_solr_ray.index.build import "
         "FORMAT_VERSION; print(FORMAT_VERSION)"],
        env=dict(os.environ, PYTHONPATH=checkout), cwd=checkout,
        check=True, capture_output=True, text=True)
    return int(out.stdout.strip())


def decode_partitions(out: str) -> None:
    """For each configuration built under ``out``, write one table per
    partition to ``decoded/<config>/``: every term of the partition's own
    terms file with its postings (``docs``, ``tfs``) and, when stored,
    its position and char-offset streams, read through the checkout's
    own ``MergedReader``."""
    from dataclasses import replace

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import IndexManifest
    from lucene_solr_ray.search.readers import MergedReader

    for name in CONFIGS:
        man = IndexManifest.load(os.path.join(out, name))
        dst = os.path.join(out, "decoded", name)
        os.makedirs(dst, exist_ok=True)
        for p in man.partitions:
            r = MergedReader(replace(man, terms_files=[p["segment"]]))
            terms = r.unique_terms().tolist()
            cols = {"term": terms, "docs": [], "tfs": []}
            if man.store_positions:
                cols["positions"] = []
            if man.store_offsets:
                cols["offsets"] = []
            for t in terms:
                if man.store_positions:
                    d, f, pos = r.postings_with_positions(t)
                    cols["positions"].append(pos.astype("int64"))
                else:
                    d, f = r.postings(t)
                if man.store_offsets:
                    cols["offsets"].append(
                        r.term_offsets(t)[2].astype("int64"))
                cols["docs"].append(d.astype("int64"))
                cols["tfs"].append(f.astype("int64"))
            pq.write_table(pa.table(cols), os.path.join(
                dst, os.path.basename(p["segment"])))


# the terms columns that point into a .bin
_POINTERS = ("offset", "length", "pos_offset", "pos_length", "off_offset",
             "off_length", "pay_offset", "pay_length")


def _tables_equal(a: str, b: str, across_formats: bool) -> bool:
    """Whether Parquet files ``a`` and ``b`` hold equal tables; across
    formats, terms tables without their pointer columns and norms
    tables on the columns both have."""
    import pyarrow.parquet as pq

    ta, tb = pq.read_table(a), pq.read_table(b)
    if across_formats:
        keep = [c for c in ta.schema.names
                if c in tb.schema.names and c not in _POINTERS]
        gone = sorted(set(ta.schema.names) ^ set(tb.schema.names))
        if gone:
            print(f"{b}: columns not in both left out: {gone}")
        ta, tb = ta.select(keep), tb.select(keep)
    return ta.equals(tb)


def _files_equal(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def compare(base: str, change: str,
            across_formats: bool = False) -> list[str]:
    """Differences between the two worker outputs (empty when equal);
    ``across_formats``: the checkouts' on-disk formats differ, so the
    decoded tables stand for the ``.bin`` bytes."""
    import numpy as np

    diffs = []
    for name in CONFIGS:
        subs = [os.path.join(name, "segments"), os.path.join(name, "norms")]
        if across_formats:
            subs.append(os.path.join("decoded", name))
        for sub in subs:
            da, db = (os.path.join(d, sub) for d in (base, change))
            fa, fb = (sorted(f for f in os.listdir(d) if not (
                across_formats and f.endswith(".bin"))) for d in (da, db))
            if fa != fb:
                diffs.append(f"{sub}: files {fa} != {fb}")
                continue
            for f in fa:
                pa_, pb = os.path.join(da, f), os.path.join(db, f)
                if f.endswith(".parquet"):
                    same = _tables_equal(pa_, pb, across_formats)
                else:
                    same = _files_equal(pa_, pb)
                print(f"{sub}/{f}: {'equal' if same else 'DIFFERS'}")
                if not same:
                    diffs.append(f"{sub}/{f}")
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
    ap.add_argument("--merged", action="store_true",
                    help="also merge each build and report its bytes")
    ap.add_argument("--out", default=None,
                    help="write the merged pass's results here")
    ap.add_argument("--worker", nargs=3, metavar=("CORPUS", "SPARE", "OUT"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--decoded", action="store_true", help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if a.worker:
        worker(*a.worker, a.seed, a.merged, a.decoded)
        return 0
    if not (a.base and a.change):
        ap.error("BASE and CHANGE checkouts are required")
    work = a.work or tempfile.mkdtemp(prefix="segment_parity_")
    os.makedirs(work, exist_ok=True)
    checkouts = [os.path.abspath(a.base), os.path.abspath(a.change)]
    bench = next(os.path.join(c, "perfbench") for c in checkouts
                 if os.path.exists(os.path.join(c, "perfbench", "inputs.py")))
    sys.path[:0] = [os.path.dirname(bench), bench]
    from inputs import content_bytes, write_corpus

    corpus = os.path.join(work, "corpus.parquet")
    spare = os.path.join(work, "spare.parquet")
    import pyarrow.parquet as pq
    corpus_tbl, spare_tbl = write_corpus(corpus, a.docs, a.seed)
    pq.write_table(spare_tbl, spare)
    formats = [format_version(ck) for ck in checkouts]
    across = formats[0] != formats[1]
    if across:
        print(f"on-disk formats {formats[0]} -> {formats[1]}: comparing "
              "decoded postings and streams, not .bin bytes")
    outs = []
    for label, ck in zip(("base", "change"), checkouts):
        out = os.path.join(work, label)
        env = dict(os.environ, PYTHONPATH=ck)
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--seed", str(a.seed),
                        "--worker", corpus, spare, out]
                       + ["--merged"] * a.merged + ["--decoded"] * across,
                       env=env, cwd=ck, check=True)
        outs.append(out)
    diffs = compare(*outs, across)
    for label, out in zip(("base", "change"), outs):
        with open(os.path.join(out, "timing.json")) as f:
            t = json.load(f)
        print(f"{label}: {t['non_ascii_docs']} of {BATCH} docs non-ASCII, "
              f"stream {t['non_ascii_batch_ms']:.1f} ms (median of 7)")
    print("PARITY OK" if not diffs else f"PARITY FAILED: {diffs}")
    ok = True
    if a.merged:
        input_bytes = content_bytes(corpus_tbl)
        results, ok = report_merged(outs, ["base", "change"], input_bytes)
        if a.out:
            with open(a.out, "w") as f:
                json.dump({"seed": a.seed, "docs": a.docs,
                           "input_bytes": input_bytes,
                           "checkouts": dict(zip(checkouts,
                                                 results.values()))},
                          f, indent=1)
        print("MERGED OK" if ok else "MERGED: a check failed")
    return 0 if not diffs and ok else 1


if __name__ == "__main__":
    sys.exit(main())
