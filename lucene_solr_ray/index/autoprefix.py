"""Auto-prefix terms — the ``lucene/codecs/autoprefix`` module.

``AutoPrefixPostingsFormat.java`` writes synthetic *prefix terms* whose
postings are the union of every real term sharing the prefix, so a
prefix (or range) query matches ONE stored term instead of expanding to
thousands and decoding each one's postings.  Only prefixes that would
expand to at least ``minItemsInPrefix`` terms are materialized — cheap
expansions don't need acceleration (the format's min/max item
contract).

Restated Ray-Data-first as an index sidecar:

- :func:`build_autoprefix` plans (prefix, expansion-count) descriptors
  from the sorted unique-term array — METADATA ONLY, terms sharing a
  prefix are contiguous in the sorted dictionary so counting is one
  run-length pass per prefix length — then fans the qualifying prefixes
  through an actor-pool ``map_batches`` stage: each actor opens the
  index reader ONCE (``__init__``), each batch unions its prefixes'
  postings into sorted doc sets and encodes them with the SAME
  delta-varint codec as real postings.  Output is partitioned parquet
  (``autoprefix/*.parquet``: prefix, df, payload) — per-block files,
  resumable, never a driver-side doc list.
- :class:`AutoPrefixReader` keeps only (prefix, df) in memory and reads
  a probed prefix's payload with a parquet predicate-pushdown scan
  (row groups pruned by the prefix filter), LRU-caching decodes.
- The searcher consults the sidecar before the dictionary range scan;
  constant-score rewrite (MultiTermQuery CONSTANT_SCORE, score 1.0 on
  the deduped doc union) makes a hit's results provably identical to
  term-by-term expansion, so the fast path needs no scoring logic.

At 10^9-term shards a stopword-class prefix expands to 10^5+ terms; the
sidecar turns that query from 10^5 postings decodes into one sequential
payload read.  Skew note: a one-letter prefix's doc set can approach
max_doc — it stores compressed (delta varint) and decodes into the
query's constant-score union, the same memory the expansion path would
have allocated anyway.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..codec.postings import decode_postings, encode_postings

_DIR = "autoprefix"
_MAX_CODEPOINT = "\U0010FFFF"


def _plan(unique_terms: np.ndarray, min_terms: int,
          max_len: int) -> list[tuple[str, int]]:
    """(prefix, n_terms) for every prefix of length 1..max_len whose
    expansion meets min_terms.  unique_terms is sorted, so equal
    prefixes are contiguous: one slice + run-length pass per level."""
    out: list[tuple[str, int]] = []
    for ln in range(1, max_len + 1):
        prefs = np.asarray([t[:ln] for t in unique_terms.tolist()],
                           dtype=object)
        if prefs.size == 0:
            continue
        change = np.r_[True, prefs[1:] != prefs[:-1]]
        starts = np.flatnonzero(change)
        counts = np.diff(np.r_[starts, prefs.size])
        for s, c in zip(starts.tolist(), counts.tolist()):
            p = prefs[s]
            # a prefix equal to a full term still unions its extensions
            if c >= min_terms and len(p) == ln:
                out.append((str(p), int(c)))
    return out


def open_reader(index_dir: str, **kw):
    from ..search.readers import MergedReader, SegmentsReader
    from .build import IndexManifest

    man = IndexManifest.load(index_dir)
    if man.merged and os.path.isdir(os.path.join(index_dir, "merged")):
        return MergedReader(index_dir, **kw)
    return SegmentsReader(index_dir, **kw)


class _PrefixUnion:
    """Actor-pool stage: reader opened once per actor; each batch
    gathers EVERY member term-row's payload bytes for all its prefixes
    into one flat buffer and decodes the Zipf-tail rows in ONE
    vectorized call (``decode_postings_batch`` — the same economics as
    the merge compaction), unions per prefix with a single
    lexsort+dedup, and re-encodes.  The per-term Python decode this
    replaces dominated sidecar build time 10:1 at a 10^5-term
    vocabulary."""

    def __init__(self, index_dir: str):
        self.reader = open_reader(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codec.postings import (
            BLOCK_SIZE,
            _intra,
            decode_postings,
            decode_postings_batch,
        )

        r = self.reader
        plist = batch["prefix"].to_pylist()
        row_parts, gid_parts = [], []
        for i, p in enumerate(plist):
            lo = int(np.searchsorted(r.terms, p, "left"))
            hi = int(np.searchsorted(r.terms, p + _MAX_CODEPOINT, "right"))
            if hi > lo:
                row_parts.append(np.arange(lo, hi, dtype=np.int64))
                gid_parts.append(np.full(hi - lo, i, np.int64))
        empty = pa.table({
            "prefix": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "payload": pa.array([], pa.binary()),
        })
        if not row_parts:
            return empty
        rows = np.concatenate(row_parts)
        gid = np.concatenate(gid_parts)
        dfs = r.df[rows].astype(np.int64)
        # payload gather: mmap slices, no per-row decode
        views = [np.frombuffer(r._payload(int(row)), np.uint8)
                 for row in rows.tolist()]
        lens = np.fromiter((v.size for v in views), np.int64, rows.size)
        flat = np.concatenate(views) if views else np.empty(0, np.uint8)
        dst0 = np.zeros(rows.size, np.int64)
        np.cumsum(lens[:-1], out=dst0[1:])
        total = int(dfs.sum())
        docs = np.empty(total, np.int64)
        out0 = np.zeros(rows.size, np.int64)
        np.cumsum(dfs[:-1], out=out0[1:])
        small = dfs <= BLOCK_SIZE
        if small.any():
            d_s, _ = decode_postings_batch(flat, dst0[small], dfs[small])
            docs[np.repeat(out0[small], dfs[small])
                 + _intra(dfs[small])] = d_s
        for i in np.flatnonzero(~small).tolist():
            d, _ = decode_postings(flat[dst0[i]:dst0[i] + int(lens[i])])
            docs[out0[i]:out0[i] + dfs[i]] = d
        # per-prefix sorted-unique union in one lexsort + diff pass
        gid_post = np.repeat(gid, dfs)
        order = np.lexsort((docs, gid_post))
        gd, dd = gid_post[order], docs[order]
        keep = np.r_[True, (gd[1:] != gd[:-1]) | (dd[1:] != dd[:-1])]
        gd, dd = gd[keep], dd[keep]
        starts = np.flatnonzero(np.r_[True, gd[1:] != gd[:-1]])
        bounds = np.r_[starts, gd.size]
        prefixes, out_df, payloads = [], [], []
        for k, s in enumerate(starts.tolist()):
            e = int(bounds[k + 1])
            u_docs = dd[s:e]
            payload, _, _ = encode_postings(
                u_docs, np.ones(u_docs.size, np.int32)
            )
            prefixes.append(plist[int(gd[s])])
            out_df.append(int(u_docs.size))
            payloads.append(payload)
        return pa.table({
            "prefix": pa.array(prefixes, pa.string()),
            "df": pa.array(out_df, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })


def build_autoprefix(index_dir: str, *, min_terms: int = 25,
                     max_len: int = 3, concurrency: int = 4) -> int:
    """Build the sidecar; returns the number of stored prefix terms."""
    import ray.data as rd

    import pyarrow.parquet as pq

    reader = open_reader(index_dir)
    plan = _plan(reader.unique_terms(), min_terms, max_len)
    out_dir = os.path.join(index_dir, _DIR)
    if not plan:
        import json

        os.makedirs(out_dir, exist_ok=True)
        pq.write_table(
            pa.table({"prefix": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64()),
                      "payload": pa.array([], pa.binary())}),
            os.path.join(out_dir, "empty.parquet"),
        )
        with open(os.path.join(out_dir, "meta.json"), "w") as f:
            json.dump({"max_doc": _index_max_doc(index_dir),
                       "min_terms": min_terms, "max_len": max_len}, f)
        return 0
    # skew balance: widest prefixes (single-char, ~whole-corpus postings)
    # must not cluster in one block — order by descending expansion and
    # deal round-robin across the target block count so every task gets
    # one wide prefix plus a tail of narrow ones
    n_blocks = max(concurrency * 4, len(plan) // 64 + 1)
    by_width = sorted(plan, key=lambda pc: -pc[1])
    dealt = [pc for k in range(n_blocks) for pc in by_width[k::n_blocks]]
    ds = rd.from_arrow(pa.table({
        "prefix": pa.array([p for p, _ in dealt], pa.string()),
    }))
    # autoscaling pool (min 1): a fixed pool sized at the CPU count can
    # deadlock the streaming executor against the upstream repartition.
    # Write to a temp dir and publish by rename so a killed build never
    # leaves a readable-but-partial sidecar.
    import shutil

    tmp_dir = out_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    (ds.repartition(n_blocks)
       .map_batches(_PrefixUnion, batch_format="pyarrow",
                    fn_constructor_args=(index_dir,),
                    concurrency=(1, concurrency), batch_size=64)
       .write_parquet(tmp_dir))
    import json

    with open(os.path.join(tmp_dir, "meta.json"), "w") as f:
        json.dump({"max_doc": _index_max_doc(index_dir),
                   "min_terms": min_terms, "max_len": max_len}, f)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.rename(tmp_dir, out_dir)
    return len(plan)


def _index_max_doc(index_dir: str) -> int | None:
    try:
        import json

        with open(os.path.join(index_dir, "manifest.json")) as f:
            return int(json.load(f).get("max_doc", -1))
    except (OSError, ValueError):
        return None


def is_stale(index_dir: str) -> bool:
    """True when the sidecar predates an index append/update — a stored
    prefix union trained before new segments would MISS their docs, so
    a stale sidecar must be ignored (deletes stay safe: the searcher
    masks live docs after the union)."""
    import json

    meta = os.path.join(index_dir, _DIR, "meta.json")
    if not os.path.exists(meta):
        return False  # pre-meta sidecars: assume caller manages rebuilds
    try:
        with open(meta) as f:
            trained = json.load(f).get("max_doc")
    except (OSError, ValueError):
        return True
    return trained is not None and trained != _index_max_doc(index_dir)


class AutoPrefixReader:
    """(prefix, df) resident; payloads probed with predicate pushdown
    and LRU-cached decoded."""

    def __init__(self, index_dir: str, cache_size: int = 256):
        import pyarrow.dataset as pads

        from ..search.readers import _LRU

        self._dir = os.path.join(index_dir, _DIR)
        files = sorted(
            os.path.join(self._dir, f) for f in os.listdir(self._dir)
            if f.endswith(".parquet")
        )
        self._ds = pads.dataset(
            files, format="parquet",
            schema=pa.schema([("prefix", pa.string()),
                              ("df", pa.int64()),
                              ("payload", pa.binary())]),
        )
        t = self._ds.to_table(columns=["prefix", "df"])
        order = np.argsort(t["prefix"].to_numpy(zero_copy_only=False))
        self._prefixes = t["prefix"].to_numpy(zero_copy_only=False)[order]
        self._df = t["df"].to_numpy()[order]
        self._cache = _LRU(cache_size)

    def __len__(self) -> int:
        return int(self._prefixes.size)

    def doc_count(self, prefix: str) -> int | None:
        i = np.searchsorted(self._prefixes, prefix)
        if i < self._prefixes.size and self._prefixes[i] == prefix:
            return int(self._df[i])
        return None

    def docs_for(self, prefix: str) -> np.ndarray | None:
        """Sorted unique doc ids for the stored prefix, or None when the
        prefix is not materialized (caller falls back to expansion)."""
        hit = self._cache.get(prefix)
        if hit is not None:
            return hit
        if self.doc_count(prefix) is None:
            return None
        import pyarrow.dataset as pads

        t = self._ds.to_table(
            filter=pads.field("prefix") == prefix, columns=["payload"]
        )
        if t.num_rows == 0:
            return None
        docs, _ = decode_postings(memoryview(t["payload"][0].as_py()))
        self._cache.put(prefix, docs)
        return docs


def has_autoprefix(index_dir: str) -> bool:
    return os.path.isdir(os.path.join(index_dir, _DIR))


def range_docs(ap: AutoPrefixReader, reader, lower, upper,
               include_lower: bool = True,
               include_upper: bool = True) -> np.ndarray:
    """TermRangeQuery through the sidecar — the format's primary use
    case (``AutoPrefixPostingsFormat``: range queries visit the stored
    auto-prefix terms that are fully contained in the range instead of
    every real term).  Greedy cover: stored prefixes whose dictionary
    interval lies inside the range are taken widest-first (sorted order
    puts 'v' before 'va', so subsumed prefixes skip); the residual
    uncovered terms expand individually.  The union is deduped, so the
    result is EXACTLY the full-expansion doc set (identity pytest) with
    the per-term decodes replaced by a few payload reads."""
    u = reader.unique_terms()
    lo_i = 0 if lower is None else int(np.searchsorted(
        u, lower, "left" if include_lower else "right"))
    hi_i = u.size if upper is None else int(np.searchsorted(
        u, upper, "right" if include_upper else "left"))
    if lo_i >= hi_i:
        return np.empty(0, np.int64)
    covered = np.zeros(hi_i - lo_i, bool)
    parts: list[np.ndarray] = []
    if len(ap):
        starts = np.searchsorted(u, ap._prefixes, "left")
        ends = np.searchsorted(
            u, np.asarray([p + _MAX_CODEPOINT
                           for p in ap._prefixes.tolist()], object),
            "right")
        for p, s, e in zip(ap._prefixes.tolist(), starts.tolist(),
                           ends.tolist()):
            if s < lo_i or e > hi_i or e <= s:
                continue
            if covered[s - lo_i:e - lo_i].all():
                continue  # subsumed by a wider selected prefix
            docs = ap.docs_for(p)
            if docs is None:
                continue
            covered[s - lo_i:e - lo_i] = True
            parts.append(docs)
    for i in np.flatnonzero(~covered).tolist():
        parts.append(reader.postings(str(u[lo_i + i]))[0])
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))
