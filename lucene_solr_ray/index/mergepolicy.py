"""TieredMergePolicy + ConcurrentMergeScheduler over NRT append segments.

Restates ``lucene/core/src/java/org/apache/lucene/index/
TieredMergePolicy.java`` (findMerges: tier budget, candidate scoring by
skew * size^0.05 * nonDelRatio^reclaim) and
``ConcurrentMergeScheduler.java`` (bounded concurrent merge execution).

What a "merge" is here: the NRT path accumulates one
``merged/terms-append-*.parquet`` per flush (see ``merge.merge_append``),
each re-pointing at its own delta ``.bin``. Reads stay correct but chunk
counts per term grow with flush count. The tiered policy watches those
append segments and, when a tier overflows, compacts a selected set into
ONE ``terms-tier-*.parquet`` (+ one compacted ``.bin`` for the small
fragmented terms — big terms re-point, exactly the full merge's
passthrough economics).

Scale notes: selection is driver-side arithmetic over file sizes (one
``os.stat`` per append segment — thousands, not billions); each chosen
merge reads only ITS OWN append files and is independent of the others,
so the scheduler fans merges out as Ray tasks. Single writer assumed
(Lucene's IndexWriter lock); readers opened mid-swap are protected by the
rename-first protocol below plus :func:`recover_interrupted_merges`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class SegmentSizeInfo:
    """One eligible append segment, by on-disk size."""

    terms_path: str
    bytes: int
    del_ratio: float = 0.0  # deleted-doc fraction (approximate is fine)


@dataclass
class TieredMergePolicy:
    """Size-tiered selection (TieredMergePolicy.java:64-104 defaults)."""

    max_merge_at_once: int = 10
    segs_per_tier: float = 10.0
    max_merged_segment_bytes: int = 5 << 30  # 5 GB
    floor_segment_bytes: int = 2 << 20      # 2 MB
    reclaim_deletes_weight: float = 2.0

    def _floored(self, b: int) -> int:
        return max(b, self.floor_segment_bytes)

    def allowed_segment_count(self, sizes: list[int]) -> int:
        """The tier ladder (TieredMergePolicy.java:372-398): segsPerTier
        segments allowed per size level, levels growing by
        maxMergeAtOnce."""
        if not sizes:
            return 0
        tot = sum(self._floored(b) for b in sizes)
        # the bottom level is the floored SMALLEST segment, not the raw
        # floor (TieredMergePolicy.java: levelSize starts at
        # max(minSegmentBytes, floorSegmentBytes))
        level = min(self._floored(b) for b in sizes)
        allowed = 0.0
        while True:
            seg_count_level = tot / level
            if seg_count_level < self.segs_per_tier:
                allowed += np.ceil(seg_count_level)
                break
            allowed += self.segs_per_tier
            tot -= self.segs_per_tier * level
            level *= self.max_merge_at_once
        return int(allowed)

    def score(self, cand: list[SegmentSizeInfo]) -> float:
        """Merge score, smaller is better (TieredMergePolicy.java:525-562):
        skew (how unbalanced the candidate is) * total^0.05 *
        nonDelRatio^reclaimWeight."""
        floored = [self._floored(c.bytes) for c in cand]
        tot = sum(floored)
        skew = max(floored) / tot
        tot_after = sum(
            int(c.bytes * (1.0 - c.del_ratio)) for c in cand)
        non_del_ratio = max(tot_after, 1) / max(sum(
            c.bytes for c in cand), 1)
        return (skew * (tot ** 0.05)
                * (non_del_ratio ** self.reclaim_deletes_weight))

    def find_merges(self, infos: list[SegmentSizeInfo]
                    ) -> list[list[SegmentSizeInfo]]:
        """Pick merge candidates until the remaining count fits the tier
        budget. Segments above half maxMergedSegmentBytes are ineligible
        (they ARE the top tier)."""
        eligible = sorted(
            [s for s in infos
             if s.bytes < self.max_merged_segment_bytes // 2],
            key=lambda s: -s.bytes)
        merges: list[list[SegmentSizeInfo]] = []
        while True:
            allowed = self.allowed_segment_count(
                [s.bytes for s in eligible])
            if len(eligible) <= max(allowed, 1):
                return merges
            best, best_score = None, None
            for start in range(len(eligible)):
                cand: list[SegmentSizeInfo] = []
                tot = 0
                for s in eligible[start:]:
                    if len(cand) >= self.max_merge_at_once:
                        break
                    if tot + s.bytes > self.max_merged_segment_bytes:
                        continue
                    cand.append(s)
                    tot += s.bytes
                if len(cand) < 2:
                    continue
                sc = self.score(cand)
                if best_score is None or sc < best_score:
                    best, best_score = cand, sc
            if best is None:
                return merges
            merges.append(best)
            chosen = {id(s) for s in best}
            eligible = [s for s in eligible if id(s) not in chosen]


def list_append_segments(index_dir: str) -> list[SegmentSizeInfo]:
    """Eligible segments = the NRT append terms files plus the delta bins
    they reference (size = terms parquet + referenced bins)."""
    d = os.path.join(index_dir, "merged")
    out = []
    if not os.path.isdir(d):
        return out
    for f in sorted(os.listdir(d)):
        if not (f.startswith("terms-append-") and f.endswith(".parquet")):
            continue
        p = os.path.join(d, f)
        size = os.path.getsize(p)
        try:
            refs = set(pq.read_table(p, columns=["payload_file"])
                       ["payload_file"].to_pylist())
            for r in refs:
                rp = (os.path.join(index_dir, r) if "/" in r
                      else os.path.join(d, r))
                if os.path.exists(rp):
                    size += os.path.getsize(rp)
        except Exception:
            pass
        out.append(SegmentSizeInfo(terms_path=p, bytes=size))
    return out


# ---------------------------------------------------------------------------
# merge execution (one OneMerge = compact N append terms files into one)
# ---------------------------------------------------------------------------

def _resolve_bin(index_dir: str, merged_dir: str, ref: str) -> str:
    return (os.path.join(index_dir, ref) if "/" in ref
            else os.path.join(merged_dir, ref))


def execute_merge(index_dir: str, terms_paths: list[str], *,
                  reencode_max_docs: int = 4096) -> str:
    """Compact the given append terms files into one tier terms file.

    Terms whose total df across the candidate is small are decoded from
    their delta bins, concatenated and re-encoded into one fresh compact
    bin; everything else re-points (passthrough rows copied verbatim).
    Publish protocol: sources are renamed out of the reader glob FIRST
    (``.merging`` suffix), the new file lands via tmp+rename, then the
    sources are unlinked — a crash leaves either the renamed sources (
    recoverable) or the finished merge.
    """
    from ..codec import decode_postings, encode_postings

    merged_dir = os.path.join(index_dir, "merged")
    gen = hashlib.sha1(
        ("|".join(sorted(os.path.basename(p) for p in terms_paths)))
        .encode()).hexdigest()[:12]

    # 1) hide sources from new readers
    hidden = []
    for p in terms_paths:
        h = p + f".merging-{gen}"
        os.rename(p, h)
        hidden.append(h)

    tbl = pa.concat_tables([pq.read_table(h) for h in hidden])
    order = pa.compute.sort_indices(
        tbl, sort_keys=[("term", "ascending"), ("chunk_id", "ascending")])
    tbl = tbl.take(order)
    terms = tbl["term"].to_numpy(zero_copy_only=False)
    n = len(terms)
    change = np.ones(n, bool)
    change[1:] = terms[1:] != terms[:-1]
    group_id = np.cumsum(change) - 1
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    dfs = tbl["df"].to_numpy()
    g_df = np.add.reduceat(dfs.astype(np.int64), starts)
    g_size = ends - starts
    compact = (g_size > 1) & (g_df <= reencode_max_docs)

    refs = tbl["payload_file"].to_pylist()
    offs = tbl["offset"].to_numpy()
    lens = tbl["length"].to_numpy()
    pos_offs = tbl["pos_offset"].to_numpy()
    pos_lens = tbl["pos_length"].to_numpy()
    has_pos = bool(n and pos_lens.max() > 0)
    if has_pos:
        # only compact groups whose rows are uniformly positional
        row_pos = pos_lens > 0
        g_uniform = (np.minimum.reduceat(row_pos, starts)
                     == np.maximum.reduceat(row_pos, starts))
        compact &= g_uniform

    import mmap as mmap_mod

    mms: list = []
    views: dict[str, memoryview] = {}

    def view(ref: str) -> memoryview:
        if ref not in views:
            path = _resolve_bin(index_dir, merged_dir, ref)
            fd = os.open(path, os.O_RDONLY)
            try:
                mm = mmap_mod.mmap(fd, 0, prot=mmap_mod.PROT_READ)
            finally:
                os.close(fd)
            mms.append(mm)
            views[ref] = memoryview(mm).cast("B")
        return views[ref]
    bmn = tbl["block_max_norm"]

    from ..codec.postings import decode_values, encode_values
    from .merge import _chunks_to_table, _write_compact_bin

    chunks: list[dict] = []
    for g in np.flatnonzero(compact).tolist():
        rows = range(int(starts[g]), int(ends[g]))
        docs_l, tfs_l, pos_l = [], [], []
        max_norm = 0
        for i in rows:
            pl = view(refs[i])[int(offs[i]):int(offs[i]) + int(lens[i])]
            d, f = decode_postings(pl)
            docs_l.append(d)
            tfs_l.append(f)
            if has_pos and int(pos_lens[i]):
                pp = view(refs[i])[int(pos_offs[i]):
                                   int(pos_offs[i]) + int(pos_lens[i])]
                pos_l.append(decode_values(pp))
            mn = np.asarray(bmn[i].as_py() or [], np.int64)
            if mn.size:
                max_norm = max(max_norm, int(mn.max()))
        docs = np.concatenate(docs_l)
        tfs = np.concatenate(tfs_l)
        srt = np.argsort(docs, kind="stable")
        if pos_l:
            # positions are per-occurrence; reorder occurrence runs with
            # their docs
            tf_cum = np.concatenate(([0], np.cumsum(tfs)))
            pos_flat = np.concatenate(pos_l)
            pieces = [pos_flat[tf_cum[j]:tf_cum[j + 1]] for j in srt]
            pos_sorted = (np.concatenate(pieces) if pieces
                          else np.empty(0, np.int64))
        docs, tfs = docs[srt], tfs[srt]
        payload, last, maxtf = encode_postings(docs, tfs)
        chunks.append({
            "term": str(terms[starts[g]]),
            "chunk_id": 20_000_000 + g,
            "df": int(docs.size),
            "ttf": int(tfs.sum()),
            "start_doc": int(docs[0]),
            "payload": payload,
            "positions": encode_values(pos_sorted) if pos_l else b"",
            "block_last": last,
            "block_max_tf": maxtf,
            "block_max_norm": np.full(last.size, max_norm, np.uint8),
        })

    tables = []
    pt_rows = np.flatnonzero(~compact[group_id])
    if pt_rows.size:
        tables.append(tbl.take(pa.array(pt_rows)))
    if chunks:
        payload_name = f"payload-tier-{gen}.bin"
        _write_compact_bin(chunks, os.path.join(merged_dir, payload_name))
        ct = _chunks_to_table(chunks, payload_name)
        tables.append(ct.cast(tbl.schema) if tables else ct)
    out = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
    out_name = f"terms-tier-{gen}.parquet"
    out_path = os.path.join(merged_dir, out_name)
    pq.write_table(out, out_path + ".tmp")
    os.replace(out_path + ".tmp", out_path)

    # mmaps close when the function-scoped views are collected; closing
    # explicitly here races with still-live decode slice views
    del views, mms
    for h in hidden:
        os.unlink(h)
    return out_name


def recover_interrupted_merges(index_dir: str) -> int:
    """Restore ``.merging-*`` sources whose tier output never landed
    (crash between hide and publish). Returns restored count."""
    d = os.path.join(index_dir, "merged")
    restored = 0
    if not os.path.isdir(d):
        return 0
    for f in sorted(os.listdir(d)):
        if ".merging-" not in f:
            continue
        src, gen = f.rsplit(".merging-", 1)
        if os.path.exists(os.path.join(d, f"terms-tier-{gen}.parquet")):
            os.unlink(os.path.join(d, f))  # merge finished; drop leftover
        else:
            os.rename(os.path.join(d, f), os.path.join(d, src))
            restored += 1
    return restored


@dataclass
class ConcurrentMergeScheduler:
    """Run selected merges as parallel Ray tasks (bounded, like
    ConcurrentMergeScheduler.maxMergeCount/maxThreadCount)."""

    max_concurrent: int = 4

    def run(self, index_dir: str, merges: list[list[SegmentSizeInfo]],
            **merge_kw) -> list[str]:
        if not merges:
            return []
        if len(merges) == 1:
            return [execute_merge(
                index_dir, [s.terms_path for s in merges[0]], **merge_kw)]
        import ray

        @ray.remote
        def _one(paths: list[str]) -> str:
            return execute_merge(index_dir, paths, **merge_kw)

        refs, out = [], []
        pending = [[s.terms_path for s in m] for m in merges]
        while pending or refs:
            while pending and len(refs) < self.max_concurrent:
                refs.append(_one.remote(pending.pop()))
            done, refs = ray.wait(refs, num_returns=1)
            refs = list(refs)
            out.append(ray.get(done[0]))
        return out


def maybe_merge(index_dir: str,
                policy: TieredMergePolicy | None = None,
                scheduler: ConcurrentMergeScheduler | None = None,
                **merge_kw) -> list[str]:
    """IndexWriter.maybeMerge analogue: ask the policy for overdue merges
    over the current append segments and run them. Returns the new tier
    terms files (empty when the tiers are within budget)."""
    policy = policy or TieredMergePolicy()
    scheduler = scheduler or ConcurrentMergeScheduler()
    recover_interrupted_merges(index_dir)
    merges = policy.find_merges(list_append_segments(index_dir))
    return scheduler.run(index_dir, merges, **merge_kw)
