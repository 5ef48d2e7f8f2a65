"""TieredMergePolicy over NRT append segments.

Restates ``lucene/core/src/java/org/apache/lucene/index/
TieredMergePolicy.java`` (findMerges: tier budget, candidate scoring by
skew * size^0.05 * nonDelRatio^reclaim).

What a "merge" is here: the NRT path accumulates one
``merged/terms-append-*.parquet`` per flush (see ``merge.merge_append``),
each re-pointing at its own delta ``.bin``. Reads stay correct but chunk
counts per term grow with flush count. The tiered policy watches those
append segments and, when a tier overflows, compacts a selected set into
ONE ``terms-tier-*.parquet`` (+ one compacted ``.bin`` for the small
fragmented terms — big terms re-point). It runs the full merge's kernel
(``merge.compact_groups``), so a compacted chunk takes its group's
smallest source chunk id and later appends still sort after it.

Scale notes: selection is driver-side arithmetic over file sizes (one
``os.stat`` per append segment — thousands, not billions); each chosen
merge reads only ITS OWN append files. Single writer assumed (Lucene's
IndexWriter lock). The rename-first protocol below plus
:func:`recover_interrupted_merges` keep a crash from losing documents,
but NOT a reader opened between hide and publish: it sees none of the
hidden sources' postings. Only a single commit point (ROADMAP item 1)
closes that window.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .merge import _write_terms_file, compact_groups

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

def execute_merge(index_dir: str, terms_paths: list[str]) -> str:
    """Compact the given append terms files into one tier terms file
    through the full merge's kernel (:func:`merge.compact_groups`, every
    row in one salt): terms with few postings across the candidate are
    re-encoded into one fresh compact bin, everything else re-points.

    Publish protocol: sources are renamed out of the reader glob FIRST
    (``.merging`` suffix), the new file lands via tmp+rename, then the
    sources are unlinked — a crash leaves either the renamed sources
    (recoverable) or the finished merge. A merge that raises renames its
    sources back before re-raising.
    """
    merged_dir = os.path.join(index_dir, "merged")
    gen = hashlib.sha1(
        ("|".join(sorted(os.path.basename(p) for p in terms_paths)))
        .encode()).hexdigest()[:12]
    name = f"tier-{gen}"
    hidden: list[str] = []
    try:
        for p in terms_paths:  # hide sources from new readers
            os.rename(p, p + f".merging-{gen}")
            hidden.append(p + f".merging-{gen}")
        tbl = pa.concat_tables([pq.read_table(h) for h in hidden])
        tbl = tbl.append_column(
            "salt", pa.array(np.zeros(tbl.num_rows, np.int32)))
        _write_terms_file(compact_groups(tbl, index_dir, merged_dir, name),
                          merged_dir, name)
    except BaseException:
        for p, h in zip(terms_paths, hidden):
            os.rename(h, p)
        raise
    for h in hidden:
        os.unlink(h)
    return f"terms-{name}.parquet"


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


def maybe_merge(index_dir: str,
                policy: TieredMergePolicy | None = None) -> list[str]:
    """IndexWriter.maybeMerge analogue: ask the policy for overdue merges
    over the current append segments and run them one after another.
    Returns the new tier terms files (empty when the tiers are within
    budget)."""
    policy = policy or TieredMergePolicy()
    recover_interrupted_merges(index_dir)
    merges = policy.find_merges(list_append_segments(index_dir))
    return [execute_merge(index_dir, [s.terms_path for s in m])
            for m in merges]
