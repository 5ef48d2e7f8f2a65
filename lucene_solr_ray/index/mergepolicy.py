"""TieredMergePolicy over NRT append segments.

Restates ``lucene/core/src/java/org/apache/lucene/index/
TieredMergePolicy.java`` (findMerges: tier budget, candidate scoring by
skew * size^0.05 * nonDelRatio^reclaim).

What a "merge" is here: each NRT flush adds its segment's own terms file
to the commit's ``terms_files`` (see ``updates.append_segment``), so reads
stay correct but chunk counts per term grow with flush count. The tiered
policy watches the listed segment files and, when a tier overflows,
compacts a selected set into ONE ``merged/terms-tier-*.parquet`` (+ its
own ``.bin`` for the small fragmented terms — big terms re-point). It runs
the full merge's kernel (``merge.compact_groups``); a term's chunks keep
partitioning its docs, so ``start_doc`` still orders them and later
appends, whose docs come after every earlier one, still sort last.

Scale notes: selection is driver-side arithmetic over file sizes (two
``os.stat`` calls per listed segment — thousands, not billions); each
chosen merge reads only ITS OWN terms files. Single writer assumed
(Lucene's IndexWriter lock). A merge publishes by one commit that swaps
its sources for its output in ``terms_files``: a reader opened at any
moment sees the sources or the output, and a crashed merge leaves only
unnamed files, which the next commit unlinks.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from .build import IndexManifest, own_bin, terms_schema
from .merge import compact_to_file

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
    """Eligible segments = the listed terms files that are a partition's
    own (a flush no merge has compacted yet), sized as the terms file
    plus its own ``.bin``."""
    man = IndexManifest.load(index_dir)
    segs = set(man.segment_terms())
    return [SegmentSizeInfo(
        terms_path=os.path.join(index_dir, f),
        bytes=sum(os.path.getsize(os.path.join(index_dir, x))
                  for x in (f, own_bin(f))))
        for f in man.terms_files if f in segs]


# ---------------------------------------------------------------------------
# merge execution (one OneMerge = compact N append terms files into one)
# ---------------------------------------------------------------------------

def execute_merge(index_dir: str, terms_paths: list[str]) -> str:
    """Compact the given listed terms files into one tier terms file
    through the full merge's kernel (:func:`merge.compact_groups`, every
    row in one salt): terms with few postings across the candidate are
    re-encoded into the output's own bin, everything else re-points.

    The output is written under a name no earlier commit used, then one
    commit swaps the sources for it in ``terms_files``; files no commit
    names any more are unlinked only after that. A merge that raises
    leaves the commit as it was. Returns the output's path."""
    man = IndexManifest.load(index_dir)
    names = [os.path.relpath(p, index_dir) for p in terms_paths]
    missing = set(names) - set(man.terms_files)
    if missing:
        raise ValueError(f"not in the current commit: {sorted(missing)}")
    digest = hashlib.sha1(
        ("|".join([str(man.generation + 1)] + sorted(names)))
        .encode()).hexdigest()[:12]
    tbl = pads.dataset(terms_paths, format="parquet", schema=terms_schema(
        man.store_offsets, man.store_payloads)).to_table()
    tbl = tbl.append_column(
        "salt", pa.array(np.zeros(tbl.num_rows, np.int32)))
    out = compact_to_file(tbl, index_dir, f"merged/terms-tier-{digest}")
    man.terms_files = [f for f in man.terms_files if f not in names] + [out]
    man.commit()
    return os.path.join(index_dir, out)


def maybe_merge(index_dir: str,
                policy: TieredMergePolicy | None = None) -> list[str]:
    """IndexWriter.maybeMerge analogue: ask the policy for overdue merges
    over the current append segments and run them one after another.
    Returns the new tier terms files (empty when the tiers are within
    budget)."""
    policy = policy or TieredMergePolicy()
    merges = policy.find_merges(list_append_segments(index_dir))
    return [execute_merge(index_dir, [s.terms_path for s in m])
            for m in merges]
