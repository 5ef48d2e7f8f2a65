"""Segment merge: a METADATA-ONLY groupby-term exchange into a global index.

The Ray Data restatement of ``SegmentMerger.merge`` + the MapReduce tool's
tree merge (``SegmentMerger.java:83-127``,
``solr/contrib/map-reduce/.../TreeMergeOutputFormat.java:100-138``) — with
the economics Lucene actually has: segment payload files are immutable and
the merge mostly RE-POINTS at them instead of rewriting bytes.

Input: per-partition term-dict rows ``(term, pid, df, ttf, start_doc,
offset, length, pos_offset, pos_length, block metadata)`` referencing the
build's ``segments/part-N.bin`` payload sidecars. The merge range-shuffles
ONLY these small metadata rows on ``(term, salt)`` (``Dataset.sort`` — the
groupby-term exchange expressed as one sort pass) and emits the global term
dictionary:

- **passthrough** (single-source terms + any group whose total df exceeds
  ``REENCODE_MAX_DOCS``): the output row references the segment ``.bin``
  in place (``payload_file = "segments/part-N.bin"``) — zero payload bytes
  move. This is the TieredMergePolicy "don't rewrite big segments" analogue.
- **compaction** (small groups fragmented across several segments — the
  Zipf tail, e.g. a df=3 term spread over 3 partitions): the merge task
  reads just those payload slices from the mmap'd segment bins, decodes,
  concatenates in doc order, re-encodes into one chunk, and writes a
  compact ``merged/payload-<name>.bin``. This bounds per-term chunk counts
  as the partition count grows (10^7 partitions at 10^12 rows would
  otherwise give every rare term 10^7 14-byte chunks).

One kernel, :func:`compact_groups`, does both for the interior groups of
every sort block, for the groups at block edges (collected on the driver)
and for the tier merges of ``mergepolicy.execute_merge``.

Output, per merge task: one ``merged/terms-<name>.parquet`` (the
``.tim/.tip`` analogue — small enough to hold in RAM per shard actor) and,
only if the task compacted anything, one ``merged/payload-<name>.bin``.
The commit's ``merged_files`` lists them; readers open nothing else.

Skew handling (north rule): a stopword-like term's metadata rows are salted
(``salt = pid // salt_group_size``) so one reducer never collects all of a
hot term's rows; big groups pass through per-row as independent chunks, so
no reducer ever materializes a hot term's full posting list either way —
posting-list *splitting* is inherited from the build (chunks = per-partition
lists, first delta absolute, so readers decode chunks independently and in
parallel; ``chunk_id`` carries the salt in its high bits and readers restore
global doc order at read time).

File names are deterministic functions of the commit generation and the
block's content (first term + row counts), so task retries are idempotent
(write tmp + rename) and no earlier commit used them. Restart semantics: the
segment BUILD is the checkpointed long phase; the merge is one bounded
metadata shuffle whose files one commit publishes — a crash mid-merge
leaves only unnamed files and restarts the merge only, never the build.
"""

from __future__ import annotations

import hashlib
import mmap
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codec import BLOCK_SIZE, decode_postings
from ..codec.postings import (_exclusive_cumsum, _intra, block_bounds,
                              decode_postings_batch, decode_values,
                              decode_values_batch, encode_postings_lists,
                              encode_values_lists)
from .build import IndexManifest, segment_bin

SALT_STRIDE = 1 << 20  # chunk_id = salt * SALT_STRIDE + local chunk index

# groups with more postings than this pass through as independent chunks
# instead of decode+re-encode (readers merge chunks at read time)
REENCODE_MAX_DOCS = 4096

_TERMS_SCHEMA = pa.schema({
    "term": pa.string(),
    "chunk_id": pa.int64(),
    "df": pa.int32(),
    "ttf": pa.int64(),
    "start_doc": pa.int64(),
    "payload_file": pa.string(),
    "offset": pa.int64(),
    "length": pa.int64(),
    "pos_offset": pa.int64(),
    "pos_length": pa.int64(),
    "block_last": pa.list_(pa.int64()),
    "block_max_tf": pa.list_(pa.int32()),
    "block_max_norm": pa.list_(pa.uint8()),
})


def _group_ids(rows: pa.Table) -> np.ndarray:
    """Dense id of each row's (term, salt) group; rows need not be
    sorted."""
    term_idx = pc.dictionary_encode(rows["term"].combine_chunks()).indices
    salts = rows["salt"].to_numpy().astype(np.int64)
    key = (term_idx.to_numpy().astype(np.int64) * (int(salts.max()) + 1)
           + salts)
    return np.unique(key, return_inverse=True)[1]


def _gather(paths: list[str], file_idx: np.ndarray,
            spans: list[tuple[np.ndarray, np.ndarray]]):
    """For each ``(offs, lens)`` in ``spans``, concatenate every row's
    byte slice ``[offs, offs + lens)`` of its bin (``paths[file_idx]``)
    into one buffer; returns ``(buffer, each row's start in it)`` per
    span. Each bin is mapped only while its rows are copied out, so no
    mapping outlives the call (a long-lived process would otherwise pin
    the disk space of every index it ever merged)."""
    out = [(np.empty(int(lens.sum()), np.uint8), _exclusive_cumsum(lens))
           for _, lens in spans]
    for f, path in enumerate(paths):
        m = file_idx == f
        with open(path, "rb") as fh, mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            b = np.frombuffer(mm, np.uint8)
            try:
                for (offs, lens), (flat, starts) in zip(spans, out):
                    il = _intra(lens[m])
                    flat[np.repeat(starts[m], lens[m]) + il] = \
                        b[np.repeat(offs[m], lens[m]) + il]
            finally:
                del b  # drop the buffer export so the map can close
    return out


def compact_groups(rows: pa.Table, index_dir: str, out_dir: str,
                   name: str) -> pa.Table:
    """The merge kernel: full-merge interiors, boundary groups and tier
    merges all compact through it (``SegmentMerger.merge``).

    ``rows`` are term rows in ``_TERMS_SCHEMA`` plus a ``salt`` column;
    rows sharing ``(term, salt)`` form a group. Single-row groups and
    groups with more than ``REENCODE_MAX_DOCS`` postings pass through
    unchanged, ``chunk_id`` included. Every other group is compacted into
    ONE chunk: its rows' payload slices are gathered from the bins named
    in ``payload_file`` (a name with a "/" is ``index_dir``-relative, a
    bare one lives in ``merged/``, as in ``MergedReader``), decoded in
    ``start_doc`` order — partition doc ranges are disjoint, so that is
    doc order — and re-encoded into ``out_dir/payload-<name>.bin`` under
    the group's smallest ``chunk_id``. The Zipf tail is most of the
    groups, so single-block rows are decoded, and single-block groups
    (and their position streams) encoded, in one vectorized call each;
    only lists longer than ``BLOCK_SIZE`` take a per-list call. The
    encoder is the build's (``encode_postings_lists``), so a group's
    bytes are what ``encode_postings`` writes for its list: code 0 only
    where it is strictly smaller (see ``codec.postings``). Returns the
    output rows in ``_TERMS_SCHEMA``."""
    gid = _group_ids(rows)
    cp = ((np.bincount(gid) > 1)
          & (np.bincount(gid, weights=rows["df"].to_numpy())
             <= REENCODE_MAX_DOCS))[gid]
    passthrough = rows.filter(pa.array(~cp)).select(_TERMS_SCHEMA.names) \
        .cast(_TERMS_SCHEMA)
    sel = np.flatnonzero(cp)
    if sel.size == 0:
        return passthrough
    sel = sel[np.lexsort((rows["start_doc"].to_numpy()[sel], gid[sel]))]
    sub = rows.take(pa.array(sel))
    gids = gid[sel]
    g_starts = np.flatnonzero(np.r_[True, gids[1:] != gids[:-1]])

    files = sub["payload_file"].combine_chunks().dictionary_encode()
    paths = [os.path.join(index_dir, f) if "/" in f
             else os.path.join(index_dir, "merged", f)
             for f in files.dictionary.to_pylist()]
    dfs = sub["df"].to_numpy().astype(np.int64)
    ttfs = sub["ttf"].to_numpy().astype(np.int64)
    lens = sub["length"].to_numpy()
    plens = sub["pos_length"].to_numpy()
    spans = [(sub["offset"].to_numpy(), lens)]
    if plens.any():
        spans.append((sub["pos_offset"].to_numpy(), plens))
    gathered = _gather(paths, files.indices.to_numpy(), spans)

    # decode: single-block rows in one vectorized call, rare multi-block
    # rows scalar
    flat, at = gathered[0]
    docs = np.empty(int(dfs.sum()), np.int64)
    tfs = np.empty(docs.size, np.int32)
    out0 = _exclusive_cumsum(dfs)
    small = dfs <= BLOCK_SIZE
    if small.any():
        d, t = decode_postings_batch(flat, at[small], dfs[small])
        dst = np.repeat(out0[small], dfs[small]) + _intra(dfs[small])
        docs[dst] = d
        tfs[dst] = t
    for i in np.flatnonzero(~small).tolist():
        docs[out0[i]:out0[i] + dfs[i]], tfs[out0[i]:out0[i] + dfs[i]] = \
            decode_postings(flat[at[i]:at[i] + lens[i]])

    # positions: same batch decode over the prox-delta streams
    pos = None
    if plens.any():
        pflat, pat = gathered[1]
        pos = np.empty(int(ttfs.sum()), np.int64)
        pout0 = _exclusive_cumsum(ttfs)
        psmall = ttfs <= BLOCK_SIZE
        if psmall.any():
            dst = np.repeat(pout0[psmall], ttfs[psmall]) \
                + _intra(ttfs[psmall])
            pos[dst] = decode_values_batch(pflat, pat[psmall],
                                           ttfs[psmall])
        for i in np.flatnonzero(~psmall).tolist():
            pos[pout0[i]:pout0[i] + ttfs[i]] = \
                decode_values(pflat[pat[i]:pat[i] + plens[i]])

    g_df = np.add.reduceat(dfs, g_starts)
    g_ttf = np.add.reduceat(ttfs, g_starts)
    gb = _exclusive_cumsum(g_df)
    increasing = np.diff(docs) > 0
    increasing[gb[1:] - 1] = True  # a group may start below the last one
    if not increasing.all():
        raise ValueError("merge: a compacted group's docs do not strictly "
                         "increase in start_doc order")

    # per-group max norm byte (an upper bound; df>0 rows always have at
    # least one block entry, so no group's value run is empty)
    bmn = sub["block_max_norm"].combine_chunks()
    vstart = _exclusive_cumsum(pc.list_value_length(bmn).to_numpy())
    g_norm = np.maximum.reduceat(pc.list_flatten(bmn).to_numpy(),
                                 vstart[g_starts])

    # layout within the compact bin: [payloads...][positions...]
    payload, p_lens = encode_postings_lists(docs, tfs, g_df)
    sections = [payload]
    pos_lens = np.zeros(g_starts.size, np.int64)
    if pos is not None:
        positions, pos_lens = encode_values_lists(pos, g_ttf)
        sections.append(positions)
    bin_name = f"payload-{name}.bin"
    path = os.path.join(out_dir, bin_name)
    with open(path + ".tmp", "wb") as f:
        for sec in sections:
            f.write(sec.tobytes())
    os.replace(path + ".tmp", path)

    nblk, first, last = block_bounds(g_df)
    boff = pa.array(np.r_[0, np.cumsum(nblk)], pa.int32())
    compacted = pa.table({
        "term": sub["term"].take(pa.array(g_starts)),
        "chunk_id": np.minimum.reduceat(sub["chunk_id"].to_numpy(),
                                        g_starts),
        "df": g_df.astype(np.int32),
        "ttf": g_ttf,
        "start_doc": docs[gb],
        "payload_file": pa.array([bin_name] * g_starts.size, pa.string()),
        "offset": _exclusive_cumsum(p_lens),
        "length": p_lens,
        "pos_offset": int(p_lens.sum()) + _exclusive_cumsum(pos_lens),
        "pos_length": pos_lens,
        "block_last": pa.ListArray.from_arrays(
            boff, pa.array(docs[last])),
        "block_max_tf": pa.ListArray.from_arrays(
            boff, pa.array(np.maximum.reduceat(tfs, first))),
        "block_max_norm": pa.ListArray.from_arrays(
            boff, pa.array(np.repeat(g_norm, nblk), pa.uint8())),
    }).cast(_TERMS_SCHEMA)
    return pa.concat_tables([passthrough, compacted])


def _segment_terms_rows(seg: pa.Table, bins: dict) -> pa.Table:
    """Salted segment term rows as kernel input: merged-terms rows that
    point at their segment ``.bin`` (``bins``: pid -> index-relative
    path) in place, ``chunk_id`` = salt * SALT_STRIDE + the row's rank by
    pid within its (term, salt) group."""
    n = seg.num_rows
    pids = seg["pid"].to_numpy()
    gid = _group_ids(seg)
    order = np.lexsort((pids, gid))
    first = np.r_[True, gid[order][1:] != gid[order][:-1]]
    seq = np.arange(n, dtype=np.int64)
    rank = np.empty(n, np.int64)
    rank[order] = seq - np.maximum.accumulate(np.where(first, seq, 0))
    uq, inv = np.unique(pids, return_inverse=True)
    names = pa.array([bins[int(p)] for p in uq.tolist()], pa.string())
    keep = [c for c in _TERMS_SCHEMA.names
            if c not in ("chunk_id", "payload_file")]
    return seg.select(keep + ["salt"]).append_column(
        "chunk_id",
        pa.array(seg["salt"].to_numpy().astype(np.int64) * SALT_STRIDE
                 + rank),
    ).append_column(
        "payload_file",
        pa.DictionaryArray.from_arrays(
            pa.array(inv.astype(np.int32)), names).cast(pa.string()),
    )


def _write_terms_file(tbl: pa.Table, out_dir: str, name: str) -> list[str]:
    """Write ``terms-<name>.parquet``; returns the merged/ files it names:
    itself and the merged/ payload bins its rows point at."""
    tpath = os.path.join(out_dir, f"terms-{name}.parquet")
    pq.write_table(tbl, tpath + ".tmp")
    os.replace(tpath + ".tmp", tpath)
    bins = pc.unique(tbl["payload_file"]).to_pylist()
    return [f"terms-{name}.parquet"] + sorted(b for b in bins if "/" not in b)


def _merge_segment_rows(seg: pa.Table, index_dir: str, out_dir: str,
                        name: str, bins: dict) -> list[str]:
    name = hashlib.sha1(name.encode()).hexdigest()[:16]
    return _write_terms_file(
        compact_groups(_segment_terms_rows(seg, bins), index_dir, out_dir,
                       name),
        out_dir, name)


def _merge_batch(batch: pa.Table, index_dir: str, out_dir: str, gen: int,
                 bins: dict) -> pa.Table:
    """Merge all interior (term, salt) groups of a sorted metadata batch;
    return the boundary rows (first & last key of the block) unmerged —
    their groups may continue in a neighbouring block — each carrying in
    ``written`` the merged/ files this batch wrote."""
    n = batch.num_rows
    written: list[str] = []
    edge = np.zeros(n, bool)
    if n:
        salts = batch["salt"].to_numpy()
        for i in (0, n - 1):
            edge |= (pc.equal(batch["term"], batch["term"][i])
                     .to_numpy(zero_copy_only=False) & (salts == salts[i]))
    if not edge.all():
        written = _merge_segment_rows(
            batch.filter(pa.array(~edge)), index_dir, out_dir,
            f"{gen}:{batch['term'][0].as_py()}:{salts[0]}:{n}", bins)
    out = batch.filter(pa.array(edge))
    return out.append_column("written", pa.array(
        [written] * out.num_rows, pa.list_(pa.string())))


def _exchange_blocks(rows: int, ncpu: int) -> int:
    """Sort blocks for a merge of ``rows`` segment term rows: one per
    ~100k rows (metadata rows are ~100 B each), capped at 2 per CPU —
    the all-to-all exchange moves blocks^2 objects, so a small index on
    a small host sorts in one block."""
    return max(1, min(rows // 100_000 + 1, 2 * ncpu))


def merge_index(
    index_dir: str,
    *,
    hot_df_threshold: int = 100_000,
    salt_group_size: int = 64,
) -> IndexManifest:
    """Metadata-shuffle-merge all segments into ``index_dir/merged``.

    The segment term rows are sorted on ``(term, salt)`` in
    :func:`_exchange_blocks` blocks (one per ~100k rows, at most 2 per
    CPU). Each sort block's interior groups go through
    :func:`compact_groups` in a Ray task; the groups at block edges are
    collected as one table and go through the same kernel on the driver.
    A compacted chunk holds exactly the bytes the build writes for the
    same list (one width rule: code 0 only where it is strictly smaller),
    so the block split changes file names, never decoded postings. One
    commit then names the new files as the merged view; the old view's
    files stay until that commit unlinks them."""
    import ray
    import ray.data as rd

    man = IndexManifest.load(index_dir)
    gen = man.generation + 1
    out_dir = os.path.join(index_dir, "merged")
    os.makedirs(out_dir, exist_ok=True)
    # quarantined partitions (exorcise_index) stay out, as in every reader
    drop = set(man.exorcised)
    parts = [p for p in man.partitions if p["partition_id"] not in drop]
    bins = {p["partition_id"]: segment_bin(p) for p in parts}

    # Local salting — NO global pre-pass: a row salts itself when its own
    # per-partition df meets the necessary condition for the term to be
    # globally hot (df_row >= threshold/nparts; if every row is below that
    # cut, sum(df) < threshold). Rows of one term may disagree (some salt 0,
    # some pid//G); that's safe because readers restore doc order after
    # concatenating chunks — chunks always partition the term's doc set.
    nparts_src = max(1, man.num_partitions)
    cut = max(1, hot_df_threshold // nparts_src)
    gsize = salt_group_size

    def add_salt(batch: pa.Table) -> pa.Table:
        pids = batch["pid"].to_numpy()
        dfs = batch["df"].to_numpy()
        salt = np.where(dfs >= cut, pids // gsize, 0).astype(np.int32)
        return batch.append_column("salt", pa.array(salt))

    nparts = _exchange_blocks(
        sum(r.get("num_terms", 0) for r in man.partitions),
        int(ray.cluster_resources().get("CPU", 8)))
    seg_files = [os.path.join(index_dir, p["segment"]) for p in parts]
    edges = [t for t in ray.get(
        # read directly into ~nparts blocks: the sort's all-to-all then
        # exchanges nparts^2 objects instead of paying a separate
        # repartition pass first
        rd.read_parquet(seg_files, override_num_blocks=nparts)
        .map_batches(add_salt, batch_format="pyarrow", batch_size=None)
        .sort(["term", "salt"])
        .map_batches(
            lambda b: _merge_batch(b, index_dir, out_dir, gen, bins),
            batch_format="pyarrow",
            batch_size=None,
        )
        # materialize first: to_arrow_refs() on a lazy dataset fetches
        # the schema by running the pipeline again (limit 1), and that
        # second run would write the first block's terms file twice
        .materialize()
        .to_arrow_refs()
    ) if t.num_rows]
    files = {f for t in edges for fs in t["written"].to_pylist() for f in fs}
    if edges:
        files.update(_merge_segment_rows(
            pa.concat_tables([t.drop_columns(["written"]) for t in edges]),
            index_dir, out_dir, f"{gen}:boundary", bins))
    man.merged = True
    man.merged_files = sorted(files)
    man.commit()
    return man


def merge_append(man: IndexManifest, seg_row: dict) -> None:
    """Incremental NRT publish: add ONE freshly-flushed segment to
    ``man``'s merged view WITHOUT re-shuffling the term dictionary (the
    caller commits ``man``).

    The merged format already supports multi-chunk terms whose payloads
    are referenced in place (``payload_file`` with a "/" resolves
    index_dir-relative — the metadata-only merge's passthrough path), so
    an append is just one more ``terms-append-*.parquet`` whose rows
    point at the new segment's own ``.bin``. Readers concatenate chunks
    per term and restore doc order; nothing existing is rewritten —
    exactly the "merges mostly re-point" economics
    (``index/TieredMergePolicy.java``: small flushes accumulate, the
    next FULL merge compacts the accumulated tail).

    At 100 TB this turns an NRT publish from an all-segments shuffle
    into a driver-side metadata write proportional to ONE flush.
    """
    tbl = pq.read_table(os.path.join(man.index_dir, seg_row["segment"]))
    pid = int(seg_row["partition_id"])
    n = tbl.num_rows
    out = pa.table({
        "term": tbl["term"],
        # high chunk ids keep append chunks ordered after full-merge ones
        "chunk_id": pa.array(
            np.full(n, 10_000_000 + pid, np.int64)),
        "df": tbl["df"],
        "ttf": tbl["ttf"],
        "start_doc": tbl["start_doc"],
        "payload_file": pa.array([segment_bin(seg_row)] * n, pa.string()),
        "offset": tbl["offset"],
        "length": tbl["length"],
        "pos_offset": tbl["pos_offset"],
        "pos_length": tbl["pos_length"],
        "block_last": tbl["block_last"],
        "block_max_tf": tbl["block_max_tf"],
        "block_max_norm": tbl["block_max_norm"],
    }).cast(_TERMS_SCHEMA)
    # named after the segment, whose name no earlier commit used
    stem = os.path.basename(seg_row["segment"])[:-len(".parquet")]
    man.merged_files += _write_terms_file(
        out, os.path.join(man.index_dir, "merged"), f"append-{stem}")
