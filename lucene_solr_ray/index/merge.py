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
  concatenates in pid order, re-encodes, and writes a compact
  ``merged/payload-<name>.bin``. This bounds per-term chunk counts as the
  partition count grows (10^7 partitions at 10^12 rows would otherwise give
  every rare term 10^7 14-byte chunks).

Output, per merge task: one ``merged/terms-<name>.parquet`` (the
``.tim/.tip`` analogue — small enough to hold in RAM per shard actor) and,
only if the task compacted anything, one ``merged/payload-<name>.bin``.

Skew handling (north rule): a stopword-like term's metadata rows are salted
(``salt = pid // salt_group_size``) so one reducer never collects all of a
hot term's rows; big groups pass through per-row as independent chunks, so
no reducer ever materializes a hot term's full posting list either way —
posting-list *splitting* is inherited from the build (chunks = per-partition
lists, first delta absolute, so readers decode chunks independently and in
parallel; ``chunk_id`` carries the salt in its high bits and readers restore
global doc order at read time).

File names are deterministic functions of content (first term + row counts),
so task retries are idempotent (write tmp + rename). Restart semantics: the
segment BUILD is the checkpointed long phase; the merge is one bounded
metadata shuffle written to ``merged.tmp`` and published atomically — a
crash mid-merge restarts the merge only, never the build.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codec import BLOCK_SIZE, decode_postings, encode_postings
from ..codec.postings import decode_values, encode_values
from .build import IndexManifest

DEFAULT_CHUNK_DOCS = BLOCK_SIZE * 512  # 64k postings per compacted chunk row
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


def _seg_bin_name(pid: int) -> str:
    return f"segments/part-{pid:05d}.bin"


# per-process mmap cache for segment payload bins (merge tasks + the driver
# boundary pass read compaction slices through this)
_MMAPS: dict[str, memoryview] = {}


def _mmap(path: str) -> memoryview:
    # key on file identity, not just path: a rebuild os.replace()s the bin,
    # and long-lived worker processes must not serve the old inode's bytes.
    # At most ONE generation per path stays cached — a replaced file's
    # stale mmap (and its fd) is dropped, so repeated build/merge cycles
    # in long-lived Ray workers don't accumulate descriptors.
    st = os.stat(path)
    key = (path, st.st_ino, st.st_size, st.st_mtime_ns)
    mv = _MMAPS.get(key)
    if mv is None:
        from ..search.readers import mmap_file

        for stale in [k for k in _MMAPS if k[0] == path]:
            del _MMAPS[stale]
        mv = mmap_file(path)
        _MMAPS[key] = mv
    return mv


class _MetaView:
    """Columnar view of a sorted term-metadata batch (numpy columns + the
    (offsets, values) pair of ``block_max_norm`` — no per-row pylist)."""

    def __init__(self, batch: pa.Table):
        self.term_col = batch["term"].combine_chunks()
        self.salts = batch["salt"].to_numpy()
        self.pids = batch["pid"].to_numpy()
        self.dfs = batch["df"].to_numpy()
        self.ttfs = batch["ttf"].to_numpy()
        self.start_docs = batch["start_doc"].to_numpy()
        self.offsets = batch["offset"].to_numpy()
        self.lengths = batch["length"].to_numpy()
        self.pos_offsets = batch["pos_offset"].to_numpy()
        self.pos_lengths = batch["pos_length"].to_numpy()
        arr = batch["block_max_norm"].combine_chunks()
        self.max_norms = (arr.offsets.to_numpy(), arr.values.to_numpy())

    def term(self, i: int) -> str:
        return self.term_col[int(i)].as_py()


def _payload_slice(index_dir: str, pid: int, off: int, ln: int) -> memoryview:
    mv = _mmap(os.path.join(index_dir, _seg_bin_name(pid)))
    return mv[off : off + ln]


def _compact_groups_vectorized(
    v: _MetaView, group_id: np.ndarray, cp_group: np.ndarray,
    index_dir: str, chunk_docs: int, use_positions: bool = False,
) -> list[dict]:
    """Compact ALL small fragmented groups of a sorted batch in one
    vectorized pass: gather the payload byte slices per source segment
    with fancy indexing, decode all single-block rows at once
    (``decode_postings_batch``), then re-encode per group. A per-row
    Python decode would dominate merge wall time (the Zipf tail is ~98%
    of term-dict rows)."""
    from ..codec.postings import _intra, decode_postings_batch

    rows = np.flatnonzero(cp_group[group_id])
    if rows.size == 0:
        return []
    order = np.lexsort((v.pids[rows], group_id[rows]))
    rows = rows[order]
    gids = group_id[rows]
    lens = v.lengths[rows].astype(np.int64)
    dfs = v.dfs[rows].astype(np.int64)
    offs = v.offsets[rows].astype(np.int64)
    pids = v.pids[rows]

    # gather payload bytes (headers included) into one flat buffer laid
    # out in (group, pid) order — one fancy-index per distinct source bin
    flat = np.empty(int(lens.sum()), np.uint8)
    dst0 = np.zeros(rows.size, np.int64)
    np.cumsum(lens[:-1], out=dst0[1:])
    for pid in np.unique(pids).tolist():
        m = pids == pid
        seg = np.frombuffer(
            _mmap(os.path.join(index_dir, _seg_bin_name(int(pid)))),
            np.uint8,
        )
        il = _intra(lens[m])
        flat[np.repeat(dst0[m], lens[m]) + il] = \
            seg[np.repeat(offs[m], lens[m]) + il]

    # decode: single-block rows in one vectorized call, rare multi-block
    # rows scalar
    total_df = int(dfs.sum())
    docs = np.empty(total_df, np.int64)
    tfs = np.empty(total_df, np.int32)
    out0 = np.zeros(rows.size, np.int64)
    np.cumsum(dfs[:-1], out=out0[1:])
    small = dfs <= BLOCK_SIZE
    if small.any():
        d_s, t_s = decode_postings_batch(flat, dst0[small], dfs[small])
        dsti = np.repeat(out0[small], dfs[small]) + _intra(dfs[small])
        docs[dsti] = d_s
        tfs[dsti] = t_s
    for i in np.flatnonzero(~small).tolist():
        d, f = decode_postings(flat[dst0[i]:dst0[i] + int(lens[i])])
        docs[out0[i]:out0[i] + dfs[i]] = d
        tfs[out0[i]:out0[i] + dfs[i]] = f

    # positions: same gather + batch-decode over the prox-delta streams
    pos_flat = None
    pos_out0 = None
    ttfs_rows = None
    if use_positions:
        from ..codec.postings import decode_values_batch

        plens = v.pos_lengths[rows].astype(np.int64)
        pflat = np.empty(int(plens.sum()), np.uint8)
        pdst0 = np.zeros(rows.size, np.int64)
        np.cumsum(plens[:-1], out=pdst0[1:])
        poffs = v.pos_offsets[rows].astype(np.int64)
        for pid in np.unique(pids).tolist():
            m = pids == pid
            seg = np.frombuffer(
                _mmap(os.path.join(index_dir, _seg_bin_name(int(pid)))),
                np.uint8,
            )
            il = _intra(plens[m])
            pflat[np.repeat(pdst0[m], plens[m]) + il] = \
                seg[np.repeat(poffs[m], plens[m]) + il]
        ttfs_rows = v.ttfs[rows].astype(np.int64)
        total_ttf = int(ttfs_rows.sum())
        pos_flat = np.empty(total_ttf, np.int64)
        pos_out0 = np.zeros(rows.size, np.int64)
        np.cumsum(ttfs_rows[:-1], out=pos_out0[1:])
        psmall = ttfs_rows <= BLOCK_SIZE
        if psmall.any():
            vals = decode_values_batch(pflat, pdst0[psmall],
                                       ttfs_rows[psmall])
            dsti = np.repeat(pos_out0[psmall], ttfs_rows[psmall]) \
                + _intra(ttfs_rows[psmall])
            pos_flat[dsti] = vals
        for i in np.flatnonzero(~psmall).tolist():
            vals = decode_values(pflat[pdst0[i]:pdst0[i] + int(plens[i])])
            pos_flat[pos_out0[i]:pos_out0[i] + ttfs_rows[i]] = vals

    # per-row -> per-group max norm byte (upper bound; df>0 rows always
    # have at least one block entry, so reduceat segments are non-empty)
    boff, bvals = v.max_norms
    if boff[-1] > 0:
        row_max_all = np.maximum.reduceat(bvals, boff[:-1])
    else:
        row_max_all = np.zeros(boff.size - 1, bvals.dtype)
    g_change = np.ones(rows.size, bool)
    g_change[1:] = gids[1:] != gids[:-1]
    g_starts = np.flatnonzero(g_change)
    g_ends = np.append(g_starts[1:], rows.size)
    g_norm = np.maximum.reduceat(row_max_all[rows], g_starts)
    g_ttf = np.add.reduceat(v.ttfs[rows].astype(np.int64), g_starts)

    out: list[dict] = []
    for k, (s, e) in enumerate(zip(g_starts.tolist(), g_ends.tolist())):
        term = v.term(rows[s])
        salt = int(v.salts[rows[s]])
        lo0 = int(out0[s])
        hi0 = int(out0[e - 1] + dfs[e - 1])
        gd = docs[lo0:hi0]
        gt = tfs[lo0:hi0]
        if pos_flat is not None:
            gp = pos_flat[int(pos_out0[s]):
                          int(pos_out0[e - 1] + ttfs_rows[e - 1])]
            g_tf_cum = np.concatenate(([0], np.cumsum(gt)))
        max_norm = int(g_norm[k])
        for c in range((gd.size + chunk_docs - 1) // chunk_docs):
            lo, hi = c * chunk_docs, min((c + 1) * chunk_docs, gd.size)
            payload, last, maxtf = encode_postings(gd[lo:hi], gt[lo:hi])
            out.append({
                "term": term,
                "chunk_id": salt * SALT_STRIDE + c,
                "df": hi - lo,
                "ttf": int(g_ttf[k]) if hi - lo == gd.size
                else int(gt[lo:hi].sum()),
                "start_doc": int(gd[lo]),
                "payload": payload,
                "positions": (
                    encode_values(gp[g_tf_cum[lo]:g_tf_cum[hi]])
                    if pos_flat is not None else b""
                ),
                "block_last": last,
                "block_max_tf": maxtf,
                "block_max_norm": np.full(last.size, max_norm, np.uint8),
            })
    return out


def _chunks_to_table(chunks: list[dict], payload_name: str) -> pa.Table:
    """Compacted chunk dicts -> terms sub-table; offsets are laid out
    [payloads...][positions...] within the compact file."""
    lens = np.array([len(c["payload"]) for c in chunks], np.int64)
    offs = np.zeros(lens.size, np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    pos_base = int(lens.sum())
    pos_lens = np.array([len(c["positions"]) for c in chunks], np.int64)
    pos_offs = np.full(lens.size, pos_base, np.int64)
    pos_offs[1:] += np.cumsum(pos_lens[:-1])
    return pa.table({
        "term": pa.array([c["term"] for c in chunks], pa.string()),
        "chunk_id": pa.array([c["chunk_id"] for c in chunks], pa.int64()),
        "df": pa.array([c["df"] for c in chunks], pa.int32()),
        "ttf": pa.array([c["ttf"] for c in chunks], pa.int64()),
        "start_doc": pa.array([c["start_doc"] for c in chunks], pa.int64()),
        "payload_file": pa.array([payload_name] * len(chunks), pa.string()),
        "offset": pa.array(offs),
        "length": pa.array(lens),
        "pos_offset": pa.array(pos_offs),
        "pos_length": pa.array(pos_lens),
        "block_last": pa.array([np.asarray(c["block_last"]).tolist()
                                for c in chunks], pa.list_(pa.int64())),
        "block_max_tf": pa.array([np.asarray(c["block_max_tf"]).tolist()
                                  for c in chunks], pa.list_(pa.int32())),
        "block_max_norm": pa.array([np.asarray(c["block_max_norm"]).tolist()
                                    for c in chunks], pa.list_(pa.uint8())),
    })


def _write_compact_bin(chunks: list[dict], path: str) -> None:
    with open(path + ".tmp", "wb") as f:
        for c in chunks:
            f.write(c["payload"])
        for c in chunks:
            if len(c["positions"]):
                f.write(c["positions"])
    os.replace(path + ".tmp", path)


def _passthrough_table(batch: pa.Table, v: _MetaView, rows: np.ndarray,
                       rank_of: np.ndarray) -> pa.Table:
    """Vectorized reference rows: the output chunk points at the source
    segment bin — term/df/ttf/offsets taken columnar, payload_file built
    via a dictionary over the (few) distinct pids."""
    idx = pa.array(rows)
    uq, inv = np.unique(v.pids[rows], return_inverse=True)
    names = pa.array([_seg_bin_name(int(p)) for p in uq.tolist()],
                     pa.string())
    payload_file = pa.DictionaryArray.from_arrays(
        pa.array(inv.astype(np.int32)), names
    ).cast(pa.string())
    return pa.table({
        "term": batch["term"].take(idx),
        "chunk_id": pa.array(
            v.salts[rows].astype(np.int64) * SALT_STRIDE + rank_of[rows]
        ),
        "df": pa.array(v.dfs[rows].astype(np.int32)),
        "ttf": pa.array(v.ttfs[rows].astype(np.int64)),
        "start_doc": pa.array(v.start_docs[rows].astype(np.int64)),
        "payload_file": payload_file,
        "offset": pa.array(v.offsets[rows].astype(np.int64)),
        "length": pa.array(v.lengths[rows].astype(np.int64)),
        "pos_offset": pa.array(v.pos_offsets[rows].astype(np.int64)),
        "pos_length": pa.array(v.pos_lengths[rows].astype(np.int64)),
        "block_last": batch["block_last"].take(idx).combine_chunks().cast(
            pa.list_(pa.int64())),
        "block_max_tf": batch["block_max_tf"].take(idx).combine_chunks()
        .cast(pa.list_(pa.int32())),
        "block_max_norm": batch["block_max_norm"].take(idx).combine_chunks()
        .cast(pa.list_(pa.uint8())),
    })


def _write_terms_file(tables: list[pa.Table], out_dir: str,
                      name: str) -> None:
    tables = [
        t.select(_TERMS_SCHEMA.names).cast(_TERMS_SCHEMA)
        for t in tables if t.num_rows
    ]
    if not tables:
        return
    tbl = pa.concat_tables(tables)
    tpath = os.path.join(out_dir, f"terms-{name}.parquet")
    pq.write_table(tbl, tpath + ".tmp")
    os.replace(tpath + ".tmp", tpath)


def _merge_batch(
    batch: pa.Table, index_dir: str, out_dir: str, chunk_docs: int,
    use_positions: bool, reencode_max_docs: int = REENCODE_MAX_DOCS,
) -> pa.Table:
    """Merge all interior (term, salt) groups of a sorted metadata batch;
    return the boundary rows (first & last key of the block) unmerged."""
    n = batch.num_rows
    if n == 0:
        return batch
    v = _MetaView(batch)
    change = np.empty(n, bool)
    change[0] = True
    if n > 1:
        import pyarrow.compute as pc

        term_neq = pc.not_equal(
            v.term_col.slice(1), v.term_col.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
        change[1:] = term_neq | (v.salts[1:] != v.salts[:-1])
    group_id = np.cumsum(change) - 1
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    g_size = ends - starts
    g_df = np.add.reduceat(v.dfs.astype(np.int64), starts)
    interior = np.ones(starts.size, bool)
    interior[0] = False
    interior[-1] = False
    pt_group = interior & ((g_size == 1) | (g_df > reencode_max_docs))
    cp_group = interior & (g_size > 1) & (g_df <= reencode_max_docs)

    # per-row rank by pid within its group (chunk_id sequencing)
    order = np.lexsort((v.pids, group_id))
    seq = np.arange(n, dtype=np.int64)
    gs = group_id[order]
    first = np.ones(n, bool)
    first[1:] = gs[1:] != gs[:-1]
    base = np.maximum.accumulate(np.where(first, seq, 0))
    rank_of = np.empty(n, np.int64)
    rank_of[order] = seq - base

    tables = []
    pt_rows = np.flatnonzero(pt_group[group_id])
    if pt_rows.size:
        tables.append(_passthrough_table(batch, v, pt_rows, rank_of))

    chunks = _compact_groups_vectorized(
        v, group_id, cp_group, index_dir, chunk_docs,
        use_positions=use_positions,
    )
    name = hashlib.sha1(
        f"{v.term(0)}:{n}:{pt_rows.size}:{len(chunks)}".encode()
    ).hexdigest()[:16]
    if chunks:
        payload_name = f"payload-{name}.bin"
        _write_compact_bin(chunks, os.path.join(out_dir, payload_name))
        tables.append(_chunks_to_table(chunks, payload_name))
    _write_terms_file(tables, out_dir, name)
    boundary_idx = np.flatnonzero(~interior[group_id])
    return batch.take(pa.array(boundary_idx))


def merge_index(
    index_dir: str,
    *,
    hot_df_threshold: int = 100_000,
    salt_group_size: int = 64,
    chunk_docs: int = DEFAULT_CHUNK_DOCS,
    reencode_max_docs: int = REENCODE_MAX_DOCS,
) -> IndexManifest:
    """Metadata-shuffle-merge all segments into ``index_dir/merged``.

    ``reencode_max_docs`` is the MergePolicy knob (TieredMergePolicy's
    "rewrite small, re-point big" boundary): groups with more postings
    pass through as independent chunks; smaller fragmented groups are
    compacted into fresh payloads."""
    import ray
    import ray.data as rd

    man = IndexManifest.load(index_dir)
    seg_dir = os.path.join(index_dir, "segments")
    out_dir = os.path.join(index_dir, "merged")
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    # clear any stale staging dir from a crashed/differently-parameterized
    # prior merge — leftover terms files would double-count postings
    shutil.rmtree(out_dir + ".tmp", ignore_errors=True)
    os.makedirs(out_dir + ".tmp")

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

    use_positions = man.store_positions
    tmp_out = out_dir + ".tmp"
    total_rows = sum(r.get("num_terms", 0) for r in man.partitions) or 1
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    # metadata rows are small (~100 B each); size tasks at ~100k rows,
    # capped at 2/CPU — the all-to-all exchange cost grows ~quadratically
    # in partition count (object count)
    nparts = max(8, min(total_rows // 100_000 + 1, ncpu * 2))
    seg_files = sorted(
        os.path.join(seg_dir, f) for f in os.listdir(seg_dir)
        if f.endswith(".parquet")
    )
    boundary = (
        # read directly into ~nparts blocks: the sort's all-to-all then
        # exchanges nparts^2 objects instead of paying a separate
        # repartition pass first
        rd.read_parquet(seg_files, override_num_blocks=nparts)
        .map_batches(add_salt, batch_format="pyarrow", batch_size=None)
        .sort(["term", "salt"])
        .map_batches(
            lambda b: _merge_batch(b, index_dir, tmp_out, chunk_docs,
                                   use_positions, reencode_max_docs),
            batch_format="pyarrow",
            batch_size=None,
        )
        .take_all()
    )
    # final stage: merge the (small) boundary groups driver-side; big
    # groups pass through row-per-chunk like interiors
    if boundary:
        groups: dict[tuple, list] = {}
        for r in boundary:
            groups.setdefault((r["term"], int(r["salt"])), []).append(r)
        tables: list[pa.Table] = []
        chunks: list[dict] = []
        pt_rows: list[dict] = []
        for (term, salt), grp in sorted(groups.items()):
            grp.sort(key=lambda g: int(g["pid"]))
            if len(grp) > 1 and sum(int(g["df"]) for g in grp) \
                    <= reencode_max_docs:
                # compact driver-side from the segment bins
                docs_l, tfs_l, pos_l = [], [], []
                max_norm = 0
                for g in grp:
                    pl = _payload_slice(index_dir, int(g["pid"]),
                                        int(g["offset"]), int(g["length"]))
                    d, f = decode_postings(pl)
                    docs_l.append(d)
                    tfs_l.append(f)
                    if use_positions:
                        pp = _payload_slice(
                            index_dir, int(g["pid"]),
                            int(g["pos_offset"]), int(g["pos_length"]))
                        pos_l.append(decode_values(pp))
                    bn = np.asarray(g["block_max_norm"])
                    if bn.size:
                        max_norm = max(max_norm, int(bn.max()))
                docs = np.concatenate(docs_l)
                tfs = np.concatenate(tfs_l)
                payload, last, maxtf = encode_postings(docs, tfs)
                chunks.append({
                    "term": term,
                    "chunk_id": salt * SALT_STRIDE,
                    "df": int(docs.size),
                    "ttf": int(tfs.sum()),
                    "start_doc": int(docs[0]),
                    "payload": payload,
                    "positions": (
                        encode_values(np.concatenate(pos_l))
                        if pos_l else b""
                    ),
                    "block_last": last,
                    "block_max_tf": maxtf,
                    "block_max_norm": np.full(last.size, max_norm, np.uint8),
                })
            else:
                for k, g in enumerate(grp):
                    pt_rows.append({
                        "term": term,
                        "chunk_id": salt * SALT_STRIDE + k,
                        "df": int(g["df"]),
                        "ttf": int(g["ttf"]),
                        "start_doc": int(g["start_doc"]),
                        "payload_file": _seg_bin_name(int(g["pid"])),
                        "offset": int(g["offset"]),
                        "length": int(g["length"]),
                        "pos_offset": int(g["pos_offset"]),
                        "pos_length": int(g["pos_length"]),
                        "block_last": np.asarray(g["block_last"]).tolist(),
                        "block_max_tf": np.asarray(
                            g["block_max_tf"]).tolist(),
                        "block_max_norm": np.asarray(
                            g["block_max_norm"]).tolist(),
                    })
        name = hashlib.sha1(
            f"boundary:{len(pt_rows)}:{len(chunks)}".encode()
        ).hexdigest()[:16]
        if chunks:
            payload_name = f"payload-{name}.bin"
            _write_compact_bin(chunks, os.path.join(tmp_out, payload_name))
            tables.append(_chunks_to_table(chunks, payload_name))
        if pt_rows:
            tables.append(pa.table({
                "term": pa.array([r["term"] for r in pt_rows], pa.string()),
                "chunk_id": pa.array([r["chunk_id"] for r in pt_rows],
                                     pa.int64()),
                "df": pa.array([r["df"] for r in pt_rows], pa.int32()),
                "ttf": pa.array([r["ttf"] for r in pt_rows], pa.int64()),
                "start_doc": pa.array([r["start_doc"] for r in pt_rows],
                                      pa.int64()),
                "payload_file": pa.array([r["payload_file"] for r in pt_rows],
                                         pa.string()),
                "offset": pa.array([r["offset"] for r in pt_rows],
                                   pa.int64()),
                "length": pa.array([r["length"] for r in pt_rows],
                                   pa.int64()),
                "pos_offset": pa.array([r["pos_offset"] for r in pt_rows],
                                       pa.int64()),
                "pos_length": pa.array([r["pos_length"] for r in pt_rows],
                                       pa.int64()),
                "block_last": pa.array([r["block_last"] for r in pt_rows],
                                       pa.list_(pa.int64())),
                "block_max_tf": pa.array(
                    [r["block_max_tf"] for r in pt_rows],
                    pa.list_(pa.int32())),
                "block_max_norm": pa.array(
                    [r["block_max_norm"] for r in pt_rows],
                    pa.list_(pa.uint8())),
            }))
        if tables:
            _write_terms_file(tables, tmp_out, name)
    os.replace(tmp_out, out_dir)
    man.merged = True
    man.save()
    return man


def merge_append(index_dir: str, seg_row: dict) -> None:
    """Incremental NRT publish: add ONE freshly-flushed segment to an
    existing merged view WITHOUT re-shuffling the term dictionary.

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
    import pyarrow.parquet as pq_

    seg_path = os.path.join(index_dir, seg_row["segment"])
    tbl = pq_.read_table(seg_path)
    pid = int(seg_row["partition_id"])
    rel_bin = seg_row["segment"].replace(".parquet", ".bin")
    n = tbl.num_rows
    out = pa.table({
        "term": tbl["term"],
        # high chunk ids keep append chunks ordered after full-merge ones
        "chunk_id": pa.array(
            np.full(n, 10_000_000 + pid, np.int64)),
        "df": tbl["df"],
        "ttf": tbl["ttf"],
        "start_doc": tbl["start_doc"],
        "payload_file": pa.array([rel_bin] * n, pa.string()),
        "offset": tbl["offset"],
        "length": tbl["length"],
        "pos_offset": tbl["pos_offset"],
        "pos_length": tbl["pos_length"],
        "block_last": tbl["block_last"],
        "block_max_tf": tbl["block_max_tf"],
        "block_max_norm": tbl["block_max_norm"],
    }).cast(_TERMS_SCHEMA)
    out_dir = os.path.join(index_dir, "merged")
    path = os.path.join(out_dir, f"terms-append-{pid:05d}.parquet")
    pq_.write_table(out, path + ".tmp")
    os.replace(path + ".tmp", path)
