"""Segment merge: a METADATA-ONLY groupby-term exchange into a global index.

The Ray Data restatement of ``SegmentMerger.merge`` + the MapReduce tool's
tree merge (``SegmentMerger.java:83-127``,
``solr/contrib/map-reduce/.../TreeMergeOutputFormat.java:100-138``) — with
the economics Lucene actually has: segment payload files are immutable and
the merge mostly RE-POINTS at them instead of rewriting bytes.

Input: the live partitions' own terms files, rows in the one terms schema
(``build.TERMS_SCHEMA``) whose ``payload_file`` is the segment's own
``segments/part-N.bin``. The merge range-shuffles ONLY these small metadata
rows on ``(term, salt)`` (``Dataset.sort`` — the groupby-term exchange
expressed as one sort pass) and emits the global term dictionary:

- **passthrough** (single-source terms + any group whose total df exceeds
  ``REENCODE_MAX_DOCS``): the output row keeps its ``payload_file``, so it
  references the segment ``.bin`` in place — zero payload bytes move. This
  is the TieredMergePolicy "don't rewrite big segments" analogue.
- **compaction** (small groups fragmented across several segments — the
  Zipf tail, e.g. a df=3 term spread over 3 partitions): the merge task
  reads just those payload slices from the mmap'd segment bins, decodes,
  concatenates in doc order, re-encodes into one chunk, and writes it to
  the output's own ``.bin``. Every stored stream (positions, char
  offsets, payloads) is compacted alongside the postings. This bounds
  per-term chunk counts as the partition count grows (10^7 partitions at
  10^12 rows would otherwise give every rare term 10^7 14-byte chunks).

One kernel, :func:`compact_groups`, does both for the interior groups of
every sort block, for the groups at block edges (collected on the driver)
and for the tier merges of ``mergepolicy.execute_merge``.

Output, per merge task: one ``merged/terms-<name>.parquet`` (the
``.tim/.tip`` analogue — small enough to hold in RAM per shard actor) and
its own ``merged/terms-<name>.bin``, empty when the task compacted
nothing. One commit swaps them for the files the merge read in the
manifest's ``terms_files``; readers open nothing else.

Skew handling (north rule): a stopword-like term's metadata rows are salted
(``salt = pid // salt_group_size``) so one reducer never collects all of a
hot term's rows; big groups pass through per-row as independent chunks, so
no reducer ever materializes a hot term's full posting list either way —
posting-list *splitting* is inherited from the build (chunks = per-partition
lists, first delta absolute, so readers decode chunks independently and in
parallel; chunks partition a term's doc set, readers order them by
``start_doc`` and restore global doc order at read time).

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
from .build import IndexManifest, terms_schema

# groups with more postings than this pass through as independent chunks
# instead of decode+re-encode (readers merge chunks at read time)
REENCODE_MAX_DOCS = 4096

# the value streams a terms row may carry after its postings, with the
# number of values each occurrence holds (a char offset is a
# (start_delta, length) pair)
_STREAMS = (("pos", 1), ("off", 2), ("pay", 1))


def _group_ids(rows: pa.Table) -> np.ndarray:
    """Dense id of each row's (term, salt) group; rows need not be
    sorted."""
    term_idx = pc.dictionary_encode(rows["term"].combine_chunks()).indices
    salts = rows["salt"].to_numpy().astype(np.int64)
    key = (term_idx.to_numpy().astype(np.int64)
           * (int(salts.max(initial=0)) + 1) + salts)
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


def _decode_values_lists(flat: np.ndarray, at: np.ndarray,
                         lens: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The value streams at ``flat[at[i]:at[i] + lens[i]]`` (``counts[i]``
    values each), decoded and laid end to end: single-block streams in
    one vectorized call, the rare longer ones one by one."""
    out = np.empty(int(counts.sum()), np.int64)
    out0 = _exclusive_cumsum(counts)
    small = counts <= BLOCK_SIZE
    if small.any():
        out[np.repeat(out0[small], counts[small]) + _intra(counts[small])] \
            = decode_values_batch(flat, at[small], counts[small])
    for i in np.flatnonzero(~small).tolist():
        out[out0[i]:out0[i] + counts[i]] = \
            decode_values(flat[at[i]:at[i] + lens[i]])
    return out


def _write_bin(path: str, sections: list[np.ndarray]) -> None:
    with open(path + ".tmp", "wb") as f:
        for sec in sections:
            f.write(sec.tobytes())
    os.replace(path + ".tmp", path)


def compact_groups(rows: pa.Table, index_dir: str, stem: str) -> pa.Table:
    """The merge kernel: full-merge interiors, boundary groups and tier
    merges all compact through it (``SegmentMerger.merge``).

    ``rows`` are terms rows (``build.terms_schema``) plus a ``salt``
    column; rows sharing ``(term, salt)`` form a group. Single-row groups
    and groups with more than ``REENCODE_MAX_DOCS`` postings pass through
    unchanged. Every other group is compacted into ONE chunk: its rows'
    stream slices are gathered from the index-relative bins named in
    ``payload_file``, decoded in ``start_doc`` order — a term's chunks
    partition its docs, so that is doc order — and re-encoded into
    ``index_dir/<stem>.bin`` (written, possibly empty, by every call).
    Every stored stream is carried: positions, char offsets (two values
    per occurrence) and payloads, laid out after the postings as the
    build lays them out. The Zipf tail is most of the groups, so
    single-block rows are decoded, and single-block groups encoded, in
    one vectorized call per stream; only lists longer than ``BLOCK_SIZE``
    take a per-list call. The encoder is the build's
    (``encode_postings_lists``), so a group's bytes are what
    ``encode_postings`` writes for its list: code 0 only where it is
    strictly smaller (see ``codec.postings``). Returns the output rows
    in the input's terms schema."""
    names = rows.schema.names
    schema = terms_schema("off_offset" in names, "pay_offset" in names)
    bin_rel = stem + ".bin"
    gid = _group_ids(rows)
    cp = ((np.bincount(gid) > 1)
          & (np.bincount(gid, weights=rows["df"].to_numpy())
             <= REENCODE_MAX_DOCS))[gid]
    passthrough = rows.filter(pa.array(~cp)).select(schema.names) \
        .cast(schema)
    sel = np.flatnonzero(cp)
    if sel.size == 0:
        _write_bin(os.path.join(index_dir, bin_rel), [])
        return passthrough
    sel = sel[np.lexsort((rows["start_doc"].to_numpy()[sel], gid[sel]))]
    sub = rows.take(pa.array(sel))
    gids = gid[sel]
    g_starts = np.flatnonzero(np.r_[True, gids[1:] != gids[:-1]])

    # stored value streams: positions when any row has them, offsets and
    # payloads when the schema carries them
    stored = {"pos": sub["pos_length"].to_numpy().any(),
              "off": "off_offset" in names, "pay": "pay_offset" in names}
    streams = [(n, k) for n, k in _STREAMS if stored[n]]
    files = sub["payload_file"].combine_chunks().dictionary_encode()
    paths = [os.path.join(index_dir, f)
             for f in files.dictionary.to_pylist()]
    dfs = sub["df"].to_numpy().astype(np.int64)
    ttfs = sub["ttf"].to_numpy().astype(np.int64)
    lens = sub["length"].to_numpy()
    cols = [("offset", "length")] + [(f"{n}_offset", f"{n}_length")
                                     for n, _ in streams]
    gathered = _gather(paths, files.indices.to_numpy(), [
        (sub[o].to_numpy(), sub[ln].to_numpy()) for o, ln in cols])

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

    # layout within the bin: [postings...][positions...][offsets or
    # payloads...], as the build writes a segment's
    payload, p_lens = encode_postings_lists(docs, tfs, g_df)
    sections = [payload]
    end = int(p_lens.sum())
    none = np.zeros(g_df.size, np.int64)
    # an index without positions keeps empty position refs
    refs = {"pos": (end + none, none)}
    for (n, k), (vflat, vat) in zip(streams, gathered[1:]):
        vals = _decode_values_lists(vflat, vat,
                                    sub[f"{n}_length"].to_numpy(), k * ttfs)
        enc, enc_lens = encode_values_lists(vals, k * g_ttf)
        sections.append(enc)
        refs[n] = (end + _exclusive_cumsum(enc_lens), enc_lens)
        end += int(enc_lens.sum())
    _write_bin(os.path.join(index_dir, bin_rel), sections)

    nblk, first, last = block_bounds(g_df)
    boff = pa.array(np.r_[0, np.cumsum(nblk)], pa.int32())
    out = {
        "term": sub["term"].take(pa.array(g_starts)),
        "df": g_df.astype(np.int32),
        "ttf": g_ttf,
        "start_doc": docs[gb],
        "payload_file": pa.repeat(bin_rel, g_starts.size),
        "offset": _exclusive_cumsum(p_lens),
        "length": p_lens,
        "pos_offset": refs["pos"][0],
        "pos_length": refs["pos"][1],
        "block_last": pa.ListArray.from_arrays(
            boff, pa.array(docs[last])),
        "block_max_tf": pa.ListArray.from_arrays(
            boff, pa.array(np.maximum.reduceat(tfs, first))),
        "block_max_norm": pa.ListArray.from_arrays(
            boff, pa.array(np.repeat(g_norm, nblk), pa.uint8())),
    }
    for n in ("off", "pay"):
        if stored[n]:
            out[f"{n}_offset"], out[f"{n}_length"] = refs[n]
    return pa.concat_tables([passthrough, pa.table(out).cast(schema)])


def compact_to_file(rows: pa.Table, index_dir: str, stem: str) -> str:
    """Compact ``rows`` (:func:`compact_groups`) into the terms file
    ``<stem>.parquet`` and its own ``<stem>.bin``, both index-relative;
    returns the terms file's index-relative path."""
    tbl = compact_groups(rows, index_dir, stem)
    rel = stem + ".parquet"
    path = os.path.join(index_dir, rel)
    pq.write_table(tbl, path + ".tmp")
    os.replace(path + ".tmp", path)
    return rel


def _merged_stem(key: str) -> str:
    return "merged/terms-" + hashlib.sha1(key.encode()).hexdigest()[:16]


def _merge_batch(batch: pa.Table, index_dir: str, gen: int) -> pa.Table:
    """Merge all interior (term, salt) groups of a sorted metadata batch;
    return the boundary rows (first & last key of the block) unmerged —
    their groups may continue in a neighbouring block — each carrying in
    ``written`` the terms file this batch wrote, if any."""
    n = batch.num_rows
    written: list[str] = []
    edge = np.zeros(n, bool)
    if n:
        salts = batch["salt"].to_numpy()
        for i in (0, n - 1):
            edge |= (pc.equal(batch["term"], batch["term"][i])
                     .to_numpy(zero_copy_only=False) & (salts == salts[i]))
    if not edge.all():
        written = [compact_to_file(
            batch.filter(pa.array(~edge)), index_dir, _merged_stem(
                f"{gen}:{batch['term'][0].as_py()}:{salts[0]}:{n}"))]
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
    """Metadata-shuffle-merge the live partitions' own terms files into
    ``index_dir/merged``.

    The segment term rows are sorted on ``(term, salt)`` in
    :func:`_exchange_blocks` blocks (one per ~100k rows, at most 2 per
    CPU). Each sort block's interior groups go through
    :func:`compact_groups` in a Ray task; the groups at block edges are
    collected as one table and go through the same kernel on the driver.
    A compacted chunk holds exactly the bytes the build writes for the
    same list (one width rule: code 0 only where it is strictly smaller),
    so the block split changes file names, never decoded postings. One
    commit then swaps the new terms files for the whole list; the files
    only the old list named stay until that commit unlinks them."""
    import ray
    import ray.data as rd

    man = IndexManifest.load(index_dir)
    gen = man.generation + 1
    os.makedirs(os.path.join(index_dir, "merged"), exist_ok=True)

    # Local salting — NO global pre-pass: a row salts itself when its own
    # per-partition df meets the necessary condition for the term to be
    # globally hot (df_row >= threshold/nparts; if every row is below that
    # cut, sum(df) < threshold). Rows of one term may disagree (some salt 0,
    # some pid//G); that's safe because readers restore doc order after
    # concatenating chunks — chunks always partition the term's doc set.
    # A row's partition is the one whose doc range holds its start_doc.
    nparts_src = max(1, man.num_partitions)
    cut = max(1, hot_df_threshold // nparts_src)
    gsize = salt_group_size
    bases = np.asarray([p["doc_base"] for p in man.partitions], np.int64)
    pids = np.asarray([p["partition_id"] for p in man.partitions], np.int64)
    by_base = np.argsort(bases, kind="stable")
    bases, pids = bases[by_base], pids[by_base]

    def add_salt(batch: pa.Table) -> pa.Table:
        pid = pids[np.searchsorted(bases, batch["start_doc"].to_numpy(),
                                   "right") - 1]
        dfs = batch["df"].to_numpy()
        salt = np.where(dfs >= cut, pid // gsize, 0).astype(np.int32)
        return batch.append_column("salt", pa.array(salt))

    nparts = _exchange_blocks(
        sum(r.get("num_terms", 0) for r in man.partitions),
        int(ray.cluster_resources().get("CPU", 8)))
    seg_files = [os.path.join(index_dir, f) for f in man.segment_terms()]
    edges = [t for t in ray.get(
        # read directly into ~nparts blocks: the sort's all-to-all then
        # exchanges nparts^2 objects instead of paying a separate
        # repartition pass first
        rd.read_parquet(seg_files, override_num_blocks=nparts)
        .map_batches(add_salt, batch_format="pyarrow", batch_size=None)
        .sort(["term", "salt"])
        .map_batches(
            lambda b: _merge_batch(b, index_dir, gen),
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
        files.add(compact_to_file(
            pa.concat_tables([t.drop_columns(["written"]) for t in edges]),
            index_dir, _merged_stem(f"{gen}:boundary")))
    man.terms_files = sorted(files)
    man.commit()
    return man
