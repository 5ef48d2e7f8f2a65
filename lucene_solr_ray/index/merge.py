"""Segment merge: a METADATA-ONLY groupby-term exchange into a global index.

The Ray Data restatement of ``SegmentMerger.merge`` + the MapReduce tool's
tree merge (``SegmentMerger.java:83-127``,
``solr/contrib/map-reduce/.../TreeMergeOutputFormat.java:100-138``) — with
the economics Lucene actually has: segment payload files are immutable and
the merge mostly RE-POINTS at them instead of rewriting bytes.

Input: the live partitions' own terms files, rows in the one terms schema
(``build.TERMS_SCHEMA``) whose ``payload_file`` is the segment's own
``segments/part-N.bin``. Every one of them is already sorted by term, so
the groupby-term exchange needs no sort: like ``MultiTermsEnum`` walking
sorted segment dictionaries, the merge splits the term space into ranges
at terms sampled from the sorted files, and each range task reads just
the row groups holding its rows in every file, salts the rows, orders
them by ``(term, salt, start_doc)`` and emits its part of the global
term dictionary:

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

One kernel, :func:`compact_groups`, does both for every term range of a
full merge and for the tier merges of ``mergepolicy.execute_merge``.

Output, per range: one ``merged/terms-<name>.parquet`` (the ``.tim/.tip``
analogue — small enough to hold in RAM per shard actor) and its own
``merged/terms-<name>.bin``, empty when the range compacted nothing; an
empty range writes neither. One commit swaps them for the files the merge
read in the manifest's ``terms_files``; readers open nothing else.

Skew handling (north rule): a stopword-like term's metadata rows are salted
(``salt = pid // salt_group_size``) so no compaction ever collects all of a
hot term's rows into one group; big groups pass through per-row as
independent chunks, so no task ever materializes a hot term's full posting
list either way — posting-list *splitting* is inherited from the build
(chunks = per-partition lists, first delta absolute, so readers decode
chunks independently and in parallel; chunks partition a term's doc set,
readers order them by ``start_doc`` and restore global doc order at read
time).

File names are deterministic functions of the commit generation and the
range (its ordinal and lower bound), and the split terms are a function of
the source files, so task retries are idempotent (write tmp + rename), two
merges of one index write the same files, and no earlier commit used their
names. Restart semantics: the segment BUILD is the checkpointed long phase;
the merge is one bounded metadata pass whose files one commit publishes — a
crash mid-merge leaves only unnamed files and restarts the merge only,
never the build.
"""

from __future__ import annotations

import bisect
import hashlib
import mmap
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codec.postings import (_exclusive_cumsum, _intra, block_bounds,
                              decode_postings_batch, decode_values_batch,
                              encode_postings_lists, encode_values_lists)
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


def _write_bin(path: str, sections: list[np.ndarray]) -> None:
    with open(path + ".tmp", "wb") as f:
        for sec in sections:
            f.write(sec.tobytes())
    os.replace(path + ".tmp", path)


def compact_groups(rows: pa.Table, index_dir: str, stem: str) -> pa.Table:
    """The merge kernel: full-merge term ranges and tier merges all
    compact through it (``SegmentMerger.merge``).

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
    build lays them out. Every row is decoded, and every group encoded,
    in one vectorized call per stream, whatever its length. The encoder
    is the build's (``encode_postings_lists``), so a group's bytes are
    what ``encode_postings`` writes for its list: code 0 only where it
    is strictly smaller (see ``codec.postings``). Returns the output
    rows in the input's terms schema."""
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
    cols = [("offset", "length")] + [(f"{n}_offset", f"{n}_length")
                                     for n, _ in streams]
    gathered = _gather(paths, files.indices.to_numpy(), [
        (sub[o].to_numpy(), sub[ln].to_numpy()) for o, ln in cols])

    # decode every row in one batch call (a compacted group holds at most
    # REENCODE_MAX_DOCS postings, so its rows span at most 32 blocks)
    docs, tfs = decode_postings_batch(*gathered[0], dfs)

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
        vals = decode_values_batch(vflat, vat, k * ttfs)
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


def _range_count(rows: int, ncpu: int) -> int:
    """Term ranges for a merge of ``rows`` segment term rows: one per
    ~100k rows (metadata rows are ~100 B each), at most 2 per CPU, so a
    small index on a small host merges in one task. Each split costs at
    most one more row group read per source file (a group it cuts is
    read by both ranges)."""
    return max(1, min(rows // 100_000 + 1, 2 * ncpu))


def _term_ranges(paths: list[str], k: int) -> list[tuple]:
    """At most ``k`` term ranges over the sorted terms files ``paths``,
    as ``(lo, rows)``: the range's lower bound (``""`` for the first)
    and, per file, the ``(start, stop)`` rows whose terms fall in it.
    The split terms are the k-quantiles of a sample holding each file's
    terms at its own k-quantile rows; duplicates collapse. One range
    reads no term column."""
    if k <= 1:
        return [("", [(0, pq.ParquetFile(p).metadata.num_rows)
                      for p in paths])]
    cols = [pq.read_table(p, columns=["term"]).column("term")
            for p in paths]
    sample = sorted(t for col in cols if len(col) for t in col.take(
        [len(col) * j // k for j in range(1, k)]).to_pylist())
    splits = sorted({sample[len(sample) * j // k] for j in range(1, k)}) \
        if sample else []
    # Arrow and Python order strings alike (UTF-8 bytes = code points)
    cuts = [[0] + [bisect.bisect_left(col, s, key=lambda v: v.as_py())
                   for s in splits] + [len(col)] for col in cols]
    return [(lo, [(c[i], c[i + 1]) for c in cuts])
            for i, lo in enumerate([""] + splits)]


def _read_rows(path: str, start: int, stop: int) -> pa.Table:
    """Rows ``[start, stop)`` of terms file ``path``, decoding only the
    row groups that hold them (the build writes segment terms files in
    ``build.TERMS_ROW_GROUP``-row groups)."""
    pf = pq.ParquetFile(path)
    ends = np.cumsum([pf.metadata.row_group(g).num_rows
                      for g in range(pf.metadata.num_row_groups)])
    g0, g1 = np.searchsorted(ends, [start, stop - 1], "right")
    base = int(ends[g0 - 1]) if g0 else 0
    return pf.read_row_groups(range(g0, g1 + 1)).slice(start - base,
                                                      stop - start)


def _salt(rows: pa.Table, bases: np.ndarray, pids: np.ndarray, cut: int,
          gsize: int) -> pa.Table:
    """``rows`` plus their ``salt``: a row salts itself when its own
    partition's df meets the necessary condition for the term to be
    globally hot (df_row >= ``cut`` = threshold / nparts; if every row is
    below that cut, sum(df) < threshold), with ``pid // gsize``. A row's
    partition is the one whose doc range (``bases``, ascending, with
    their ``pids``) holds its start_doc. No global pre-pass: rows of one
    term may disagree (some salt 0, some pid // G), which is safe
    because readers restore doc order after concatenating chunks —
    chunks always partition the term's doc set."""
    pid = pids[np.searchsorted(bases, rows["start_doc"].to_numpy(),
                               "right") - 1]
    salt = np.where(rows["df"].to_numpy() >= cut, pid // gsize, 0)
    return rows.append_column("salt", pa.array(salt.astype(np.int32)))


def _merge_range(batch: pa.Table, *, index_dir: str, files: list[str],
                 ranges: list[tuple], gen: int, salting: tuple) -> dict:
    """Term range ``batch["i"]``'s merge task: read its rows from every
    source terms file, salt them, sort them by ``(term, salt,
    start_doc)`` and compact them into one terms file (none for an
    empty range). The file's name is a function of the commit
    generation and the range, so a retried task writes the same file."""
    i = batch["i"][0].as_py()
    lo, bounds = ranges[i]
    parts = [_read_rows(os.path.join(index_dir, f), a, b)
             for f, (a, b) in zip(files, bounds) if b > a]
    if not parts:
        return {"terms_file": np.empty(0, object)}
    rows = _salt(pa.concat_tables(parts), *salting)
    rows = rows.take(pc.sort_indices(rows, [
        ("term", "ascending"), ("salt", "ascending"),
        ("start_doc", "ascending")]))
    return {"terms_file": np.array([compact_to_file(
        rows, index_dir, _merged_stem(f"{gen}:{i}:{lo}"))], object)}


def merge_index(
    index_dir: str,
    *,
    hot_df_threshold: int = 100_000,
    salt_group_size: int = 64,
) -> IndexManifest:
    """Merge the live partitions' own terms files into ``index_dir/merged``.

    The term space is split into :func:`_range_count` ranges (one per
    ~100k segment term rows, at most 2 per CPU) at split terms sampled
    from the sorted source files, each range knowing its row span in
    every file (:func:`_term_ranges`; nothing is sampled for one range).
    Each range is one Ray Data task (:func:`_merge_range`) that reads
    only the row groups holding its rows and compacts them through
    :func:`compact_groups`; a ``(term, salt)`` group lies in exactly one
    range. A compacted chunk holds exactly the bytes the build writes
    for the same list (one width rule: code 0 only where it is strictly
    smaller), and file names and contents depend only on the index and
    the range count, so two merges of one index write the same files.
    One commit then swaps the new terms files for the whole list; the
    files only the old list named stay until that commit unlinks them.

    Ray need not be running: Ray Data starts it for the range tasks, and
    the range count reads the local CPU count until then."""
    import functools

    import ray
    import ray.data as rd

    man = IndexManifest.load(index_dir)
    gen = man.generation + 1
    os.makedirs(os.path.join(index_dir, "merged"), exist_ok=True)
    files = man.segment_terms()
    ncpu = (ray.cluster_resources().get("CPU", 1) if ray.is_initialized()
            else os.cpu_count() or 1)
    ranges = _term_ranges(
        [os.path.join(index_dir, f) for f in files],
        _range_count(sum(r.get("num_terms", 0) for r in man.partitions),
                     int(ncpu)))

    bases = np.asarray([p["doc_base"] for p in man.partitions], np.int64)
    pids = np.asarray([p["partition_id"] for p in man.partitions], np.int64)
    by_base = np.argsort(bases, kind="stable")
    salting = (bases[by_base], pids[by_base],
               max(1, hot_df_threshold // max(1, man.num_partitions)),
               salt_group_size)
    task = functools.partial(_merge_range, index_dir=index_dir,
                             files=files, ranges=ranges, gen=gen,
                             salting=salting)
    out = rd.from_items([{"i": i} for i in range(len(ranges))]) \
        .map_batches(task, batch_format="pyarrow", batch_size=1)
    man.terms_files = sorted(r["terms_file"] for r in out.take_all())
    man.commit()
    return man
