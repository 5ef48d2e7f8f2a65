"""Segment merge: a groupby-term exchange into a global index.

The Ray Data restatement of ``SegmentMerger.merge`` + the MapReduce tool's
tree merge (``SegmentMerger.java:83-127``,
``solr/contrib/map-reduce/.../TreeMergeOutputFormat.java:100-138``) — with
the economics Lucene has: a merged segment replaces its sources, so each
posting is stored once.

Input: the commit's listed terms files (``IndexManifest.terms_files``),
rows in the one terms schema (``build.TERMS_SCHEMA``) whose
``payload_file`` is the file's own ``.bin``: after a build, the
partitions' own terms files; on a re-merge, earlier merge outputs and NRT
appends. Every one of them is sorted by term, so the groupby-term
exchange needs no sort: like ``MultiTermsEnum`` walking sorted segment
dictionaries, the merge splits the term space into ranges at terms
sampled from the sorted files, and each range task reads just the row
groups holding its rows in every file, salts the rows, orders them by
``(term, salt, start_doc)`` and emits its part of the global term
dictionary:

- **passthrough** (single-source terms + any group whose total df exceeds
  ``REENCODE_MAX_DOCS``): the row's stream slices are copied byte for
  byte into the output's own ``.bin`` and its offsets re-based — no
  decode. This is the TieredMergePolicy "don't re-encode big segments"
  analogue.
- **compaction** (small groups fragmented across several segments — the
  Zipf tail, e.g. a df=3 term spread over 3 partitions): the merge task
  decodes just those payload slices, concatenates them in doc order,
  re-encodes them into one chunk and writes it to the output's own
  ``.bin``. Every stored stream (positions, char offsets, payloads) is
  compacted alongside the postings. This bounds per-term chunk counts as
  the partition count grows (10^7 partitions at 10^12 rows would
  otherwise give every rare term 10^7 14-byte chunks).

One kernel, :func:`compact_groups`, does both for every term range of a
full merge and for the tier merges of ``mergepolicy.execute_merge``.

Output, per range: one ``merged/terms-<name>.parquet`` (the ``.tim/.tip``
analogue — small enough to hold in RAM per shard actor), sorted by term
and written in the build's fixed encoding (``build.write_encoded``), and
its own ``merged/terms-<name>.bin`` holding every byte its rows point at,
laid out as the build lays out a segment: stream after stream, each in
row order, so each stream's offsets ascend by its lengths and the terms
file stores them as small deltas. An empty range writes neither. One
commit swaps them for the files the merge read in the manifest's
``terms_files``, and that commit unlinks the files it no longer names:
the partitions' terms files and ``.bin`` files (Lucene's
``IndexFileDeleter``). Readers open nothing else.

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
the merge is one bounded pass whose files one commit publishes — a crash
mid-merge leaves only unnamed files and restarts the merge only, never the
build.
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
from .build import IndexManifest, terms_schema, write_encoded

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
    the disk space of every index it ever merged); a bin none of whose
    rows has bytes to copy (it may be empty) is not opened."""
    out = [(np.empty(int(lens.sum()), np.uint8), _exclusive_cumsum(lens))
           for _, lens in spans]
    for f, path in enumerate(paths):
        m = file_idx == f
        if not any(lens[m].any() for _, lens in spans):
            continue
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


# slices are copied in runs of about this many bytes (a row longer than
# one run in one slice copy), so a copy holds index arrays of a few runs'
# size whatever the rows' total
_COPY_RUN = 1 << 20


def _copy_runs(out: np.ndarray, src: np.ndarray, offs: np.ndarray,
               lens: np.ndarray, dst: np.ndarray, rows: np.ndarray) -> None:
    """Copy each of ``rows``' byte slice ``[offs, offs + lens)`` of
    ``src`` to ``[dst, dst + lens)`` of ``out``, in runs of about
    ``_COPY_RUN`` bytes."""
    for r in rows[lens[rows] > _COPY_RUN]:
        out[dst[r]:dst[r] + lens[r]] = src[offs[r]:offs[r] + lens[r]]
    small = rows[lens[rows] <= _COPY_RUN]
    run = np.cumsum(lens[small]) // _COPY_RUN
    for part in np.split(small, np.flatnonzero(np.diff(run)) + 1):
        il = _intra(lens[part])
        out[np.repeat(dst[part], lens[part]) + il] = \
            src[np.repeat(offs[part], lens[part]) + il]


def _copy_rows(out: np.ndarray, paths: list[str], file_idx: np.ndarray,
               offs: np.ndarray, lens: np.ndarray, dst: np.ndarray) -> None:
    """Copy each row's byte slice ``[offs, offs + lens)`` of its bin
    (``paths[file_idx]``) to ``[dst, dst + lens)`` of ``out`` (a
    writable mapping of the output bin), one mapped source at a time and
    in runs (:func:`_copy_runs`): nothing is buffered in RAM, so a hot
    term's big rows cost no memory, only a copy."""
    for f, path in enumerate(paths):
        rows = np.flatnonzero((file_idx == f) & (lens > 0))
        if rows.size == 0:
            continue
        with open(path, "rb") as fh, mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            src = np.frombuffer(mm, np.uint8)
            try:
                _copy_runs(out, src, offs, lens, dst, rows)
            finally:
                del src  # drop the buffer export so the map can close


def _write_bin(path: str, size: int, copies: list, lists: list) -> None:
    """Write the bin ``path`` of ``size`` bytes: each ``(paths, file_idx,
    offs, lens, dst)`` of ``copies`` copied from the source bins
    (:func:`_copy_rows`), and each ``(buffer, lens, dst)`` of ``lists``
    (lists of ``lens`` bytes laid end to end in ``buffer``) scattered
    to its ``dst``."""
    with open(path + ".tmp", "w+b") as f:
        if size:
            f.truncate(size)
            with mmap.mmap(f.fileno(), size) as mm:
                out = np.frombuffer(mm, np.uint8)
                try:
                    for c in copies:
                        _copy_rows(out, *c)
                    for buf, lens, dst in lists:
                        _copy_runs(out, buf, _exclusive_cumsum(lens), lens,
                                   dst, np.flatnonzero(lens > 0))
                finally:
                    del out
    os.replace(path + ".tmp", path)


def last_docs(rows: pa.Table) -> np.ndarray:
    """Each row's last doc (the last entry of its ``block_last``)."""
    bl = rows["block_last"].combine_chunks()
    return bl.values.to_numpy()[bl.offsets.to_numpy()[1:] - 1]


def _in_ranges(docs: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Whether each doc lies in one of ``ranges`` (sorted, disjoint
    ``[lo, hi)`` rows of an ``(n, 2)`` array)."""
    i = np.searchsorted(ranges[:, 0], docs, "right") - 1
    return (i >= 0) & (docs < ranges[np.maximum(i, 0), 1])


def dropped_ranges(man: IndexManifest) -> np.ndarray:
    """The doc ranges a merge of commit ``man`` drops, as sorted ``[lo,
    hi)`` rows: the quarantined partitions' (``exorcise_index``), whose
    docs are deleted. A merge leaves out their postings, as Lucene's
    merge leaves out deleted docs, so the merged dictionary is again the
    live partitions' own."""
    drop = set(man.exorcised)
    return np.asarray(sorted(
        (p["doc_base"], p["doc_base"] + p["rows"]) for p in man.partitions
        if p["partition_id"] in drop), np.int64).reshape(-1, 2)


def _streams(rows: pa.Table) -> list[tuple[str, int]]:
    """The value streams ``rows`` store after their postings: positions
    when any row has them, offsets and payloads when the schema carries
    them."""
    names = rows.schema.names
    stored = {"pos": rows["pos_length"].to_numpy().any(),
              "off": "off_offset" in names, "pay": "pay_offset" in names}
    return [(n, k) for n, k in _STREAMS if stored[n]]


def _gather_rows(rows: pa.Table, index_dir: str, streams) -> list:
    """:func:`_gather` of every row's postings and ``streams`` slices, in
    row order, from the index-relative bins their ``payload_file``
    names."""
    files = rows["payload_file"].combine_chunks().dictionary_encode()
    paths = [os.path.join(index_dir, f)
             for f in files.dictionary.to_pylist()]
    cols = [("offset", "length")] + [(f"{n}_offset", f"{n}_length")
                                     for n, _ in streams]
    return _gather(paths, files.indices.to_numpy(), [
        (rows[o].to_numpy(), rows[ln].to_numpy()) for o, ln in cols])


def _decode(gathered: list, dfs: np.ndarray, ttfs: np.ndarray,
            start_doc: np.ndarray, streams) -> tuple:
    """Decode every row of :func:`_gather_rows`' buffers (``dfs`` /
    ``ttfs`` / ``start_doc``: theirs), each stream in one vectorized
    call: (docs, tfs, [values per stream]), concatenated in row order. A
    ``df == 1`` row stores no postings bytes: its doc and tf are its
    ``start_doc`` and ``ttf``."""
    (pbuf, pat), rest = gathered[0], gathered[1:]
    one = dfs == 1
    docs = np.empty(int(dfs.sum()), np.int64)
    tfs = np.empty(docs.size, np.int32)
    at = _exclusive_cumsum(dfs)
    docs[at[one]], tfs[at[one]] = start_doc[one], ttfs[one]
    multi = np.repeat(~one, dfs)
    docs[multi], tfs[multi] = decode_postings_batch(pbuf, pat[~one],
                                                    dfs[~one])
    return docs, tfs, [decode_values_batch(vbuf, vat, k * ttfs)
                       for (_, k), (vbuf, vat) in zip(streams, rest)]


def _encode(terms: pa.Array, docs: np.ndarray, tfs: np.ndarray,
            vals: list, streams, list_df: np.ndarray,
            norm: np.ndarray) -> tuple[dict, dict]:
    """Encode the posting lists laid end to end in ``docs``/``tfs`` (list
    i holds ``list_df[i]`` postings of term ``terms[i]``) and their
    ``streams`` values. The encoder is the build's
    (``encode_postings_lists``), so a list's bytes are what
    ``encode_postings`` writes for it: code 0 only where it is strictly
    smaller (see ``codec.postings``). ``norm`` is each list's block max
    norm byte, an upper bound used for all its blocks. Returns (each
    stream's lists laid end to end and their byte lengths, by offset
    column: ``offset`` for the postings, ``<stream>_offset`` for the
    others; the terms columns but ``payload_file`` and the offsets)."""
    bounds = _exclusive_cumsum(list_df)
    list_ttf = np.add.reduceat(tfs.astype(np.int64), bounds)
    enc = {"offset": encode_postings_lists(docs, tfs, list_df)}
    for (n, k), v in zip(streams, vals):
        enc[f"{n}_offset"] = encode_values_lists(v, k * list_ttf)
    nblk, first, last = block_bounds(list_df)
    boff = pa.array(np.r_[0, np.cumsum(nblk)], pa.int32())
    out = {
        "term": terms,
        "df": list_df.astype(np.int32),
        "ttf": list_ttf,
        "start_doc": docs[bounds],
        # an index without positions keeps empty position refs
        "pos_length": np.zeros(list_df.size, np.int64),
        "block_last": pa.ListArray.from_arrays(
            boff, pa.array(docs[last])),
        "block_max_tf": pa.ListArray.from_arrays(
            boff, pa.array(np.maximum.reduceat(tfs, first))),
        "block_max_norm": pa.ListArray.from_arrays(
            boff, pa.array(np.repeat(norm, nblk), pa.uint8())),
    }
    for col, (_, lens) in enc.items():
        out[col.replace("offset", "length")] = lens
    return enc, out


def _max_norm(rows: pa.Table, starts: np.ndarray) -> np.ndarray:
    """The largest ``block_max_norm`` over each run of ``rows`` that
    begins at ``starts`` (an upper bound; a df>0 row always has at least
    one block entry, so no run's values are empty)."""
    bmn = rows["block_max_norm"].combine_chunks()
    vstart = _exclusive_cumsum(pc.list_value_length(bmn).to_numpy())
    return np.maximum.reduceat(pc.list_flatten(bmn).to_numpy(),
                               vstart[starts])


def _increasing(docs: np.ndarray, list_df: np.ndarray) -> bool:
    """Whether every list's docs (lists of ``list_df`` docs laid end to
    end) strictly increase."""
    up = np.diff(docs) > 0
    up[_exclusive_cumsum(list_df)[1:] - 1] = True  # a list may start lower
    return bool(up.all())


def _doc_order(docs: np.ndarray, tfs: np.ndarray, vals: list, streams,
               list_df: np.ndarray) -> tuple:
    """Each list's postings (lists of ``list_df`` postings laid end to
    end) sorted by doc, each posting's run of ``streams`` values moved
    with it (``k * tf`` values for a stream of ``k`` values per
    occurrence)."""
    grp = np.repeat(np.arange(list_df.size), list_df)
    order = np.lexsort((docs, grp))
    out = []
    for (_, k), v in zip(streams, vals):
        per = k * tfs.astype(np.int64)
        out.append(v[np.repeat(_exclusive_cumsum(per)[order], per[order])
                     + _intra(per[order])])
    return docs[order], tfs[order], out


def compact_groups(rows: pa.Table, index_dir: str, stem: str,
                   drop: np.ndarray | None = None) -> pa.Table:
    """The merge kernel: full-merge term ranges and tier merges all
    compact through it (``SegmentMerger.merge``). Its output owns every
    byte its rows point at: each row's ``payload_file`` is
    ``index_dir/<stem>.bin`` (written by every call, possibly empty), so
    the commit that lists the output can drop the files it read.

    ``rows`` are terms rows (``build.terms_schema``) plus a ``salt``
    column; rows sharing ``(term, salt)`` form a group. Single-row groups
    and groups with more than ``REENCODE_MAX_DOCS`` postings pass
    through: their stream slices are copied byte for byte from the
    source bins into the output bin (:func:`_copy_rows`, never buffered
    in RAM) and their offsets re-based. Every other group is compacted
    into ONE chunk: its rows' stream slices are gathered, decoded in
    ``start_doc`` order — a term's chunks partition its docs, so that is
    doc order unless a tier merge of non-adjacent segments left chunks
    whose doc ranges interleave, which are then sorted by doc — and
    re-encoded (:func:`_encode`), each stream in one vectorized call
    whatever the group count. Every stored stream is carried: positions,
    char offsets (two values per occurrence) and payloads. The bin is laid
    out as the build lays out a segment: stream after stream (postings,
    positions, then offsets or payloads), each in output row order, a
    passed-through row's slices copied to their place and a compacted
    list's scattered to its place from the re-encoded buffer. Each
    stream's offsets are then its base plus the exclusive cumulative sum
    of its lengths, deltas the terms file stores small
    (``build.write_encoded``).

    ``drop`` (:func:`dropped_ranges`): doc ranges whose postings are left
    out. A row wholly inside one is dropped undecoded; a row that
    overlaps one is decoded with its group (or alone) and keeps only its
    other docs; a list left with one doc is written as a singleton (no
    postings bytes, like every ``df == 1`` list), one left with none is
    dropped.

    Returns the output rows in the input's terms schema, in the input's
    order (a group at its first row): a sorted input gives a sorted
    terms file, which a later merge reads by term range."""
    names = rows.schema.names
    schema = terms_schema("off_offset" in names, "pay_offset" in names)
    bin_rel = stem + ".bin"
    drop = np.empty((0, 2), np.int64) if drop is None else drop
    clip = np.zeros(rows.num_rows, bool)
    if len(drop) and rows.num_rows:
        first, last = rows["start_doc"].to_numpy(), last_docs(rows)
        gone = np.zeros(rows.num_rows, bool)
        for lo, hi in drop:
            clip |= (first < hi) & (last >= lo)
            gone |= (first >= lo) & (last < hi)
        rows = rows.filter(pa.array(~gone))
        clip = clip[~gone]
    gid = _group_ids(rows)
    cp = ((np.bincount(gid) > 1)
          & (np.bincount(gid, weights=rows["df"].to_numpy())
             <= REENCODE_MAX_DOCS))[gid]
    # decoded lists: a compacted group, or a clipped row of its own
    lid = np.where(cp, gid, -1)
    solo = clip & ~cp
    lid[solo] = gid.max(initial=-1) + 1 + np.arange(int(solo.sum()))
    keep = np.flatnonzero(lid < 0)
    sel = np.flatnonzero(lid >= 0)
    sel = sel[np.lexsort((rows["start_doc"].to_numpy()[sel], lid[sel]))]
    streams = _streams(rows)

    # passthrough rows keep their columns but the bin and the stream
    # offsets; their slices are copied from the source bins below
    src = rows.take(pa.array(keep))
    parts = [src.select(schema.names).set_column(
        schema.get_field_index("payload_file"), "payload_file",
        pa.repeat(bin_rel, keep.size)).cast(schema)]
    at, enc = keep, {}
    if sel.size:
        sub = rows.take(pa.array(sel))
        lids = lid[sel]
        l_starts = np.flatnonzero(np.r_[True, lids[1:] != lids[:-1]])
        dfs = sub["df"].to_numpy().astype(np.int64)
        docs, tfs, vals = _decode(_gather_rows(sub, index_dir, streams),
                                  dfs, sub["ttf"].to_numpy().astype(np.int64),
                                  sub["start_doc"].to_numpy(), streams)
        l_df = np.add.reduceat(dfs, l_starts)
        norm = _max_norm(sub, l_starts)
        if clip.any():
            inside = ~_in_ranges(docs, drop)
            lst = np.repeat(np.arange(l_starts.size), l_df)
            vals = [v[np.repeat(inside, k * tfs)]
                    for (_, k), v in zip(streams, vals)]
            docs, tfs = docs[inside], tfs[inside]
            l_df = np.bincount(lst[inside], minlength=l_starts.size)
            live = l_df > 0
            l_starts, l_df, norm = l_starts[live], l_df[live], norm[live]
        if not _increasing(docs, l_df):
            # a tier merge of non-adjacent segments leaves chunks whose
            # doc ranges interleave: put each list's postings in doc order
            docs, tfs, vals = _doc_order(docs, tfs, vals, streams, l_df)
            if not _increasing(docs, l_df):
                raise ValueError(
                    "merge: a compacted group holds one doc twice")
        enc, out = _encode(sub["term"].take(pa.array(l_starts)), docs, tfs,
                           vals, streams, l_df, norm)
        out["payload_file"] = pa.repeat(bin_rel, l_starts.size)
        for col in schema.names:  # the offsets, set with the layout below
            out.setdefault(col, np.zeros(l_starts.size, np.int64))
        parts.append(pa.table(out).select(schema.names).cast(schema))
        # a compacted list goes where its first row was
        at = np.concatenate((keep, sel[l_starts]))
    tbl = pa.concat_tables(parts)
    order = np.argsort(at, kind="stable")  # the input's order

    # the bin, laid out as the build lays out a segment: stream after
    # stream, each stream's slices in output row order, so each offset
    # column is its stream's base plus the exclusive cumulative sum of
    # its lengths
    files = src["payload_file"].combine_chunks().dictionary_encode()
    paths = [os.path.join(index_dir, f)
             for f in files.dictionary.to_pylist()]
    fidx = files.indices.to_numpy()
    copies, lists, end = [], [], 0
    cols = ["offset"] + [f"{n}_offset" for n, _ in streams]
    if "pos_offset" not in cols:
        cols.append("pos_offset")  # no positions: empty refs
    for col in cols:
        lens = tbl[col.replace("offset", "length")].to_numpy()
        dst = np.empty(lens.size, np.int64)
        dst[order] = end + _exclusive_cumsum(lens[order])
        copies.append((paths, fidx, src[col].to_numpy(), lens[:keep.size],
                       dst[:keep.size]))
        if col in enc:
            lists.append((enc[col][0], lens[keep.size:], dst[keep.size:]))
        tbl = tbl.set_column(schema.get_field_index(col), col,
                             pa.array(dst, pa.int64()))
        end += int(lens.sum())
    os.makedirs(os.path.dirname(os.path.join(index_dir, bin_rel)),
                exist_ok=True)
    _write_bin(os.path.join(index_dir, bin_rel), end, copies, lists)
    return tbl.take(pa.array(order))


def compact_to_file(rows: pa.Table, index_dir: str, stem: str,
                    drop: np.ndarray | None = None) -> str:
    """Compact ``rows`` (:func:`compact_groups`, leaving out ``drop``)
    into the terms file ``<stem>.parquet`` and its own ``<stem>.bin``,
    both index-relative; returns the terms file's index-relative path.
    The terms file is written in the build's fixed encoding
    (``build.write_encoded``) and keeps Arrow's default row groups (1M
    rows): in that encoding the benchmark corpus's merge output is 0.4%
    smaller in one row group than in ``build.TERMS_ROW_GROUP``-row groups,
    at the cost that a later merge split into ranges reads each output of
    under 1M rows whole in each range."""
    tbl = compact_groups(rows, index_dir, stem, drop)
    rel = stem + ".parquet"
    write_encoded(tbl, os.path.join(index_dir, rel))
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
                 ranges: list[tuple], gen: int, salting: tuple,
                 drop: np.ndarray) -> dict:
    """Term range ``batch["i"]``'s merge task: read its rows from every
    source terms file, salt them, sort them by ``(term, salt,
    start_doc)`` and compact them into one terms file (none for an
    empty range), leaving out the ``drop`` doc ranges. The file's name
    is a function of the commit generation and the range, so a retried
    task writes the same file."""
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
        rows, index_dir, _merged_stem(f"{gen}:{i}:{lo}"), drop)],
        object)}


def merge_index(
    index_dir: str,
    *,
    hot_df_threshold: int = 100_000,
    salt_group_size: int = 64,
) -> IndexManifest:
    """Merge the commit's listed terms files into ``index_dir/merged``.

    The term space is split into :func:`_range_count` ranges (one per
    ~100k segment term rows, at most 2 per CPU) at split terms sampled
    from the sorted source files, each range knowing its row span in
    every file (:func:`_term_ranges`; nothing is sampled for one range).
    Each range is one Ray Data task (:func:`_merge_range`) that reads
    only the row groups holding its rows and compacts them through
    :func:`compact_groups`; a ``(term, salt)`` group lies in exactly one
    range. The postings of quarantined partitions (:func:`dropped_ranges`)
    are left out. A compacted chunk holds exactly the bytes the build writes
    for the same list (one width rule: code 0 only where it is strictly
    smaller), and file names and contents depend only on the index and
    the range count, so two merges of one index write the same files.
    One commit then swaps the new terms files for the whole list; the
    files only the old list named (the partitions' terms files and
    ``.bin`` files, or an earlier merge's outputs) stay until that commit
    unlinks them.

    Ray need not be running: Ray Data starts it for the range tasks, and
    the range count reads the local CPU count until then."""
    import functools

    import ray
    import ray.data as rd

    man = IndexManifest.load(index_dir)
    gen = man.generation + 1
    files = list(man.terms_files)
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
                             salting=salting, drop=dropped_ranges(man))
    out = rd.from_items([{"i": i} for i in range(len(ranges))]) \
        .map_batches(task, batch_format="pyarrow", batch_size=1)
    man.terms_files = sorted(r["terms_file"] for r in out.take_all())
    man.commit()
    return man
