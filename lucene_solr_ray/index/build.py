"""Distributed SPIMI index build: Parquet corpus -> per-partition segments.

The Ray Data restatement of the reference write path (SURVEY.md §3.1/§3.3):

- one partition == one ``DocumentsWriterPerThread`` — a shared-nothing
  in-memory segment build (``index/DocumentsWriterPerThread.java``,
  ``DefaultIndexingChain.java:277-665``), here a pure function of
  (input slice, partition id);
- flush == the task writing a sorted postings table + norms table
  (``FreqProxTermsWriter.java:91`` term sort; ``Lucene50PostingsWriter``
  block encode) as Parquet, atomically (tmp + rename);
- commit == the driver writing ``manifest.json`` last, after all partitions
  checkpointed (the ``segments_N`` two-phase publish,
  ``IndexWriter.java:2662-2667``). :class:`IndexManifest` is the commit
  point of every writer, not only the build: see :meth:`IndexManifest.commit`.

Partition planning is driver-side and metadata-only: parquet row counts give
a prefix sum of deterministic ``doc_base`` values, so
``doc_id = doc_base + row_index`` is stable under retries and any degree of
parallelism (docIDs-ephemeral-per-segment + docBase semantics,
``SegmentInfos``/``TopScoreDocCollector.java:59,77``).

Resume: a partition whose ``_checkpoints/part-N.json`` exists is skipped
(lineage: input fragment, row range, token/posting counts, sha256 rollup) —
the ``UpdateLog`` replay analogue (SURVEY.md §4).

Scale notes (100 TB): the descriptor Dataset is tiny (one row per ~10^2 MB
input slice); all heavy work streams inside ``map_batches`` tasks reading
only the needed columns; nothing materializes the corpus on the driver.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analysis import get_analyzer
from ..analysis.fast import factorize_tokens
from ..codec import encode_norm
from ..codec.postings import (
    _exclusive_cumsum,
    _intra,
    block_bounds,
    encode_postings_lists,
    encode_values_lists,
)

MANIFEST = "manifest.json"

# bump when the on-disk segment/merged layout changes (cache-key component
# for /tmp index caches; a manifest records it and load() refuses any
# other, so readers of one version never see another's files). 5: merge
# outputs own every byte their rows point at, a merge commit drops the
# partitions' terms and .bin files, and source files under the index are
# stored index-relative. 6: a df == 1 list stores no postings bytes, every
# list's count is a vInt, and norms files hold no per-doc digests. 7: a
# terms file has a value stream's columns only when the index stores that
# stream (no all-zero pos_offset / pos_length in a non-positional index).
FORMAT_VERSION = 7

# the directories whose files a commit names; a commit unlinks every file
# under them that it does not name
_FILE_DIRS = ("segments", "norms", "docvalues", "_appends", "merged",
              "deletes", "docvalues_updates")


# The one terms-file schema: a segment's terms file and a merge's output
# alike hold one row per (term, chunk). Within a term, chunks partition the
# doc set, so ``start_doc`` orders them. ``payload_file`` is the
# index-relative ``.bin`` holding the row's postings at (offset, length)
# and, after them, the value streams the index stores, each at its
# ``<stream>_offset`` / ``<stream>_length`` columns (:func:`terms_schema`).
# A df == 1 row has no postings bytes (length 0): its doc is ``start_doc``
# and its tf ``ttf``. The .bin lays each stream out in row order, so every
# ``*_offset`` column ascends. On disk (:func:`write_encoded`): ``term``
# front-coded (DELTA_BYTE_ARRAY), ``start_doc``, the ``*_offset`` columns
# and the ``block_last`` elements as bit-packed deltas
# (DELTA_BINARY_PACKED), every other column dictionary-encoded, pages
# zstd-compressed.
TERMS_SCHEMA = pa.schema({
    "term": pa.string(),
    "df": pa.int32(),
    "ttf": pa.int64(),
    "start_doc": pa.int64(),
    "payload_file": pa.string(),
    "offset": pa.int64(),
    "length": pa.int64(),
    "block_last": pa.list_(pa.int64()),
    "block_max_tf": pa.list_(pa.int32()),
    "block_max_norm": pa.list_(pa.uint8()),
})

# The value streams a terms row may carry after its postings, in their
# .bin order, each with the number of values one occurrence holds:
# positions (a delta), char offsets (a (start_delta, length) pair) and
# payloads (a float32 bit pattern) — Lucene's .pos and the two halves of
# .pay. The one rule for which of them exist: an index stores the ones
# :func:`stored_streams` gives for its ``store_*`` flags
# (``IndexManifest.streams``), and the build, the merge, the readers and
# CheckIndex each loop over those.
STREAMS = (("pos", 1), ("off", 2), ("pay", 1))


def stored_streams(store_positions: bool, store_offsets: bool,
                   store_payloads: bool) -> tuple[tuple[str, int], ...]:
    """The :data:`STREAMS` an index with these ``store_*`` flags stores
    (Lucene's ``IndexOptions`` plus the payload flag); raises
    ``ValueError`` for a combination no index stores."""
    if store_offsets and not store_positions:
        raise ValueError("store_offsets requires store_positions=True "
                         "(offsets ride the positional .pay layout)")
    if store_payloads and not store_positions:
        raise ValueError("store_payloads requires store_positions=True "
                         "(payloads ride the positional .pay layout)")
    if store_payloads and store_offsets:
        raise ValueError("store_payloads and store_offsets are exclusive "
                         "(one .pay sidecar stream per index)")
    on = {"pos": store_positions, "off": store_offsets,
          "pay": store_payloads}
    return tuple((name, k) for name, k in STREAMS if on[name])


def terms_schema(streams) -> pa.Schema:
    """:data:`TERMS_SCHEMA` plus the ``<stream>_offset`` /
    ``<stream>_length`` columns of each of ``streams`` (``(name, k)``
    pairs of :data:`STREAMS`, e.g. ``IndexManifest.streams``)."""
    schema = TERMS_SCHEMA
    for name, _ in streams:
        schema = schema.append(pa.field(f"{name}_offset", pa.int64())) \
            .append(pa.field(f"{name}_length", pa.int64()))
    return schema


# rows per row group of a segment terms file: a range merge decodes only
# the row groups that hold its rows. In the fixed encoding below, the
# benchmark corpus's 22.5k-row segment terms files are 2.3-2.5% larger
# in 8192-row groups than in one or in 16384-row groups, but a merge of
# the 16k-doc corpus split into 2 or 4 ranges reads them 8-13% faster
TERMS_ROW_GROUP = 8192

# The fixed on-disk encoding of terms and norms files, the Parquet form of
# Lucene's ``.tim`` (``BlockTreeTermsWriter`` front-codes terms and writes
# file pointers as deltas) and ``.nvd`` (``Lucene50NormsConsumer`` picks a
# delta or a table encoding): the sorted terms front-coded, the ascending
# columns (doc ids, pointers into the row-ordered .bin) as bit-packed
# deltas, every other column dictionary-encoded, and zstd pages. Readers
# take any Parquet encoding, so files written with Arrow's defaults read
# alike.
_ENCODING = {"term": "DELTA_BYTE_ARRAY", **dict.fromkeys(
    ["start_doc", "offset", "block_last", "doc_id"]
    + [f"{name}_offset" for name, _ in STREAMS], "DELTA_BINARY_PACKED")}


def write_encoded(tbl: pa.Table, path: str,
                  row_group_size: int | None = None) -> None:
    """Write terms or norms table ``tbl`` to ``path`` atomically (tmp +
    rename) in the fixed encoding above (``row_group_size``: rows per
    row group, else Arrow's default of 1M)."""
    def leaf(name):
        typ = tbl.schema.field(name).type
        return name + ".list.element" if pa.types.is_list(typ) else name

    names = tbl.schema.names
    enc = {leaf(c): _ENCODING[c] for c in names if c in _ENCODING}
    pq.write_table(
        tbl, path + ".tmp", row_group_size=row_group_size,
        compression="zstd", column_encoding=enc,
        use_dictionary=[leaf(c) for c in names if leaf(c) not in enc])
    os.replace(path + ".tmp", path)


# A file of at most this many rows reads faster on the calling thread
# than through Arrow's thread pool, whose hand-off costs more than the
# decode of the small files a publish adds (an append, its terms and
# norms, a delete file); a larger one, like a merged terms file, decodes
# faster on the pool.
POOL_READ_ROWS = 16384


def read_columns(path: str, columns: list[str],
                 row_groups: list[int] | None = None) -> pa.Table:
    """``columns`` of the Parquet file ``path`` (``row_groups``: only
    those), in that order: one ``ParquetFile`` read, without a dataset's
    discovery and scan set-up, on Arrow's thread pool only for a file of
    more than ``POOL_READ_ROWS`` rows."""
    with pq.ParquetFile(path) as pf:
        pool = pf.metadata.num_rows > POOL_READ_ROWS
        if row_groups is None:
            return pf.read(columns=columns, use_threads=pool)
        return pf.read_row_groups(row_groups, columns=columns,
                                  use_threads=pool)


def own_bin(terms_file: str) -> str:
    """The ``.bin`` that terms file ``terms_file`` writes its streams to
    (same path, ``.bin`` for ``.parquet``): every row of a listed terms
    file points into it."""
    return terms_file[:-len(".parquet")] + ".bin"


def _part_files(part: dict) -> list[str]:
    """Index-relative paths of a partition's segment, ``.bin``, norms and
    (when built) docvalues files."""
    return [part["segment"], own_bin(part["segment"]), part["norms"]] + (
        [part["docvalues"]] if "docvalues" in part else [])


@dataclass
class IndexManifest:
    """The commit point (Lucene's ``segments_N``): the only list of what
    the index contains. A reader opens exactly the files it names — the
    partitions' norms and docvalues files, the listed terms files with
    their ``.bin`` files, and the delete and docvalues-update files
    listed below — and never lists a directory. Every writer writes its
    new files under names no earlier commit used, then publishes with
    :meth:`commit`.

    ``terms_files`` is the term dictionary: the index-relative terms
    files a reader folds into one sorted dictionary. A build lists its
    partitions' own terms files, an NRT append adds its segment's, and a
    merge swaps the files it compacted for its output (Lucene's
    ``SegmentInfos`` list). Every row of a listed file points into that
    file's own ``.bin`` (:func:`own_bin`), so a partition's terms file
    and ``.bin`` are named only while the list holds them: the commit
    that swaps them for a merge's output unlinks them, as Lucene's
    ``IndexFileDeleter`` removes a merged segment's sources. Its norms,
    docvalues and source file stay.

    A partition's source ``file`` is absolute in memory; on disk one
    under the index directory (an append's) is index-relative, so a
    copy of the directory is a whole index of its own."""

    index_dir: str
    field: str
    analyzer: str
    max_doc: int
    sum_total_term_freq: int
    num_partitions: int
    partitions: list = field(default_factory=list)
    merged_shards: int = 0
    # postings format marker, always True: byte-aligned FOR is the only
    # encoding, and load() refuses an index built with the removed
    # bit-packed one
    byte_aligned: bool = True
    store_positions: bool = False
    store_offsets: bool = False
    store_payloads: bool = False
    docvalues_fields: list = field(default_factory=list)
    sort_by: str | None = None
    # +1 per commit; a reader compares it to see whether the index changed
    generation: int = 0
    # index-relative terms files of the term dictionary, each with its own
    # .bin (own_bin)
    terms_files: list = field(default_factory=list)
    # deletes/ file names, oldest first
    deletes: list = field(default_factory=list)
    # field -> docvalues_updates/<field>/ file names, oldest first
    docvalues_updates: dict = field(default_factory=dict)
    # partition ids quarantined by exorcise_index: readers skip them
    exorcised: list = field(default_factory=list)
    # the on-disk layout this commit was written in (FORMAT_VERSION)
    format: int = FORMAT_VERSION

    @property
    def avgdl(self) -> float:
        # BM25Similarity.avgFieldLength (BM25Similarity.java:79-87):
        # (float) (sumTotalTermFreq / (double) maxDoc)
        if self.sum_total_term_freq <= 0:
            return 1.0
        return float(
            np.float32(self.sum_total_term_freq / float(self.max_doc))
        )

    @property
    def streams(self) -> tuple[tuple[str, int], ...]:
        """The value streams this index stores (:func:`stored_streams`),
        as ``(name, values per occurrence)`` in .bin order."""
        return stored_streams(self.store_positions, self.store_offsets,
                              self.store_payloads)

    @property
    def merged(self) -> bool:
        """Whether a merge has compacted the dictionary: the list is no
        longer exactly the live partitions' own terms files."""
        return set(self.terms_files) != set(self.segment_terms())

    def segment_terms(self) -> list[str]:
        """The names of the live partitions' own terms files, the list a
        build commits; quarantined partitions (exorcise_index) are left
        out. A merge commit unlinks the files once it stops listing
        them."""
        drop = set(self.exorcised)
        return [p["segment"] for p in self.partitions
                if p["partition_id"] not in drop]

    def _source(self, path: str) -> str | None:
        """``path``, a partition's source file, relative to the index
        directory when it lies under it (an append's own file), else
        None."""
        rel = os.path.relpath(os.path.abspath(path),
                              os.path.abspath(self.index_dir))
        return None if rel.startswith(os.pardir) else rel

    def files(self) -> set[str]:
        """Index-relative paths of every file this commit names: each
        partition's norms, docvalues and (an append's) source file, and
        each listed terms file with its own ``.bin``. A partition's own
        terms file and ``.bin`` are named only while they are listed."""
        out = set()
        for p in self.partitions:
            out.add(p["norms"])
            if "docvalues" in p:
                out.add(p["docvalues"])
            src = self._source(p["file"])
            if src is not None:
                out.add(src)
        for f in self.terms_files:
            out.update((f, own_bin(f)))
        out.update(os.path.join("deletes", f) for f in self.deletes)
        for fld, names in self.docvalues_updates.items():
            out.update(os.path.join("docvalues_updates", fld, f)
                       for f in names)
        return out

    def write(self) -> None:
        """Publish this manifest as it is: one ``os.replace``. Source
        files under the index directory are written index-relative."""
        d = dict(self.__dict__, partitions=[
            p if self._source(p["file"]) is None
            else dict(p, file=self._source(p["file"]))
            for p in self.partitions])
        tmp = os.path.join(self.index_dir, MANIFEST + ".tmp")
        with open(tmp, "w") as f:
            json.dump(d, f, indent=1)
        os.replace(tmp, os.path.join(self.index_dir, MANIFEST))

    def sweep(self) -> int:
        """Unlink every file under the index's file directories that this
        commit does not name — files an older commit dropped and a
        crashed writer's leftovers (Lucene's ``IndexFileDeleter``).
        Returns the number unlinked."""
        named = self.files()
        n = 0
        for top in _FILE_DIRS:
            for d, _, names in os.walk(os.path.join(self.index_dir, top)):
                for f in names:
                    path = os.path.join(d, f)
                    if os.path.relpath(path, self.index_dir) not in named:
                        os.unlink(path)
                        n += 1
        return n

    def commit(self) -> None:
        """Publish this manifest as the next generation, then unlink the
        files it no longer names. The writer has already written every
        file it names, under names no earlier commit used (the
        generation number or the input fingerprint is part of each new
        name), so a reader sees the whole change or none of it, and a
        crash before the ``os.replace`` leaves only unnamed files."""
        self.generation += 1
        self.write()
        self.sweep()

    @classmethod
    def load(cls, index_dir: str, text: str | None = None
             ) -> "IndexManifest":
        """The current commit of ``index_dir`` (``text``: that commit's
        ``manifest.json`` as already read). Refuses, with a "rebuild the
        index" ``ValueError``, a manifest another on-disk format wrote."""
        if text is None:
            with open(os.path.join(index_dir, MANIFEST)) as f:
                text = f.read()
        d = json.loads(text)
        if not d.get("byte_aligned", True):
            raise ValueError(
                f"{index_dir} was built with the bit-packed postings "
                "encoding, which was removed; rebuild the index")
        if "generation" not in d:
            raise ValueError(
                f"{index_dir} has no commit generation: it was written by "
                "a version whose readers listed directories; rebuild the "
                "index")
        if "merged_files" in d:
            raise ValueError(
                f"{index_dir} keeps its merged view apart from its "
                "segments (format 3): rebuild the index")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"{index_dir} has manifest fields {sorted(unknown)} this "
                "version does not know: rebuild the index")
        if d.get("format") != FORMAT_VERSION:
            # format 4 merges left rows pointing into partition .bin files
            # that a format 5 commit would unlink
            raise ValueError(
                f"{index_dir} was written in on-disk format "
                f"{d.get('format', 4)}, not {FORMAT_VERSION}: rebuild the "
                "index")
        d["index_dir"] = index_dir
        d["partitions"] = [
            dict(p, file=os.path.join(index_dir, p["file"]))
            if not os.path.isabs(p["file"]) else p
            for p in d.get("partitions", [])]
        return cls(**d)

    def resolve_analyzer(self):
        """The index's Analyzer object. Custom (unregistered) analyzers
        are persisted by build_index as ``analyzer.pkl`` under the index
        dir (manifest name ``@pickled``) so keyed updates / NRT appends /
        query parsing reuse the exact build-time analysis chain instead
        of KeyError-ing on an unresolvable name."""
        if self.analyzer == "@pickled":
            import pickle

            with open(os.path.join(self.index_dir, "analyzer.pkl"),
                      "rb") as f:
                return pickle.load(f)
        return get_analyzer(self.analyzer)


def plan_partitions(source: str | list[str], rows_per_partition: int) -> list[dict]:
    """Metadata-only partition plan: (file, row-group range) slices with a
    deterministic doc_base prefix sum. Sorted file order => stable plan."""
    if isinstance(source, str):
        if os.path.isdir(source):
            files = sorted(
                os.path.join(source, f)
                for f in os.listdir(source)
                if f.endswith(".parquet")
            )
        else:
            files = [source]
    else:
        files = sorted(source)
    parts = []
    for fp in files:
        md = pq.ParquetFile(fp).metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        cur_rgs: list[int] = []
        cur_rows = 0
        for i, rows in enumerate(rg_rows):
            cur_rgs.append(i)
            cur_rows += rows
            if cur_rows >= rows_per_partition:
                parts.append({"file": fp, "row_groups": cur_rgs, "rows": cur_rows})
                cur_rgs, cur_rows = [], 0
        if cur_rgs:
            parts.append({"file": fp, "row_groups": cur_rgs, "rows": cur_rows})
    base = 0
    for pid, p in enumerate(parts):
        p["partition_id"] = pid
        p["doc_base"] = base
        base += p["rows"]
    return parts


def _invert(texts: list[str], analyzer_name: str, doc_base_local: int,
            streams=()):
    """Tokenize a sub-batch and aggregate (term, doc, tf) triples.

    Returns (vocab_tokens, tid, doc, tf, doc_len, values): ``values`` maps
    the name of each of ``streams`` (``(name, k)`` pairs of
    :data:`STREAMS`) to ONE uint32 array of every (term, doc) pair's
    values, pairs concatenated in triple order, pair i occupying
    ``k * tf[i]`` values:

    - ``"pos"``: the delta-encoded in-doc token positions (first position
      raw per pair; gaps from removed stop / over-long tokens preserved —
      ``FreqProxTermsWriterPerField`` prox accumulation, delta shape of
      ``.pos``);
    - ``"off"``: interleaved (start_delta, length) char-offset pairs
      (start raw at each pair's first occurrence — the ``.pay`` offset
      stream, ``Lucene50PostingsFormat.java:100-107``);
    - ``"pay"``: raw float32 bit patterns, no delta (payloads are opaque
      values, the ``.pay`` payload half).
    """
    names = {name for name, _ in streams}
    # analyzer_name may be a registered name OR a pickled Analyzer
    # instance (custom chains, e.g. synonyms, travel to workers by value)
    ana = (analyzer_name if not isinstance(analyzer_name, str)
           else get_analyzer(analyzer_name))
    if "pay" in names:
        if not hasattr(ana, "tokens_batch_payloads"):
            raise ValueError(
                f"analyzer {type(ana).__name__} does not emit payloads "
                "(tokens_batch_payloads) — use e.g. delimited_payload")
        tokens, doc_idx, pos, pay = ana.tokens_batch_payloads(texts)
        vocab, tid = factorize_tokens(tokens)
    else:
        # the token stream: terms arrive as codes into a duplicate-free
        # batch vocabulary, with char spans when the analyzer has them
        vocab, tid, doc_idx, pos, c_start, c_end = \
            ana.tokens_batch_factorized(texts)
        if "off" in names and c_start is None:
            raise ValueError(
                f"analyzer {type(ana).__name__} does not expose char "
                "spans in its token stream — offsets need them")
    # overlap-aware field length (DefaultIndexingChain.java:621-645:
    # length = positions, not tokens): posIncr-0 tokens — WDF sub-parts,
    # synonyms — share a position and count ONCE toward norms
    if tid.size:
        first = np.ones(tid.size, bool)
        first[1:] = (doc_idx[1:] != doc_idx[:-1]) | (pos[1:] != pos[:-1])
        doc_len = np.bincount(
            doc_idx[first], minlength=len(texts)).astype(np.int32)
    else:
        e = np.empty(0, np.int64)
        return [], e, e, e, np.zeros(len(texts), np.int32), \
            dict.fromkeys(names, np.empty(0, np.uint32))
    key = tid.astype(np.int64) * len(texts) + doc_idx
    values = {}
    if names:
        # stable single-key sort: the stream is doc-grouped with
        # ascending in-doc positions, so stability alone keeps each
        # (term, doc) pair's occurrences position-ordered — no need to
        # lexsort a second key
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        # key_s is sorted: group bounds from one diff pass instead of
        # np.unique's internal re-sort
        first = np.empty(key_s.size, bool)
        first[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, key_s.size))
        uniq = key_s[starts]

        def deltas(v):
            """``v`` in pair order as deltas, raw at each pair's first
            occurrence."""
            v = np.asarray(v, np.int64)[order]
            d = np.empty(v.size, np.int64)
            d[0] = v[0]
            d[1:] = v[1:] - v[:-1]
            d[starts] = v[starts]
            return d.astype(np.uint32)

        if "pos" in names:
            values["pos"] = deltas(pos)
        if "off" in names:
            off = np.empty(2 * key.size, np.uint32)
            off[0::2] = deltas(c_start)
            off[1::2] = (np.asarray(c_end, np.int64)
                         - np.asarray(c_start, np.int64))[order]
            values["off"] = off
        if "pay" in names:
            values["pay"] = np.asarray(pay, np.float32)[order].view(np.uint32)
    else:
        uniq, counts = np.unique(key, return_counts=True)
    u_tid = uniq // len(texts)
    u_doc = uniq % len(texts) + doc_base_local
    return list(vocab), u_tid, u_doc, counts.astype(np.int64), doc_len, \
        values


def build_segment(part: dict, out_dir: str, *, text_field: str,
                  analyzer_name: str, byte_aligned: bool = True,
                  store_positions: bool = False,
                  store_offsets: bool = False,
                  store_payloads: bool = False,
                  docvalues_fields: list[str] | None = None,
                  tokenize_batch_rows: int = 2000) -> dict:
    """Build one partition's segment (one 'DWPT flush'). Pure function of
    (part descriptor, config); writes atomically; returns manifest row.

    ``byte_aligned`` is accepted for callers that pass the manifest's
    format marker; byte-aligned FOR is the only postings encoding."""
    if not byte_aligned:
        raise ValueError("the bit-packed postings encoding was removed; "
                         "byte_aligned must be True")
    streams = stored_streams(store_positions, store_offsets, store_payloads)
    pid = part["partition_id"]
    doc_base = part["doc_base"]
    ckpt_path = os.path.join(out_dir, "_checkpoints", f"part-{pid:05d}.json")
    # input fingerprint: a checkpoint is valid only for the SAME input
    # slice at the same doc_base — a changed/grown corpus file invalidates
    # exactly the partitions it touches (incremental rebuild semantics)
    fingerprint = [
        os.path.getsize(part["file"]), part["rows"], doc_base,
        list(part["row_groups"]),
        # mtime (ns) catches same-size in-place content rewrites that the
        # size/row-count signals miss (ADVICE r1)
        os.stat(part["file"]).st_mtime_ns,
        # codec config: a checkpoint built with different index options
        # or an older on-disk format must not validate (same input,
        # different segment format)
        [bool(store_positions), bool(store_offsets), bool(store_payloads),
         sorted(docvalues_fields or []), FORMAT_VERSION],
    ]
    stem = f"part-{pid:05d}"
    if os.path.exists(ckpt_path):
        with open(ckpt_path) as f:
            row = json.load(f)
        # a checkpoint from before sidecars were named in the row does
        # not name its docvalues file: rebuild it rather than lose it
        if row.get("input_fingerprint") == fingerprint and (
                not docvalues_fields or "docvalues" in row) and all(
                os.path.exists(os.path.join(out_dir, f))
                for f in _part_files(row)):
            return dict(row, file=os.path.abspath(part["file"]))
        # a rebuild of this partition (its input changed, or a merge
        # dropped its terms file and .bin): its files take a name no
        # earlier build of other input used, as a commit may still name
        # the old ones; a rebuild of the same input writes the same bytes
        stem += "-" + hashlib.sha1(
            json.dumps(fingerprint).encode()).hexdigest()[:8]
    seg_path = os.path.join(out_dir, "segments", f"{stem}.parquet")
    bin_path = os.path.join(out_dir, "segments", f"{stem}.bin")
    norm_path = os.path.join(out_dir, "norms", f"{stem}.parquet")
    dv_path = None

    pf = pq.ParquetFile(part["file"])
    if docvalues_fields:
        # DocValues sidecar (the Lucene .dvd column store,
        # Lucene50DocValuesFormat): copy the chosen columns next to the
        # segment so field sorts / function queries / facets read the
        # index's own column store instead of going back to (possibly
        # cold) source storage
        dv_path = os.path.join(out_dir, "docvalues", f"{stem}.parquet")
        os.makedirs(os.path.dirname(dv_path), exist_ok=True)
        dv_tbl = pa.concat_tables([
            pf.read_row_group(rg, columns=list(docvalues_fields))
            for rg in part["row_groups"]
        ])
        pq.write_table(dv_tbl, dv_path + ".tmp")
        os.replace(dv_path + ".tmp", dv_path)
    # each sub-batch's vocabulary, end to end; a sub-batch's codes are
    # offset by the vocabulary sizes before it
    vocabs: list[str] = []
    tids, docs, tfs = [], [], []
    # each stream's flat values, one array per sub-batch
    val_parts: dict = {name: [] for name, _ in streams}
    lens_parts, sha_parts = [], []
    rows_done = 0
    for rg in part["row_groups"]:
        tbl = pf.read_row_group(rg, columns=[text_field])
        col = tbl.column(text_field)
        texts = col.to_pylist()
        texts = [t if t is not None else "" for t in texts]
        # per-row content sha256, rolled up into the partition's lineage
        # (checkpoint and manifest); check_merged recomputes it from the
        # source rows
        sha_parts.extend(hashlib.sha256(t.encode("utf-8")).digest() for t in texts)
        for lo in range(0, len(texts), tokenize_batch_rows):
            sub = texts[lo : lo + tokenize_batch_rows]
            toks, s_tid, s_doc, s_tf, s_len, s_vals = _invert(
                sub, analyzer_name, rows_done + lo, streams)
            lens_parts.append(s_len)
            if not toks:
                continue
            tids.append(s_tid + len(vocabs))
            vocabs.extend(toks)
            docs.append(s_doc)
            tfs.append(s_tf)
            for name, parts in val_parts.items():
                parts.append(s_vals[name])
        rows_done += len(texts)

    doc_lens = (
        np.concatenate(lens_parts) if lens_parts else np.empty(0, np.int32)
    )
    norm_bytes = encode_norm(doc_lens)

    # SPIMI flush: one dictionary encode folds several sub-batch
    # vocabularies into the partition's terms (one sub-batch's is already
    # duplicate-free), one sort orders them bytewise
    # (FreqProxTermsWriter.java:91 — Arrow compares UTF-8 bytes, which is
    # Python str order) and gives each code its term's rank
    terms, codes = pa.array(vocabs, pa.string()), None
    if len(tids) > 1:
        enc = pc.dictionary_encode(terms)
        terms, codes = enc.dictionary, enc.indices.to_numpy()
    by_term = pc.sort_indices(terms)
    terms_sorted = terms.take(by_term)
    rank = np.empty(len(by_term), np.int64)
    rank[by_term.to_numpy()] = np.arange(len(by_term))
    # no tokens: these empties make the emit below write an empty segment
    starts = ends = a_doc = a_tf = np.empty(0, np.int64)
    a_vals = dict.fromkeys(val_parts, np.empty(0, np.uint32))
    if tids:
        a_tid = np.concatenate(tids)
        a_tid = rank[a_tid if codes is None else codes[a_tid]]
        a_doc = np.concatenate(docs)
        a_tf_pre = np.concatenate(tfs)
        # (term, doc) order for encode from a stable sort on the term
        # alone: within a sub-batch, _invert emits each term's pairs in
        # ascending doc order, and sub-batches arrive in doc order
        srt = np.argsort(a_tid, kind="stable")
        a_tid, a_doc, a_tf = a_tid[srt], a_doc[srt], a_tf_pre[srt]
        bounds = np.flatnonzero(np.diff(a_tid)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [a_tid.size]))
        # permute each stream's flat per-pair values into the sorted pair
        # order with ONE vectorized gather (the r2 build kept a Python
        # list of per-pair arrays here — the positional path's hot loop)
        for name, k in streams:
            per = k * a_tf_pre
            idx = np.repeat(_exclusive_cumsum(per)[srt], per[srt]) \
                + _intra(per[srt])
            a_vals[name] = np.concatenate(val_parts[name])[idx]

    a_doc_g = a_doc + doc_base
    os.makedirs(os.path.dirname(seg_path), exist_ok=True)
    os.makedirs(os.path.dirname(norm_path), exist_ok=True)
    os.makedirs(os.path.dirname(ckpt_path), exist_ok=True)

    # payload sidecar: raw posting bytes, then each stored stream's,
    # concatenated into a flat mmap-able .bin, already in final read
    # format: a merge copies a row's slices byte for byte into its own
    # .bin, decoding only the small groups it compacts (Lucene's
    # SegmentMerger copies a segment's postings into the merged segment,
    # whose commit then drops the sources). Layout, in STREAMS order:
    #     [postings_0 .. postings_n][pos_0 .. pos_n][off_0 .. | pay_0 ..]
    # Emit through the codec's list encoders, one vectorized call per
    # stream; a df == 1 term's postings take no bytes (its row holds them).
    n_terms = starts.size
    df_arr = (ends - starts).astype(np.int64)
    ttf_arr = np.add.reduceat(a_tf, starts).astype(np.int64)
    start_doc_arr = a_doc_g[starts]
    buf, lens = encode_postings_lists(a_doc_g, a_tf, df_arr)
    sections = [buf]
    refs = {"offset": _exclusive_cumsum(lens), "length": lens}
    end = int(lens.sum())
    for name, k in streams:
        sec, s_lens = encode_values_lists(a_vals[name], k * ttf_arr)
        refs[f"{name}_offset"] = end + _exclusive_cumsum(s_lens)
        refs[f"{name}_length"] = s_lens
        sections.append(sec)
        end += int(s_lens.sum())
    with open(bin_path + ".tmp", "wb") as f:
        for s_ in sections:
            f.write(s_.tobytes())
    os.replace(bin_path + ".tmp", bin_path)

    # block-metadata list columns assembled flat (ListArray offsets)
    nblocks, first, last = block_bounds(df_arr)
    bl_off = np.zeros(n_terms + 1, np.int64)
    np.cumsum(nblocks, out=bl_off[1:])
    bl_last_v = a_doc_g[last]
    bl_maxtf_v = np.maximum.reduceat(a_tf, first)
    bl_maxnorm_v = np.maximum.reduceat(norm_bytes[a_doc], first)

    def _list_arr(vals, typ):
        return pa.ListArray.from_arrays(
            pa.array(bl_off, pa.int32()), pa.array(vals, typ))

    num_postings = int(df_arr.sum())
    cols = {
        "term": terms_sorted,
        "df": pa.array(df_arr.astype(np.int32)),
        "ttf": pa.array(ttf_arr),
        "start_doc": pa.array(start_doc_arr.astype(np.int64)),
        "payload_file": pa.repeat(os.path.relpath(bin_path, out_dir),
                                  n_terms),
        **{col: pa.array(v) for col, v in refs.items()},
        "block_last": _list_arr(bl_last_v, pa.int64()),
        "block_max_tf": _list_arr(bl_maxtf_v, pa.int32()),
        "block_max_norm": _list_arr(bl_maxnorm_v, pa.uint8()),
    }
    schema = terms_schema(streams)
    seg_tbl = pa.table(cols).select(schema.names).cast(schema)
    write_encoded(seg_tbl, seg_path, TERMS_ROW_GROUP)

    doc_ids = np.arange(doc_base, doc_base + part["rows"], dtype=np.int64)
    norm_tbl = pa.table({
        "doc_id": pa.array(doc_ids),
        "length": pa.array(doc_lens.astype(np.int32)),
        "norm": pa.array(norm_bytes),
    })
    write_encoded(norm_tbl, norm_path)

    sha_roll = hashlib.sha256(b"".join(sha_parts)).hexdigest()
    row = {
        "partition_id": pid,
        "input_fingerprint": fingerprint,
        "file": os.path.abspath(part["file"]),
        "row_groups": part["row_groups"],
        "doc_base": doc_base,
        "rows": part["rows"],
        "num_terms": len(terms_sorted),
        "num_postings": num_postings,
        "sum_len": int(doc_lens.sum()),
        "sha256_rollup": sha_roll,
        "segment": os.path.relpath(seg_path, out_dir),
        "norms": os.path.relpath(norm_path, out_dir),
    }
    if dv_path is not None:
        row["docvalues"] = os.path.relpath(dv_path, out_dir)
    with open(ckpt_path + ".tmp", "w") as f:
        json.dump(row, f)
    os.replace(ckpt_path + ".tmp", ckpt_path)
    return row


def _segment_task(batch: dict, *, out_dir: str, text_field: str,
                  analyzer_name: str,
                  store_positions: bool = False,
                  store_offsets: bool = False,
                  store_payloads: bool = False,
                  docvalues_fields: list[str] | None = None) -> dict:
    """Stateless task stage: builds segments for a batch of partition
    descriptors. Worker-process state (compiled tokenizer tables, stop set)
    lives in the module-level analyzer registry — the Analyzer.ReuseStrategy
    analogue — so plain Ray tasks reuse it across partitions without the
    per-stage process spin-up an actor pool would pay."""
    rows = []
    n = len(batch["partition_id"])
    for i in range(n):
        part = {
            "partition_id": int(batch["partition_id"][i]),
            "file": str(batch["file"][i]),
            "row_groups": [int(x) for x in batch["row_groups"][i]],
            "rows": int(batch["rows"][i]),
            "doc_base": int(batch["doc_base"][i]),
        }
        row = build_segment(
            part, out_dir, text_field=text_field,
            analyzer_name=analyzer_name,
            store_positions=store_positions, store_offsets=store_offsets,
            store_payloads=store_payloads,
            docvalues_fields=docvalues_fields,
        )
        rows.append(row)
    return {"manifest_row": np.array([json.dumps(r) for r in rows], object)}


def build_index(
    source: str | list[str],
    out_dir: str,
    *,
    text_field: str = "content",
    analyzer: str = "standard",
    rows_per_partition: int = 20_000,
    store_positions: bool = False,
    store_offsets: bool = False,
    store_payloads: bool = False,
    docvalues_fields: list[str] | None = None,
    concurrency: int | None = None,
) -> IndexManifest:
    """Full distributed build: plan -> segment tasks -> manifest commit."""
    import functools

    import ray.data as rd

    stored_streams(store_positions, store_offsets, store_payloads)
    os.makedirs(out_dir, exist_ok=True)
    parts = plan_partitions(source, rows_per_partition)
    ds = rd.from_items(parts)
    fn = functools.partial(
        _segment_task, out_dir=out_dir, text_field=text_field,
        analyzer_name=analyzer,
        store_positions=store_positions, store_offsets=store_offsets,
        store_payloads=store_payloads, docvalues_fields=docvalues_fields,
    )
    kw = {"concurrency": concurrency} if concurrency else {}
    out = ds.map_batches(fn, batch_size=1, **kw)
    rows = [json.loads(r["manifest_row"]) for r in out.take_all()]
    rows.sort(key=lambda r: r["partition_id"])
    if not isinstance(analyzer, str):
        # persist the analyzer object: its name is typically not in the
        # registry, and append_segment / query parsing must reuse the
        # exact build-time chain (see IndexManifest.resolve_analyzer)
        import pickle

        with open(os.path.join(out_dir, "analyzer.pkl"), "wb") as f:
            pickle.dump(analyzer, f)
    # a (re)build commits a fresh view: segments are the source of truth,
    # so an earlier commit's merged terms files, deletes and docvalues
    # updates are dropped; the dictionary is the partitions' own terms
    # files until merge_index compacts them. A merge commit unlinks those
    # files, so a build over a merged index builds every partition again
    # (build_segment reuses only a checkpoint whose files all exist): it
    # costs a full build
    generation = 0
    if os.path.exists(os.path.join(out_dir, MANIFEST)):
        with open(os.path.join(out_dir, MANIFEST)) as f:
            generation = json.load(f).get("generation", 0)
    man = IndexManifest(
        index_dir=out_dir,
        field=text_field,
        analyzer=(analyzer if isinstance(analyzer, str) else "@pickled"),
        max_doc=sum(r["rows"] for r in rows),
        sum_total_term_freq=sum(r["sum_len"] for r in rows),
        num_partitions=len(rows),
        partitions=rows,
        terms_files=[r["segment"] for r in rows],
        store_positions=store_positions,
        store_offsets=store_offsets,
        store_payloads=store_payloads,
        docvalues_fields=sorted(docvalues_fields) if docvalues_fields
        else [],
        generation=generation,
    )
    man.commit()
    return man
