"""Index readers: in-memory term dictionary + mmap'd posting payloads.

The DirectoryReader analogue (``index/DirectoryReader.java:62-202``):

- :class:`NormsReader` — dense uint8 norm bytes + int32 lengths per doc_id
  (the ``.nvd`` analogue); loaded once per searcher/actor.
- :class:`MergedReader` — the term dictionary of one commit: it folds the
  terms files the commit lists (``IndexManifest.terms_files`` — the
  ``.tim/.tip`` analogue: the partitions' own terms files after a build,
  merge output after a merge, plus one file per NRT append) into one
  sorted array held in RAM and binary-searched, and memory-maps the
  ``.bin`` files their rows point at (the ``.doc``/``.pos``/``.pay``
  analogue, decoded lazily per term with an LRU cache, the
  ``LRUQueryCache`` analogue). A doc shard opens the same reader
  restricted to its doc range.

The term dictionary is one sorted array of term strings per reader. Its
RAM cost is ~60 B/term + the term bytes; a doc shard holds only the rows
with docs in its range, but reads every listed terms file to find them.

Every reader opens exactly the files one commit (``IndexManifest``)
names, each with one light ``ParquetFile`` read (``build.read_columns``),
and maps every payload file when it opens, so a later commit that
unlinks them cannot break it. A reopen reuses the reader it replaces when
every file that one loaded is still named: files are never rewritten
under a name a commit used. So a publish that adds one terms file and
one norms file costs the reopen those two reads and a fold of the new
rows into the sorted dictionary, placed by integer keys
(:func:`_fold_keys`); the live-docs mask is carried forward the same
way (``index/deletes.py``).
"""

from __future__ import annotations

import mmap
import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import decode_postings
from ..codec.postings import decode_values, encode_singleton
from ..index.build import STREAMS, IndexManifest, read_columns, terms_schema
from ..index.merge import last_docs


def mmap_file(path: str) -> memoryview:
    """Read-only mmap of a payload .bin (empty files -> empty view)."""
    if os.path.getsize(path) == 0:
        return memoryview(b"")
    with open(path, "rb") as f:
        return memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))


def _commit(src: "str | IndexManifest") -> IndexManifest:
    """``src`` itself, or the current commit of index dir ``src``."""
    return src if isinstance(src, IndexManifest) else IndexManifest.load(src)


def _unloaded(prev, files: list[str]) -> list[str] | None:
    """The ``files`` that ``prev`` did not load, if every file it loaded
    is still among them (a commit never reuses a name, so ``prev``'s data
    for them is still right); else None, and nothing of ``prev`` may be
    reused."""
    old = getattr(prev, "_files", None)
    if old is None or not set(old) <= set(files):
        return None
    old = set(old)
    return [f for f in files if f not in old]


class NormsReader:
    """Norm bytes and lengths by doc id, from the norms files of commit
    ``src``'s partitions (``partition_ids``: only those); a quarantined
    partition's (exorcise_index) are not read, as they may be
    unreadable, and its docs, all deleted, read 0. ``prev`` (the
    reader this one replaces, or None) is reused when every norms file it
    loaded is still named: its arrays are copied and only the other
    partitions' norms files are read."""

    def __init__(self, src: "str | IndexManifest",
                 partition_ids: list[int] | None = None, prev=None):
        man = _commit(src)
        self.norm = np.zeros(man.max_doc, np.uint8)
        self.length = np.zeros(man.max_doc, np.int32)
        want = None if partition_ids is None else set(partition_ids)
        drop = set(man.exorcised)
        self._files = [
            os.path.join(man.index_dir, p["norms"]) for p in man.partitions
            if (want is None or p["partition_id"] in want)
            and p["partition_id"] not in drop
        ]
        files = _unloaded(prev, self._files)
        if files is None:
            files = self._files
        else:
            self.norm[:prev.norm.size] = prev.norm
            self.length[:prev.length.size] = prev.length
        for f in files:
            t = read_columns(f, ["doc_id", "length", "norm"])
            ids = t["doc_id"].to_numpy()
            self.norm[ids] = t["norm"].to_numpy()
            self.length[ids] = t["length"].to_numpy()


class _LRU(OrderedDict):
    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def get(self, k, default=None):
        v = super().get(k, default)
        if k in self:  # refresh recency on hit (true LRU, not FIFO)
            self.move_to_end(k)
        return v

    def put(self, k, v):
        self[k] = v
        self.move_to_end(k)
        if len(self) > self.cap:
            self.popitem(last=False)


@dataclass
class Chunk:
    """One posting-list chunk (a term may span several — list splitting)."""

    payload: memoryview
    df: int
    ttf: int
    start_doc: int
    block_last: np.ndarray
    block_max_tf: np.ndarray
    block_max_norm: np.ndarray


# _TOP[n]: the top n bytes of a uint64
_TOP = np.array([(1 << 64) - (1 << (64 - 8 * n)) if n else 0
                 for n in range(8)], np.uint64)


def _fold_keys(col) -> np.ndarray:
    """One uint64 per string of ``col`` (Arrow strings): its first 7
    UTF-8 bytes, zero-padded, big-endian, then its byte length capped at
    8 in the low byte. Keys order as the strings do (``a < b`` gives
    ``key(a) <= key(b)``), and two strings of under 8 bytes with equal
    keys are equal, so only longer strings with equal keys need a
    string compare."""
    col = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    n = len(col)
    off = np.frombuffer(col.buffers()[1], np.int32, n + 1, 4 * col.offset)
    data = col.buffers()[2]
    # 8 zero bytes past the end, so every string has an 8-byte window
    buf = np.zeros(off[-1] + 8, np.uint8)
    if data is not None:
        buf[:off[-1]] = np.frombuffer(data, np.uint8, off[-1])
    # the big-endian uint64 at every byte offset: one unaligned view
    win = np.ndarray((buf.size - 7,), ">u8", buf, 0, (1,))
    lens = np.diff(off)
    return (win[off[:-1]].astype(np.uint64) & _TOP[np.minimum(lens, 7)]) \
        | np.minimum(lens, 8).astype(np.uint64)


def _fold_at(prev_terms: np.ndarray, prev_keys: np.ndarray,
             terms: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(prev_terms, terms, "right")`` from the fold keys
    (:func:`_fold_keys`) of the sorted ``prev_terms`` and of ``terms``:
    a binary search on integers, then, only for terms of 8+ bytes whose
    key equals some of ``prev_terms``' keys, a vectorized bisection of
    that tie range comparing the strings."""
    lo = np.searchsorted(prev_keys, keys, "left")
    at = np.searchsorted(prev_keys, keys, "right")
    tie = np.flatnonzero(((keys & 0xFF) == 8) & (at > lo))
    lo, hi, t = lo[tie], at[tie], terms[tie]
    while True:
        j = np.flatnonzero(lo < hi)
        if not j.size:
            break
        mid = (lo[j] + hi[j]) // 2
        le = prev_terms[mid] <= t[j]
        lo[j] = np.where(le, mid + 1, lo[j])
        hi[j] = np.where(le, hi[j], mid)
    at[tie] = lo
    return at


def _read_terms(files: list[str], schema):
    """One table of ``files``' term rows in ``schema`` (empty when there
    are none)."""
    if not files:
        return schema.empty_table()
    return pa.concat_tables([read_columns(f, schema.names).cast(schema)
                             for f in files])


class MergedReader:
    """The term dictionary of commit ``src``: the terms files it lists,
    folded into ``self.terms``, one sorted object array of term strings,
    one entry per term-dict row (a term split into several chunks
    repeats), bisected with ``np.searchsorted``; rows of one term order
    by ``start_doc`` (a term's chunks partition its docs). ``prev`` (the
    reader this one replaces, or None) is reused when every file it
    loaded is still named and every new row starts above its rows (an
    NRT append's docs follow every earlier doc): only the newly named
    files are read and folded into its rows. Else every file is folded
    from empty — a full open. Either way each sorted row holds what a
    fresh open's does.

    Row payloads stay in the mmap'd ``.bin`` files their ``payload_file``
    (index-relative) names: the postings and each stream the index
    stores (``IndexManifest.streams``) keep one (offsets, lengths) pair
    per row.

    ``doc_range`` (``(lo, hi)``, a doc shard's slice of the doc-id
    space): the reader holds only the rows with a doc in ``[lo, hi)``,
    as they are, undecoded; a partition's own terms file outside the
    range is not read. A row that straddles the range (a merge's
    compacted chunk, at most ``merge.REENCODE_MAX_DOCS`` postings in a
    full merge) still decodes to its docs outside it and counts them in
    its df: the shard's searcher treats those docs as deleted, and its
    statistics come from the commit (``distributed._global_stats``)."""

    def __init__(self, src: "str | IndexManifest",
                 prev: "MergedReader | None" = None,
                 doc_range: tuple[int, int] | None = None,
                 cache_size: int = 4096):
        self._cache = _LRU(cache_size)
        self._bloom = None  # optional FuzzySet (codec.bloom sidecar)
        man = _commit(src)
        root = man.index_dir
        schema = terms_schema(man.streams)
        names = man.terms_files
        if doc_range is not None:
            lo, hi = doc_range
            outside = {p["segment"] for p in man.partitions
                       if not lo <= p["doc_base"] < hi}
            names = [f for f in names if f not in outside]
        self._files = files = [os.path.join(root, f) for f in names]
        new = _unloaded(prev, files)
        if new is None:
            prev, new = None, files
        tbl = _read_terms(new, schema)
        if prev is not None and tbl.num_rows and prev.terms.size and (
                pc.min(tbl["start_doc"]).as_py() <= prev.start_doc.max()):
            prev, tbl = None, _read_terms(files, schema)
        if doc_range is not None:
            # a shard's reader is no reopen's base: its rows are not all
            # the files' rows
            self._files = None
            first, last = tbl["start_doc"].to_numpy(), last_docs(tbl)
            tbl = tbl.filter(pa.array((first < hi) & (last >= lo)))
        # each row's .bin file and, for its postings ("doc") and each
        # stored stream, its (offsets, lengths); with prev the rows number
        # on after prev's rows and the files extend its files
        fdict = tbl["payload_file"].combine_chunks().dictionary_encode()
        file_paths = [os.path.join(root, f)
                      for f in fdict.dictionary.to_pylist()]
        self._file_paths = [] if prev is None else list(prev._file_paths)
        fi = {p: i for i, p in enumerate(self._file_paths)}
        for p in file_paths:
            if p not in fi:
                fi[p] = len(self._file_paths)
                self._file_paths.append(p)
        remap = np.asarray([fi[p] for p in file_paths], np.int64)
        self._file_idx = remap[np.asarray(fdict.indices.to_numpy(),
                                          np.int64)]
        self._refs = {
            name: (np.asarray(tbl[pre + "offset"].to_numpy(), np.int64),
                   np.asarray(tbl[pre + "length"].to_numpy(), np.int64))
            for name, pre in [("doc", "")] + [
                (name, name + "_") for name, _ in man.streams]}
        self._mmaps = [] if prev is None else list(prev._mmaps)
        if prev is not None:
            self._file_idx = np.concatenate((prev._file_idx, self._file_idx))
            self._refs = {
                name: tuple(np.concatenate((p, n))
                            for p, n in zip(prev._refs[name], ref))
                for name, ref in self._refs.items()
            }
        # mapped now, not at first use: a mapping outlives the unlink of
        # its file by a later commit
        self._mmaps += [mmap_file(p)
                        for p in self._file_paths[len(self._mmaps):]]
        self._finish_init(tbl, prev)

    def _stream(self, name: str, row: int):
        """One row's bytes of stream ``name``: "doc" postings, or one of
        the streams the index stores ("pos" positions, "off" char
        offsets, "pay" payloads)."""
        ref = self._refs[name]
        orig = int(self._row_order[row])
        off = int(ref[0][orig])
        return self._mmaps[int(self._file_idx[orig])][
            off : off + int(ref[1][orig])
        ]

    @property
    def has_positions(self) -> bool:
        return "pos" in self._refs

    @property
    def has_offsets(self) -> bool:
        return "off" in self._refs

    @property
    def has_payloads(self) -> bool:
        return "pay" in self._refs

    def _payload(self, row: int) -> memoryview:
        """Row ``row``'s postings bytes, the one way to them: a ``df ==
        1`` row stores none (its doc is ``start_doc``, its tf ``ttf``),
        so they are synthesized as the codec writes that list."""
        if self.df[row] == 1:
            return memoryview(encode_singleton(self.start_doc[row],
                                               self.ttf[row]))
        return self._stream("doc", row)

    def _row_postings(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s (doc_ids, tfs); a ``df == 1`` row's straight from
        ``start_doc`` / ``ttf``, with no decode."""
        if self.df[row] == 1:
            return (self.start_doc[row:row + 1].copy(),
                    self.ttf[row:row + 1].astype(np.int32))
        return decode_postings(self._stream("doc", row))

    def postings_with_stream(self, term: str, name: str):
        """(doc_ids asc, tfs, values) over every row of ``term``:
        ``values`` is the concatenated stream ``name`` (one the index
        stores, see ``build.STREAMS``), its per-posting runs gathered
        into doc order."""
        per_tf = dict(STREAMS)[name]
        rows = self._term_rows(term)
        if len(rows) == 0:
            e = np.empty(0, np.int64)
            return e, e.astype(np.int32), np.empty(0, np.uint32)
        docs_l, tfs_l, val_l = [], [], []
        for r in rows:
            d, f = self._row_postings(r)
            docs_l.append(d)
            tfs_l.append(f)
            val_l.append(decode_values(self._stream(name, r)))
        docs = np.concatenate(docs_l)
        tfs = np.concatenate(tfs_l)
        vals = np.concatenate(val_l)
        if len(rows) > 1:
            order = np.argsort(docs, kind="stable")
            if not np.array_equal(order, np.arange(docs.size)):
                cum = np.concatenate(([0], np.cumsum(per_tf * tfs)))
                vals = np.concatenate(
                    [vals[cum[i]:cum[i + 1]] for i in order.tolist()])
                docs, tfs = docs[order], tfs[order]
        return docs, tfs, vals

    def term_payloads(self, term: str):
        """(doc_ids asc, tfs, payloads:float32) — one payload value per
        occurrence (tf per posting), decoded from the .pay payload
        stream; requires store_payloads=True at build
        (DelimitedPayloadTokenFilter -> PayloadScoreQuery surface)."""
        if not self.has_payloads:
            raise ValueError(
                "index has no payloads (build with store_payloads=True)")
        docs, tfs, pay = self.postings_with_stream(term, "pay")
        return docs, tfs, pay.astype(np.uint32).view(np.float32)

    def term_offsets(self, term: str):
        """(doc_ids asc, tfs, off_flat) — off_flat is the interleaved
        (start_delta, length) char-offset stream, 2*tf values per
        posting; requires store_offsets=True at build (the .pay offset
        half of Lucene50PostingsFormat)."""
        if not self.has_offsets:
            raise ValueError(
                "index has no offsets (build with store_offsets=True)")
        return self.postings_with_stream(term, "off")

    def _finish_init(self, tbl, prev=None):
        """Sort the terms table ``tbl``'s rows by (term, start_doc) and
        fold them into ``prev``'s sorted rows (None: no rows), none of
        whose start docs may exceed any of ``tbl``'s: each row is
        inserted at ``searchsorted(prev.terms, term, "right")``, which
        is where a sort of all rows would put it, found on integer fold
        keys (:func:`_fold_keys`). ``tbl``'s rows number on after
        ``prev``'s. The block-max list columns are kept as (offsets,
        values) numpy pairs — no per-row Python list materialization
        (5+ s at 10^6-row term dicts)."""
        # Arrow's stable sort compares UTF-8 bytes, which is code point
        # order: the order np.searchsorted sees on the str array
        order = pc.sort_indices(tbl, sort_keys=[
            ("term", "ascending"), ("start_doc", "ascending")]).to_numpy()
        terms = np.asarray(tbl["term"].to_numpy(zero_copy_only=False),
                           dtype=object)
        base = 0 if prev is None else prev.terms.size
        new = {
            "terms": terms[order],
            "df": np.asarray(tbl["df"].to_numpy(), np.int64)[order],
            "ttf": np.asarray(tbl["ttf"].to_numpy(), np.int64)[order],
            "start_doc": np.asarray(tbl["start_doc"].to_numpy(),
                                    np.int64)[order],
            # maps sorted pos -> original row
            "_row_order": order.astype(np.int64) + base,
        }
        if prev is None:
            # a full open builds no keys: the first fold into this
            # reader builds them from its term column
            self._term_col, self._keys = tbl["term"], None
        else:
            new["_keys"] = _fold_keys(tbl["term"])[order]
            at = _fold_at(prev.terms, prev.fold_keys(), new["terms"],
                          new["_keys"])
            new = {name: np.insert(getattr(prev, name), at, vals)
                   for name, vals in new.items()}
        self.__dict__.update(new)
        self._blk = {}
        for name, col in (("last", "block_last"), ("maxtf", "block_max_tf"),
                          ("maxnorm", "block_max_norm")):
            arr = tbl[col].combine_chunks()
            off = arr.offsets.to_numpy()
            vals = arr.values.to_numpy()[off[0]:off[-1]]
            off = off - off[0]
            if prev is not None:
                poff, pvals = prev._blk[name]
                off = np.concatenate((poff[:-1], off + poff[-1]))
                vals = np.concatenate((pvals, vals))
            self._blk[name] = (off, vals)

    def fold_keys(self) -> np.ndarray:
        """The :func:`_fold_keys` of ``self.terms``, built at the first
        fold into a fully opened reader."""
        if self._keys is None:
            self._keys = _fold_keys(self._term_col)[self._row_order]
        return self._keys

    def blk(self, name: str, row: int) -> np.ndarray:
        off, vals = self._blk[name]
        orig = int(self._row_order[row])
        return vals[off[orig]:off[orig + 1]]

    def attach_bloom(self, fuzzy_set) -> None:
        """Consult a ``codec.bloom.FuzzySet`` before every exact-term
        probe — the BloomFilteringPostingsFormat ``seekExact`` NO/MAYBE
        fast path (``lucene/codecs/.../bloom/BloomFilteringPostingsFormat
        .java``, LazyInit/seekExact).  A NO answers the lookup from a few
        bitset words without bisecting the dictionary; MAYBE falls
        through, so results are identical with or without the filter."""
        self._bloom = fuzzy_set

    def _term_rows(self, term: str) -> range:
        if self._bloom is not None and not self._bloom.contains(term):
            return range(0, 0)
        lo = np.searchsorted(self.terms, term, side="left")
        hi = np.searchsorted(self.terms, term, side="right")
        return range(int(lo), int(hi))

    # ---- public API ----
    def num_terms(self) -> int:
        return int(self.unique_terms().size)

    def doc_freqs(self, terms: list[str]) -> dict[str, int]:
        return {t: int(self.df[self._term_rows(t)].sum()) for t in terms}

    def total_term_freq(self, term: str) -> int:
        return int(self.ttf[self._term_rows(term)].sum())

    def chunks(self, term: str) -> list[Chunk]:
        rows = self._term_rows(term)
        return [
            Chunk(
                payload=self._payload(r),
                df=int(self.df[r]),
                ttf=int(self.ttf[r]),
                start_doc=int(self.start_doc[r]),
                block_last=self.blk("last", r).astype(np.int64),
                block_max_tf=self.blk("maxtf", r).astype(np.int32),
                block_max_norm=self.blk("maxnorm", r).astype(np.uint8),
            )
            for r in rows
        ]

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(("p", term))
        if hit is not None:
            return hit
        rows = self._term_rows(term)
        if len(rows) == 0:
            out = (np.empty(0, np.int64), np.empty(0, np.int32))
        elif len(rows) == 1:
            out = self._row_postings(rows[0])
        else:
            parts = [self._row_postings(r) for r in rows]
            docs = np.concatenate([p[0] for p in parts])
            tfs = np.concatenate([p[1] for p in parts])
            # chunks partition the term's doc set but need not arrive in
            # doc order (locally-salted merge groups) — restore the sorted
            # invariant the boolean scorers rely on
            order = np.argsort(docs, kind="stable")
            out = (docs[order], tfs[order])
        self._cache.put(("p", term), out)
        return out

    def postings_with_positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids asc, tfs, positions) — positions is the flattened
        prox-delta stream aligned with postings (tf values per posting);
        requires a positional index (store_positions=True at build)."""
        if not self.has_positions:
            raise ValueError(
                "index has no positions (build with store_positions=True)")
        hit = self._cache.get(("pp", term))
        if hit is not None:
            return hit
        out = self.postings_with_stream(term, "pos")
        self._cache.put(("pp", term), out)
        return out

    def unique_terms(self) -> np.ndarray:
        u = getattr(self, "_unique_terms", None)
        if u is not None:
            return u
        if not self.terms.size:
            return self.terms
        keep = np.empty(self.terms.size, bool)
        keep[0] = True
        keep[1:] = self.terms[1:] != self.terms[:-1]
        u = self.terms[keep]
        self._unique_terms = u  # immutable index: cache per reader
        return u

    def terms_matching(self, predicate) -> list[str]:
        return [t for t in self.unique_terms() if predicate(t)]

    def has_terms_in_range(self, lower, upper) -> bool:
        """O(log V) existence probe: do any terms fall in [lower,
        upper)? (terms_in_range materializes the slice — wrong tool for
        a boolean.)"""
        return bool(np.searchsorted(self.terms, upper, "left")
                    > np.searchsorted(self.terms, lower, "left"))

    def terms_in_range(self, lower, upper, include_lower=True,
                       include_upper=True) -> list[str]:
        u = self.unique_terms()
        lo = 0
        hi = u.size
        if lower is not None:
            lo = np.searchsorted(u, lower, "left" if include_lower else "right")
        if upper is not None:
            hi = np.searchsorted(u, upper, "right" if include_upper else "left")
        return list(u[lo:hi])
