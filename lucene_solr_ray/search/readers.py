"""Index readers: in-memory term dictionary + mmap'd posting payloads.

The DirectoryReader analogue (``index/DirectoryReader.java:62-202``):

- :class:`NormsReader` — dense uint8 norm bytes + int32 lengths per doc_id
  (the ``.nvd`` analogue); loaded once per searcher/actor.
- :class:`MergedReader` — the post-merge global index: loads the term
  dictionary (``merged/terms-*.parquet`` — the ``.tim/.tip`` analogue,
  sorted in RAM, binary-searched) and memory-maps the posting payload files
  (``merged/payload-*.bin`` — the ``.doc`` analogue, decoded lazily per
  term with an LRU cache, the ``LRUQueryCache`` analogue).
- :class:`SegmentsReader` — pre-merge view over per-partition segment
  tables (a MultiReader over leaves); loads the segment tables into memory —
  used by tests and by doc-sharded scorer actors that each own a small
  shard set, never for a giant corpus in one process.

The term dictionary is one sorted array of term strings per reader. Its
RAM cost is ~60 B/term + the term bytes; at web scale the dictionary is
sharded across scorer actors (each actor mounts a range of ``terms-*``
files).
"""

from __future__ import annotations

import mmap
import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..codec import decode_postings
from ..codec.postings import decode_values


def mmap_file(path: str) -> memoryview:
    """Read-only mmap of a payload .bin (empty files -> empty view)."""
    if os.path.getsize(path) == 0:
        return memoryview(b"")
    with open(path, "rb") as f:
        return memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))


def _file_ids(paths: list[str]) -> dict:
    """path -> (st_ino, st_size, st_mtime_ns), in ``paths`` order: the
    identity a reopen checks before it reuses what a reader loaded."""
    out = {}
    for p in paths:
        st = os.stat(p)
        out[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def _new_files(prev, files: dict) -> list[str] | None:
    """The paths in ``files`` that ``prev`` did not load, if every file
    it loaded is still there with the same identity (files are
    immutable, so ``prev``'s data for them is still right); else None,
    and nothing of ``prev`` may be reused."""
    old = getattr(prev, "_files", None)
    if old is None or any(files.get(p) != i for p, i in old.items()):
        return None
    return [p for p in files if p not in old]


class NormsReader:
    """Norm bytes and lengths by doc id. ``prev`` (the reader this one
    replaces, or None) is reused when ``_new_files`` allows: its arrays
    are copied and only the new partitions' norms files are read."""

    def __init__(self, index_dir: str, max_doc: int,
                 partition_ids: list[int] | None = None, prev=None):
        self.norm = np.empty(max_doc, np.uint8)
        self.length = np.empty(max_doc, np.int32)
        d = os.path.join(index_dir, "norms")
        want = (
            None if partition_ids is None
            else {f"part-{p:05d}.parquet" for p in partition_ids}
        )
        self._files = _file_ids([
            os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet") and (want is None or f in want)
        ])
        files = _new_files(prev, self._files)
        if files is None:
            files = list(self._files)
        else:
            self.norm[:prev.norm.size] = prev.norm
            self.length[:prev.length.size] = prev.length
        if not files:
            return
        # one multi-threaded dataset read instead of per-file loops
        t = pads.dataset(files, format="parquet").to_table(
            columns=["doc_id", "length", "norm"]
        )
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
    positions: memoryview | bytes = b""


class TermDictReader:
    """Shared logic: the in-memory term dictionary + payload resolution.

    The dictionary is ``self.terms``: one sorted object array of term
    strings, one entry per term-dict row (a term split into several
    chunks repeats), bisected with ``np.searchsorted``. Each row points
    at its payloads in the mmap'd ``.bin`` files."""

    def __init__(self, cache_size: int = 4096):
        self._cache = _LRU(cache_size)
        self._bloom = None  # optional FuzzySet (codec.bloom sidecar)
        # subclasses fill:
        self.terms: np.ndarray  # sorted object array (with duplicates)
        self.chunk_order: np.ndarray  # secondary order within a term
        self.df: np.ndarray
        self.ttf: np.ndarray
        self.start_doc: np.ndarray

    def _stream(self, name: str, row: int):
        """One row's bytes of stream ``name``: "doc" postings, "pos"
        positions, "off" char offsets, "pay" payloads (b"" when the
        index does not store it)."""
        raise NotImplementedError

    def _payload(self, row: int) -> memoryview:
        return self._stream("doc", row)

    def _postings_with_stream(self, term: str, name: str, per_tf: int):
        """(doc_ids asc, tfs, values) over every row of ``term``:
        ``values`` is the concatenated ``name`` stream, ``per_tf`` values
        per occurrence, its per-posting runs gathered into doc order."""
        rows = self._term_rows(term)
        if len(rows) == 0:
            e = np.empty(0, np.int64)
            return e, e.astype(np.int32), np.empty(0, np.uint32)
        docs_l, tfs_l, val_l = [], [], []
        for r in rows:
            d, f = decode_postings(self._payload(r))
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
        docs, tfs, pay = self._postings_with_stream(term, "pay", 1)
        return docs, tfs, pay.astype(np.uint32).view(np.float32)

    def term_offsets(self, term: str):
        """(doc_ids asc, tfs, off_flat) — off_flat is the interleaved
        (start_delta, length) char-offset stream, 2*tf values per
        posting; requires store_offsets=True at build (the .pay offset
        half of Lucene50PostingsFormat)."""
        if not self.has_offsets:
            raise ValueError(
                "index has no offsets (build with store_offsets=True)")
        return self._postings_with_stream(term, "off", 2)

    def _finish_init(self, tbl, chunk_order, prev=None):
        """Sort the terms table ``tbl``'s rows by (term, chunk_order) and
        fold them into ``prev``'s sorted rows (None: no rows), whose
        chunk orders must not exceed any of ``tbl``'s: each row is
        inserted at ``searchsorted(prev.terms, term, "right")``, which
        is where a lexsort of all rows would put it. ``tbl``'s rows
        number on after ``prev``'s. The block-max list columns are kept
        as (offsets, values) numpy pairs — no per-row Python list
        materialization (5+ s at 10^6-row term dicts)."""
        terms = np.asarray(tbl["term"].to_numpy(zero_copy_only=False),
                           dtype=object)
        chunk_order = np.asarray(chunk_order)
        order = np.lexsort((chunk_order, terms))
        base = 0 if prev is None else prev.terms.size
        new = {
            "terms": terms[order],
            "chunk_order": chunk_order[order],
            "df": np.asarray(tbl["df"].to_numpy(), np.int64)[order],
            "ttf": np.asarray(tbl["ttf"].to_numpy(), np.int64)[order],
            "start_doc": np.asarray(tbl["start_doc"].to_numpy(),
                                    np.int64)[order],
            # maps sorted pos -> original row
            "_row_order": order.astype(np.int64) + base,
        }
        if prev is not None:
            at = np.searchsorted(prev.terms, new["terms"], side="right")
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
                positions=self._stream("pos", r),
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
            out = decode_postings(self._payload(rows[0]))
        else:
            parts = [decode_postings(self._payload(r)) for r in rows]
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
        hit = self._cache.get(("pp", term))
        if hit is not None:
            return hit
        out = self._postings_with_stream(term, "pos", 1)
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


class _BinPayloads:
    """Per-row payload refs into lazily-mmap'd .bin files (shared by the
    merged and per-segment readers — payload bytes never live in RAM).
    Each stored stream keeps one (offsets, lengths) pair per row."""

    def _set_payload_refs(self, file_paths, file_idx, prev=None,
                          **streams):
        """``streams``: name -> (offsets, lengths), or None when the
        index does not store that stream. With ``prev`` the rows number
        on after ``prev``'s rows and ``file_paths`` extends its files."""
        self._file_paths = [] if prev is None else list(prev._file_paths)
        fi = {p: i for i, p in enumerate(self._file_paths)}
        for p in file_paths:
            if p not in fi:
                fi[p] = len(self._file_paths)
                self._file_paths.append(p)
        remap = np.asarray([fi[p] for p in file_paths], np.int64)
        self._file_idx = remap[np.asarray(file_idx, np.int64)]
        self._refs = {
            name: (np.asarray(ref[0], np.int64), np.asarray(ref[1], np.int64))
            for name, ref in streams.items() if ref is not None
        }
        if prev is not None:
            self._file_idx = np.concatenate((prev._file_idx, self._file_idx))
            self._refs = {
                name: tuple(np.concatenate((p, n))
                            for p, n in zip(prev._refs[name], ref))
                for name, ref in self._refs.items()
            }
        self._mmaps: list = [None] * len(self._file_paths)

    def _mmap(self, fi: int) -> memoryview:
        mv = self._mmaps[fi]
        if mv is None:
            mv = mmap_file(self._file_paths[fi])
            self._mmaps[fi] = mv
        return mv

    def _stream(self, name: str, row: int):
        ref = self._refs.get(name)
        if ref is None:
            return b""
        orig = int(self._row_order[row])
        off = int(ref[0][orig])
        return self._mmap(int(self._file_idx[orig]))[
            off : off + int(ref[1][orig])
        ]

    @property
    def has_offsets(self) -> bool:
        return "off" in self._refs

    @property
    def has_payloads(self) -> bool:
        return "pay" in self._refs


def _refs(tbl, prefix: str):
    """(offsets, lengths) columns of one stream, or None if not stored."""
    if f"{prefix}_offset" not in tbl.schema.names:
        return None
    return (tbl[f"{prefix}_offset"].to_numpy(),
            tbl[f"{prefix}_length"].to_numpy())


class MergedReader(_BinPayloads, TermDictReader):
    """The merged index's ``terms-*.parquet`` files folded into one sorted
    dictionary. ``prev`` (the reader this one replaces, or None) is
    reused when ``_new_files`` allows and no new row's chunk id is
    below its largest (``merge_append`` chunk ids sort after all
    earlier ones): only the new files are read and folded into its
    rows. Else every file is folded from empty — a full open. Either
    way each sorted row holds what a fresh open's does."""

    def __init__(self, index_dir: str, prev: "MergedReader | None" = None,
                 **kw):
        super().__init__(**kw)
        d = os.path.join(index_dir, "merged")
        self.dir = d
        self._files = _file_ids(sorted(
            os.path.join(d, f) for f in os.listdir(d)
            if f.startswith("terms-") and f.endswith(".parquet")
        ))
        files = list(self._files)
        new = _new_files(prev, self._files)
        if new is None:
            prev, new = None, files
        tbl = _read_terms(new, files)
        if prev is not None and tbl.num_rows and prev.terms.size and (
                pc.min(tbl["chunk_id"]).as_py() < prev.chunk_order.max()):
            prev, tbl = None, _read_terms(files, files)
        fdict = tbl["payload_file"].combine_chunks().dictionary_encode()
        # payload_file with a "/" is index_dir-relative (a segment .bin
        # referenced in place by the metadata-only merge); a bare name
        # lives in merged/ (a compacted chunk file)
        paths = [
            os.path.join(index_dir, f) if "/" in f else os.path.join(d, f)
            for f in fdict.dictionary.to_pylist()
        ]
        self._set_payload_refs(
            paths, fdict.indices.to_numpy(), prev,
            doc=(tbl["offset"].to_numpy(), tbl["length"].to_numpy()),
            pos=_refs(tbl, "pos"),
        )
        self._finish_init(tbl, tbl["chunk_id"].to_numpy(), prev)


def _read_terms(files: list[str], all_files: list[str]):
    """One table of ``files``' term rows (the schema of ``all_files``'
    first when ``files`` is empty)."""
    if not files:
        return pq.read_schema(all_files[0]).empty_table()
    return pads.dataset(files, format="parquet").to_table()


class SegmentsReader(_BinPayloads, TermDictReader):
    """Pre-merge view over per-partition segment term dicts; payloads are
    mmap'd from the per-partition .bin sidecars (a MultiReader over
    leaves)."""

    def __init__(self, index_dir: str, partition_ids: list[int] | None = None,
                 **kw):
        super().__init__(**kw)
        from ..index.check import exorcised_pids

        d = os.path.join(index_dir, "segments")
        # quarantined segments (CheckIndex -exorcise) are skipped
        # entirely, whichever partitions are asked for — their files may
        # be unreadable; their doc range is already masked by the
        # exorcism delete generation
        drop = {f"part-{p:05d}.parquet" for p in exorcised_pids(index_dir)}
        live = sorted(f for f in os.listdir(d)
                      if f.endswith(".parquet") and f not in drop)
        files = live
        if partition_ids is not None:
            want = {f"part-{p:05d}.parquet" for p in partition_ids}
            files = [f for f in live if f in want]
        if files:
            tbl = pads.dataset([os.path.join(d, f) for f in files],
                               format="parquet").to_table()
        else:  # e.g. a shard whose only partition is quarantined
            tbl = pq.read_schema(os.path.join(d, live[0])).empty_table()
        pids = tbl["pid"].to_numpy()
        uq, inv = np.unique(pids, return_inverse=True)
        self._set_payload_refs(
            [os.path.join(d, f"part-{p:05d}.bin") for p in uq.tolist()],
            inv,
            doc=(tbl["offset"].to_numpy(), tbl["length"].to_numpy()),
            pos=_refs(tbl, "pos"), off=_refs(tbl, "off"),
            pay=_refs(tbl, "pay"),
        )
        self._finish_init(tbl, pids)
