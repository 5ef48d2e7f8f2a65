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
  ``IndexWriter.java:2662-2667``).

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
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..analysis import get_analyzer
from ..codec import BLOCK_SIZE, encode_norm, encode_postings
from ..codec.postings import (
    _intra,
    encode_postings_batch_packed,
    encode_values,
    encode_values_batch_packed,
)

MANIFEST = "manifest.json"

# bump when the on-disk segment/merged layout changes (cache-key component
# for /tmp index caches; readers of one version never see another's files)
FORMAT_VERSION = 2


@dataclass
class IndexManifest:
    index_dir: str
    field: str
    analyzer: str
    max_doc: int
    sum_total_term_freq: int
    num_partitions: int
    partitions: list = field(default_factory=list)
    merged: bool = False
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

    @property
    def avgdl(self) -> float:
        # BM25Similarity.avgFieldLength (BM25Similarity.java:79-87):
        # (float) (sumTotalTermFreq / (double) maxDoc)
        if self.sum_total_term_freq <= 0:
            return 1.0
        return float(
            np.float32(self.sum_total_term_freq / float(self.max_doc))
        )

    def save(self) -> None:
        d = self.__dict__.copy()
        tmp = os.path.join(self.index_dir, MANIFEST + ".tmp")
        with open(tmp, "w") as f:
            json.dump(d, f, indent=1)
        os.replace(tmp, os.path.join(self.index_dir, MANIFEST))

    @classmethod
    def load(cls, index_dir: str) -> "IndexManifest":
        with open(os.path.join(index_dir, MANIFEST)) as f:
            d = json.load(f)
        if not d.get("byte_aligned", True):
            raise ValueError(
                f"{index_dir} was built with the bit-packed postings "
                "encoding, which was removed; rebuild the index")
        d["index_dir"] = index_dir
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


def _invert(
    texts: list[str], analyzer_name: str, doc_base_local: int,
    want_positions: bool = False, want_offsets: bool = False,
    want_payloads: bool = False,
):
    """Tokenize a sub-batch and aggregate (term, doc, tf) triples.

    Returns (vocab_tokens, tid, doc, tf, doc_len, pos_flat, off_flat):

    - ``pos_flat`` (when ``want_positions``): ONE uint32 array — the
      delta-encoded in-doc token positions of every (term, doc) pair,
      pairs concatenated in triple order, pair i occupying ``tf[i]``
      values (first position raw per pair; gaps from removed stop /
      over-long tokens preserved — ``FreqProxTermsWriterPerField``
      prox accumulation, delta shape of ``.pos``).
    - ``off_flat`` (when ``want_offsets``): ONE uint32 array of
      interleaved (start_delta, length) char-offset pairs per
      occurrence, ``2 * tf[i]`` values per pair (start raw at each
      pair's first occurrence — the ``.pay`` offset stream,
      ``Lucene50PostingsFormat.java:100-107``).
    """
    import pandas as pd

    # analyzer_name may be a registered name OR a pickled Analyzer
    # instance (custom chains, e.g. synonyms, travel to workers by value)
    ana = (analyzer_name if not isinstance(analyzer_name, str)
           else get_analyzer(analyzer_name))
    e32 = np.empty(0, np.uint32)
    pay = None
    tid = vocab = None
    if want_payloads:
        if not hasattr(ana, "tokens_batch_payloads"):
            raise ValueError(
                f"analyzer {type(ana).__name__} does not emit payloads "
                "(tokens_batch_payloads) — use e.g. delimited_payload")
        tokens, doc_idx, pos, pay = ana.tokens_batch_payloads(texts)
    elif want_offsets:
        from ..analysis.analyzers import (
            StandardAnalyzer,
            _standard_tokens_batch_spans,
        )

        if hasattr(ana, "tokens_batch_spans"):
            tokens, doc_idx, pos, c_start, c_end = \
                ana.tokens_batch_spans(texts)
        elif type(ana) is StandardAnalyzer:
            tokens, doc_idx, pos, c_start, c_end = \
                _standard_tokens_batch_spans(ana, texts)
        else:
            raise ValueError(
                f"analyzer {type(ana).__name__} does not expose char "
                "spans (tokens_batch_spans) — offsets need them")
    else:
        # factorized fast path: the token stream arrives as int codes
        # into a batch vocabulary — no per-token Python strings, no
        # factorize below (analysis/fast.py builds the codes with one
        # np.unique over padded byte rows)
        fact = getattr(ana, "tokens_batch_factorized", None)
        if fact is not None:
            res = fact(texts)
            if res is not None:
                vocab, tid, doc_idx, pos = res
        if tid is None:
            tokens, doc_idx, pos = ana.tokens_batch(texts)
    n_stream = len(tid) if tid is not None else len(tokens)
    # overlap-aware field length (DefaultIndexingChain.java:621-645:
    # length = positions, not tokens): posIncr-0 tokens — WDF sub-parts,
    # synonyms — share a position and count ONCE toward norms
    if n_stream:
        first = np.ones(n_stream, bool)
        first[1:] = (doc_idx[1:] != doc_idx[:-1]) | (pos[1:] != pos[:-1])
        doc_len = np.bincount(
            doc_idx[first], minlength=len(texts)).astype(np.int32)
    else:
        doc_len = np.zeros(len(texts), np.int32)
    if not n_stream:
        e = np.empty(0, np.int64)
        return [], e, e, e, doc_len, e32, e32, e32
    if tid is None:
        tid, vocab = pd.factorize(np.asarray(tokens, dtype=object))
    key = tid.astype(np.int64) * len(texts) + doc_idx
    pos_flat = e32
    off_flat = e32
    pay_flat = e32
    if want_positions or want_offsets or want_payloads:
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
        if want_positions:
            pos_s = pos[order].astype(np.int64)
            d = np.empty(pos_s.size, np.int64)
            d[0] = pos_s[0]
            d[1:] = pos_s[1:] - pos_s[:-1]
            d[starts] = pos_s[starts]
            pos_flat = d.astype(np.uint32)
        if want_offsets:
            cs = np.asarray(c_start, np.int64)[order]
            ce = np.asarray(c_end, np.int64)[order]
            ds = np.empty(cs.size, np.int64)
            ds[0] = cs[0]
            ds[1:] = cs[1:] - cs[:-1]
            ds[starts] = cs[starts]
            off_flat = np.empty(2 * cs.size, np.uint32)
            off_flat[0::2] = ds.astype(np.uint32)
            off_flat[1::2] = (ce - cs).astype(np.uint32)
        if want_payloads:
            # raw float32 bit patterns, one per occurrence (no delta —
            # payloads are opaque values, the .pay payload half)
            pay_flat = np.asarray(pay, np.float32)[order].view(np.uint32)
    else:
        uniq, counts = np.unique(key, return_counts=True)
    u_tid = uniq // len(texts)
    u_doc = uniq % len(texts) + doc_base_local
    return list(vocab), u_tid, u_doc, counts.astype(np.int64), doc_len, \
        pos_flat, off_flat, pay_flat


def _check_index_options(store_positions: bool, store_offsets: bool,
                         store_payloads: bool) -> None:
    if store_offsets and not store_positions:
        raise ValueError("store_offsets requires store_positions=True "
                         "(offsets ride the positional .pay layout)")
    if store_payloads and not store_positions:
        raise ValueError("store_payloads requires store_positions=True "
                         "(payloads ride the positional .pay layout)")
    if store_payloads and store_offsets:
        raise ValueError("store_payloads and store_offsets are exclusive "
                         "(one .pay sidecar stream per index)")


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
    _check_index_options(store_positions, store_offsets, store_payloads)
    pid = part["partition_id"]
    doc_base = part["doc_base"]
    seg_path = os.path.join(out_dir, "segments", f"part-{pid:05d}.parquet")
    bin_path = os.path.join(out_dir, "segments", f"part-{pid:05d}.bin")
    norm_path = os.path.join(out_dir, "norms", f"part-{pid:05d}.parquet")
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
        # must not validate (same input, different segment format)
        [bool(store_positions), bool(store_offsets), bool(store_payloads),
         sorted(docvalues_fields or [])],
    ]
    if os.path.exists(ckpt_path):
        with open(ckpt_path) as f:
            row = json.load(f)
        if row.get("input_fingerprint") == fingerprint:
            return row

    pf = pq.ParquetFile(part["file"])
    if docvalues_fields:
        # DocValues sidecar (the Lucene .dvd column store,
        # Lucene50DocValuesFormat): copy the chosen columns next to the
        # segment so field sorts / function queries / facets read the
        # index's own column store instead of going back to (possibly
        # cold) source storage
        dv_path = os.path.join(out_dir, "docvalues",
                               f"part-{pid:05d}.parquet")
        os.makedirs(os.path.dirname(dv_path), exist_ok=True)
        dv_tbl = pa.concat_tables([
            pf.read_row_group(rg, columns=list(docvalues_fields))
            for rg in part["row_groups"]
        ])
        pq.write_table(dv_tbl, dv_path + ".tmp")
        os.replace(dv_path + ".tmp", dv_path)
    vocab: dict[str, int] = {}
    tids, docs, tfs = [], [], []
    pos_parts: list = []
    off_parts: list = []
    pay_parts: list = []
    lens_parts, sha_parts = [], []
    rows_done = 0
    for rg in part["row_groups"]:
        tbl = pf.read_row_group(rg, columns=[text_field])
        col = tbl.column(text_field)
        texts = col.to_pylist()
        texts = [t if t is not None else "" for t in texts]
        # per-row content sha256 — the end-to-end invariant (input_hint)
        sha_parts.extend(hashlib.sha256(t.encode("utf-8")).digest() for t in texts)
        for lo in range(0, len(texts), tokenize_batch_rows):
            sub = texts[lo : lo + tokenize_batch_rows]
            toks, s_tid, s_doc, s_tf, s_len, s_pos, s_off, s_pay = \
                _invert(
                    sub, analyzer_name, rows_done + lo,
                    want_positions=store_positions,
                    want_offsets=store_offsets,
                    want_payloads=store_payloads,
                )
            lens_parts.append(s_len)
            if not toks:
                continue
            # remap sub-batch tids into the partition vocab
            remap = np.empty(len(toks), np.int64)
            for i, t in enumerate(toks):
                gid = vocab.get(t)
                if gid is None:
                    gid = len(vocab)
                    vocab[t] = gid
                remap[i] = gid
            tids.append(remap[s_tid])
            docs.append(s_doc)
            tfs.append(s_tf)
            if store_positions:
                pos_parts.append(s_pos)
            if store_offsets:
                off_parts.append(s_off)
            if store_payloads:
                pay_parts.append(s_pay)
        rows_done += len(texts)

    doc_lens = (
        np.concatenate(lens_parts) if lens_parts else np.empty(0, np.int32)
    )
    norm_bytes = encode_norm(doc_lens)

    # SPIMI flush: sort terms bytewise (FreqProxTermsWriter.java:91 — UTF-8
    # order == Python str order), then (term, doc) for encode.
    terms_sorted = sorted(vocab)
    order = np.array([vocab[t] for t in terms_sorted], np.int64)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # no tokens: these empties make the emit below write an empty segment
    starts = ends = a_doc = a_tf = np.empty(0, np.int64)
    a_pos = a_off = a_pay = np.empty(0, np.uint32)
    if tids:
        a_tid = rank[np.concatenate(tids)]
        a_doc = np.concatenate(docs)
        a_tf_pre = np.concatenate(tfs)
        srt = np.lexsort((a_doc, a_tid))
        a_tid, a_doc, a_tf = a_tid[srt], a_doc[srt], a_tf_pre[srt]
        bounds = np.flatnonzero(np.diff(a_tid)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [a_tid.size]))
        # permute the flat per-pair position/offset streams into the
        # sorted pair order with ONE vectorized gather (the r2 build kept
        # a Python list of per-pair arrays here — the positional path's
        # hot loop)
        if store_positions:
            src = np.zeros(a_tf_pre.size, np.int64)
            np.cumsum(a_tf_pre[:-1], out=src[1:])
            idx = np.repeat(src[srt], a_tf) + _intra(a_tf)
            a_pos = np.concatenate(pos_parts)[idx]
        if store_offsets:
            c2 = 2 * a_tf_pre
            src2 = np.zeros(c2.size, np.int64)
            np.cumsum(c2[:-1], out=src2[1:])
            idx2 = np.repeat(src2[srt], c2[srt]) + _intra(c2[srt])
            a_off = np.concatenate(off_parts)[idx2]
        if store_payloads:
            src3 = np.zeros(a_tf_pre.size, np.int64)
            np.cumsum(a_tf_pre[:-1], out=src3[1:])
            idx3 = np.repeat(src3[srt], a_tf) + _intra(a_tf)
            a_pay = np.concatenate(pay_parts)[idx3]

    a_doc_g = a_doc + doc_base
    os.makedirs(os.path.dirname(seg_path), exist_ok=True)
    os.makedirs(os.path.dirname(norm_path), exist_ok=True)
    os.makedirs(os.path.dirname(ckpt_path), exist_ok=True)

    # payload sidecar: raw posting (then position) bytes concatenated into a
    # flat mmap-able .bin — segments are ALREADY in final read format, so
    # the merge can be metadata-only (chunks referenced in place; the .doc
    # file written once at flush, exactly Lucene's "segments are immutable,
    # merges mostly re-point" economics). Layout:
    #     [payload_0 .. payload_n][pos_0 .. pos_n]
    # FULLY VECTORIZED emit (no per-term Python loop): single-block terms
    # (the Zipf body, df <= 128) go through the packed batch encoder
    # straight into one buffer; only multi-block terms loop. Positions and
    # offsets take the same shape: single-block streams (ttf <= 128) via
    # the packed values encoder, the rest per-term.
    n_terms = starts.size
    df_arr = (ends - starts).astype(np.int64)
    ttf_arr = np.add.reduceat(a_tf, starts).astype(np.int64)
    start_doc_arr = a_doc_g[starts]
    maxtf_term = np.maximum.reduceat(a_tf, starts)
    maxnorm_term = np.maximum.reduceat(norm_bytes[a_doc], starts)
    small_m = df_arr <= BLOCK_SIZE
    sm_idx = np.flatnonzero(small_m)
    big_idx = np.flatnonzero(~small_m)
    lens = np.empty(n_terms, np.int64)
    sm_buf, sm_lens = encode_postings_batch_packed(
        a_doc_g, a_tf, starts[sm_idx], ends[sm_idx]
    )
    lens[sm_idx] = sm_lens
    big_payloads: list = []
    big_meta: dict = {}
    for bi in big_idx.tolist():
        s, e = int(starts[bi]), int(ends[bi])
        payload, last, maxtf = encode_postings(
            a_doc_g[s:e], a_tf[s:e])
        big_payloads.append(payload)
        lens[bi] = len(payload)
        nb = norm_bytes[a_doc[s:e]]
        mx = np.maximum.reduceat(nb, np.arange(0, nb.size, BLOCK_SIZE))
        big_meta[bi] = (last, maxtf, mx.astype(np.uint8))
    offs = np.zeros(n_terms, np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    buf = np.empty(int(lens.sum()), np.uint8)
    if sm_idx.size:
        dst = np.repeat(offs[sm_idx], sm_lens) + _intra(sm_lens)
        buf[dst] = sm_buf
    for k2, bi in enumerate(big_idx.tolist()):
        o = int(offs[bi])
        buf[o : o + int(lens[bi])] = np.frombuffer(
            big_payloads[k2], np.uint8)

    def _values_section(flat, v_starts, v_ends):
        """Encode per-term value streams into one section buffer:
        packed batch for single-block streams, per-term for the
        rest. Returns (section_buf, per-term lens)."""
        cnts = v_ends - v_starts
        sm = np.flatnonzero(cnts <= BLOCK_SIZE)
        bg = np.flatnonzero(cnts > BLOCK_SIZE)
        v_lens = np.empty(n_terms, np.int64)
        vb, vl = encode_values_batch_packed(
            flat, v_starts[sm], v_ends[sm])
        v_lens[sm] = vl
        bg_payloads = []
        for bi2 in bg.tolist():
            p = encode_values(flat[int(v_starts[bi2]):int(v_ends[bi2])])
            bg_payloads.append(p)
            v_lens[bi2] = len(p)
        v_offs = np.zeros(n_terms, np.int64)
        np.cumsum(v_lens[:-1], out=v_offs[1:])
        sec = np.empty(int(v_lens.sum()), np.uint8)
        if sm.size:
            dst = np.repeat(v_offs[sm], vl) + _intra(vl)
            sec[dst] = vb
        for k3, bi2 in enumerate(bg.tolist()):
            o2 = int(v_offs[bi2])
            sec[o2 : o2 + int(v_lens[bi2])] = np.frombuffer(
                bg_payloads[k3], np.uint8)
        return sec, v_lens

    doc_total = int(lens.sum())
    sections = [buf]
    if store_positions:
        tf_cum = np.zeros(a_tf.size + 1, np.int64)
        np.cumsum(a_tf, out=tf_cum[1:])
        pos_sec, pos_lens_v = _values_section(
            a_pos, tf_cum[starts], tf_cum[ends])
        pos_offs_v = np.full(n_terms, doc_total, np.int64)
        pos_offs_v[1:] += np.cumsum(pos_lens_v[:-1])
        sections.append(pos_sec)
        if store_offsets:
            off_sec, off_lens_v = _values_section(
                a_off, 2 * tf_cum[starts], 2 * tf_cum[ends])
            base = doc_total + int(pos_lens_v.sum())
            off_offs_v = np.full(n_terms, base, np.int64)
            off_offs_v[1:] += np.cumsum(off_lens_v[:-1])
            sections.append(off_sec)
        if store_payloads:
            pay_sec, pay_lens_v = _values_section(
                a_pay, tf_cum[starts], tf_cum[ends])
            base = doc_total + int(pos_lens_v.sum())
            pay_offs_v = np.full(n_terms, base, np.int64)
            pay_offs_v[1:] += np.cumsum(pay_lens_v[:-1])
            sections.append(pay_sec)
    else:
        pos_offs_v = np.zeros(n_terms, np.int64)
        pos_lens_v = np.zeros(n_terms, np.int64)
    with open(bin_path + ".tmp", "wb") as f:
        for s_ in sections:
            f.write(s_.tobytes())
    os.replace(bin_path + ".tmp", bin_path)

    # block-metadata list columns assembled flat (ListArray offsets)
    nblocks = np.where(small_m, 1,
                       (df_arr + BLOCK_SIZE - 1) // BLOCK_SIZE)
    bl_off = np.zeros(n_terms + 1, np.int64)
    np.cumsum(nblocks, out=bl_off[1:])
    totb = int(bl_off[-1])
    bl_last_v = np.empty(totb, np.int64)
    bl_maxtf_v = np.empty(totb, np.int32)
    bl_maxnorm_v = np.empty(totb, np.uint8)
    sb_pos = bl_off[:-1][sm_idx]
    bl_last_v[sb_pos] = a_doc_g[ends[sm_idx] - 1]
    bl_maxtf_v[sb_pos] = maxtf_term[sm_idx]
    bl_maxnorm_v[sb_pos] = maxnorm_term[sm_idx]
    for bi, (last, maxtf, mnorm) in big_meta.items():
        p0 = int(bl_off[bi])
        bl_last_v[p0 : p0 + last.size] = last
        bl_maxtf_v[p0 : p0 + maxtf.size] = maxtf
        bl_maxnorm_v[p0 : p0 + mnorm.size] = mnorm

    def _list_arr(vals, typ):
        return pa.ListArray.from_arrays(
            pa.array(bl_off, pa.int32()), pa.array(vals, typ))

    num_postings = int(df_arr.sum())
    cols = {
        "term": pa.array(terms_sorted, pa.string()),
        "pid": pa.array(np.full(n_terms, pid, np.int32)),
        "df": pa.array(df_arr.astype(np.int32)),
        "ttf": pa.array(ttf_arr),
        "start_doc": pa.array(start_doc_arr.astype(np.int64)),
        "offset": pa.array(offs),
        "length": pa.array(lens),
        "pos_offset": pa.array(pos_offs_v),
        "pos_length": pa.array(pos_lens_v),
        "block_last": _list_arr(bl_last_v, pa.int64()),
        "block_max_tf": _list_arr(bl_maxtf_v, pa.int32()),
        "block_max_norm": _list_arr(bl_maxnorm_v, pa.uint8()),
    }
    if store_offsets:
        cols["off_offset"] = pa.array(off_offs_v)
        cols["off_length"] = pa.array(off_lens_v)
    if store_payloads:
        cols["pay_offset"] = pa.array(pay_offs_v)
        cols["pay_length"] = pa.array(pay_lens_v)
    seg_tbl = pa.table(cols)
    pq.write_table(seg_tbl, seg_path + ".tmp")
    os.replace(seg_path + ".tmp", seg_path)

    doc_ids = np.arange(doc_base, doc_base + part["rows"], dtype=np.int64)
    norm_tbl = pa.table({
        "doc_id": pa.array(doc_ids),
        "length": pa.array(doc_lens.astype(np.int32)),
        "norm": pa.array(norm_bytes),
        "content_sha256": pa.array(sha_parts, pa.binary(32)),
    })
    pq.write_table(norm_tbl, norm_path + ".tmp")
    os.replace(norm_path + ".tmp", norm_path)

    sha_roll = hashlib.sha256(b"".join(sha_parts)).hexdigest()
    row = {
        "partition_id": pid,
        "input_fingerprint": fingerprint,
        "file": part["file"],
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

    _check_index_options(store_positions, store_offsets, store_payloads)
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
    # a (re)build invalidates any previously merged view: segments are the
    # source of truth; merged must be rebuilt from them (merge_index)
    merged_dir = os.path.join(out_dir, "merged")
    stale_merged = os.path.isdir(merged_dir)
    if stale_merged:
        import shutil as _shutil

        _shutil.rmtree(merged_dir)
    if not isinstance(analyzer, str):
        # persist the analyzer object: its name is typically not in the
        # registry, and append_segment / query parsing must reuse the
        # exact build-time chain (see IndexManifest.resolve_analyzer)
        import pickle

        with open(os.path.join(out_dir, "analyzer.pkl"), "wb") as f:
            pickle.dump(analyzer, f)
    man = IndexManifest(
        index_dir=out_dir,
        field=text_field,
        analyzer=(analyzer if isinstance(analyzer, str) else "@pickled"),
        max_doc=sum(r["rows"] for r in rows),
        sum_total_term_freq=sum(r["sum_len"] for r in rows),
        num_partitions=len(rows),
        partitions=rows,
        store_positions=store_positions,
        store_offsets=store_offsets,
        store_payloads=store_payloads,
        docvalues_fields=sorted(docvalues_fields) if docvalues_fields
        else [],
    )
    man.save()
    return man
