"""Posting-list codec: delta-gapped doc IDs + term frequencies in FOR blocks.

Our own byte format, modeled on the reference's block postings layout
(``lucene/core/src/java/org/apache/lucene/codecs/lucene50/
Lucene50PostingsWriter.java:213-341``: 128-int FOR blocks chosen per-block
bit width, all-values-equal special case ``ForUtil.java:41``, delta-gapped
doc IDs ``FreqProxTermsWriterPerField.java:109-173``) but NOT byte-compatible
with Lucene — SURVEY.md §2.3 licenses our own spec.

Layout (little-endian):

    [num_docs: uint32]
    repeat per block of <=128 docs (last block may be short):
        [doc_code: uint8][doc payload][tf_code: uint8][tf payload]

    payload for code == 0   : uint32 value (all values in block equal)
    payload for code == 253 : n * uint8  raw values
    payload for code == 254 : n * uint16 raw values
    payload for code == 255 : n * uint32 raw values

Widths are byte-aligned (8/16/32 bits), so every decoder is a numpy view
or gather; any other width code is rejected with ``ValueError``.

Doc IDs are encoded as deltas: first = doc_id[0], then successive gaps
(always >= 1). TFs are encoded as tf-1 (tf >= 1).

Block metadata for skipping + block-max scoring (the analogue of
``Lucene50SkipWriter.java:25-70`` plus Block-Max WAND metadata, Ding & Suel
SIGIR'11) is returned at encode time: per block ``(last_doc, max_tf)``;
the caller adds ``max_norm_byte`` (max norm byte = smallest field length in
block -> largest score bound) when norms are available.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128  # reference: Lucene50PostingsFormat.java:398


# bytes per value -> width code (code 0, the all-equal block, stores one
# uint32 instead)
_CODE = {1: 253, 2: 254, 4: 255}
_WIDTH = {c: w for w, c in _CODE.items()}
_DTYPE = {w: np.dtype(t) for w, t in ((1, "u1"), (2, "<u2"), (4, "<u4"))}


def _width(code: int) -> int:
    w = _WIDTH.get(int(code))
    if w is None:
        raise ValueError(f"unknown postings width code {int(code)}")
    return w


def _check_codes(codes: np.ndarray) -> None:
    """The batch decoders' one vectorized width-code check per stream."""
    bad = ~np.isin(codes, (0, *_WIDTH))
    if bad.any():
        raise ValueError(
            f"unknown postings width code {int(codes[bad][0])}")


def _encode_stream(out: list, vals: np.ndarray) -> None:
    mx = int(vals.max()) if vals.size else 0
    mn = int(vals.min()) if vals.size else 0
    if mx == mn:
        out.append(np.uint8(0).tobytes())
        out.append(np.uint32(mx).tobytes())
        return
    w = 1 if mx < 0x100 else 2 if mx < 0x10000 else 4
    out.append(bytes([_CODE[w]]))
    out.append(vals.astype(_DTYPE[w]).tobytes())


def _decode_stream(buf: memoryview, off: int, n: int) -> tuple[np.ndarray, int]:
    code = buf[off]
    off += 1
    if code == 0:
        val = np.frombuffer(buf, "<u4", count=1, offset=off)[0]
        return np.full(n, val, np.uint32), off + 4
    w = _width(code)
    return (
        np.frombuffer(buf, _DTYPE[w], count=n, offset=off).astype(np.uint32),
        off + w * n,
    )


def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Encode one term's postings.

    ``doc_ids`` strictly ascending int array; ``tfs`` >= 1 ints.
    Returns ``(payload, block_last_doc:int64[], block_max_tf:int32[])``.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = doc_ids.size
    deltas = np.empty(n, np.uint32)
    if n:
        deltas[0] = doc_ids[0]
        np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:], casting="unsafe")
    tfm1 = (tfs - 1).astype(np.uint32)
    out: list[bytes] = [np.uint32(n).tobytes()]
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_last = np.empty(nblocks, np.int64)
    block_maxtf = np.empty(nblocks, np.int32)
    for b in range(nblocks):
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, n)
        _encode_stream(out, deltas[lo:hi])
        _encode_stream(out, tfm1[lo:hi])
        block_last[b] = doc_ids[hi - 1]
        block_maxtf[b] = tfs[lo:hi].max()
    return b"".join(out), block_last, block_maxtf


def encode_postings_batch_packed(
    docs_flat: np.ndarray,
    tfs_flat: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized encoder for many SINGLE-BLOCK terms at once (df <= 128):
    assembles ALL payloads into one contiguous uint8 buffer (returned with
    per-term byte lengths) — no per-term Python bytes objects (the build's
    emit hot path). Byte format is :func:`encode_postings`'s, except the
    all-equal (code 0) case is not used.

    Payload i occupies ``[cum_lens[i], cum_lens[i+1])`` of the buffer.
    """
    docs_flat = np.asarray(docs_flat, np.int64)
    tfs_flat = np.asarray(tfs_flat, np.int64)
    n_terms = starts.size
    counts = (ends - starts).astype(np.int64)
    deltas = np.empty(docs_flat.size, np.uint32)
    if docs_flat.size:
        deltas[0] = docs_flat[0]
        np.subtract(docs_flat[1:], docs_flat[:-1], out=deltas[1:],
                    casting="unsafe")
        deltas[starts] = docs_flat[starts]
    tfm1 = (tfs_flat - 1).astype(np.uint32)

    # width selection needs per-term maxima over the TRUE [start, end)
    # ranges. reduceat(vals, starts) runs each segment to the NEXT subset
    # start, so for a non-contiguous subset (build_segment interleaves big
    # terms) it would fold foreign values in and inflate widths (decode
    # stays correct — payloads were just larger than needed). Gather the
    # subset stream once and reduce over contiguous segments instead.
    if n_terms and (starts[0] != 0 or not np.array_equal(starts[1:],
                                                         ends[:-1])):
        sub_idx = np.repeat(starts, counts) + _intra(counts)
        red_starts = np.zeros(n_terms, np.int64)
        np.cumsum(counts[:-1], out=red_starts[1:])
    else:
        sub_idx = None
        red_starts = starts

    def widths(vals):
        v = vals if sub_idx is None else vals[sub_idx]
        mx = np.maximum.reduceat(v, red_starts)
        w = np.full(n_terms, 4, np.int64)
        w[mx < 0x10000] = 2
        w[mx < 0x100] = 1
        return w

    dw = widths(deltas)
    tw = widths(tfm1)
    lens = 4 + 1 + counts * dw + 1 + counts * tw
    offs = np.zeros(n_terms + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    buf = np.empty(int(offs[-1]), np.uint8)

    # headers: count as u4 at offs, then code bytes
    o = offs[:-1]
    buf[o] = counts & 0xFF
    buf[o + 1] = (counts >> 8) & 0xFF
    buf[o + 2] = (counts >> 16) & 0xFF
    buf[o + 3] = (counts >> 24) & 0xFF
    d_start = o + 4
    t_start = d_start + 1 + counts * dw
    for w in (1, 2, 4):
        m = dw == w
        if m.any():
            buf[d_start[m]] = _CODE[w]
        m = tw == w
        if m.any():
            buf[t_start[m]] = _CODE[w]

    def scatter(vals, w_arr, data_start):
        for w in (1, 2, 4):
            m = w_arr == w
            if not m.any():
                continue
            cnt = counts[m]
            intra = _intra(cnt)
            src = np.repeat(starts[m], cnt) + intra
            dst = np.repeat(data_start[m] + 1, cnt) + intra * w
            v = vals[src]
            buf[dst] = v & 0xFF
            if w >= 2:
                buf[dst + 1] = (v >> np.uint32(8)) & 0xFF
            if w == 4:
                buf[dst + 2] = (v >> np.uint32(16)) & 0xFF
                buf[dst + 3] = (v >> np.uint32(24)) & 0xFF

    scatter(deltas, dw, d_start)
    scatter(tfm1, tw, t_start)
    return buf, lens


def encode_values_batch_packed(
    vals_flat: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized single-stream encode of MANY short value payloads
    (positions / offsets) into one contiguous uint8 buffer — the
    ``.pos``/``.pay`` analogue of :func:`encode_postings_batch_packed`.
    Each stream must fit one block (``ends - starts <= BLOCK_SIZE``);
    payload format matches :func:`encode_values` byte-aligned output
    (n:u4, code:u1, n fixed-width values), so :func:`decode_values`
    reads it back unchanged. Handles non-contiguous subsets.
    Returns (buffer, per-stream byte lengths)."""
    vals_flat = np.asarray(vals_flat, np.uint32)
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    n = starts.size
    counts = (ends - starts).astype(np.int64)
    if n and (starts[0] != 0 or not np.array_equal(starts[1:], ends[:-1])):
        sub_idx = np.repeat(starts, counts) + _intra(counts)
        red_starts = np.zeros(n, np.int64)
        np.cumsum(counts[:-1], out=red_starts[1:])
        vals = vals_flat[sub_idx]
    else:
        red_starts = starts
        vals = vals_flat[int(starts[0]) if n else 0:
                         int(ends[-1]) if n else 0]
    safe_starts = red_starts.copy()
    if n:
        safe_starts[counts == 0] = 0  # reduceat needs valid indices
    mx = np.maximum.reduceat(vals, np.minimum(
        safe_starts, max(vals.size - 1, 0))) if vals.size else \
        np.zeros(n, np.uint32)
    if n:
        mx = np.where(counts > 0, mx, 0)
    w = np.full(n, 4, np.int64)
    w[mx < 0x10000] = 2
    w[mx < 0x100] = 1
    lens = 4 + 1 + counts * w
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    buf = np.empty(int(offs[-1]), np.uint8)
    o = offs[:-1]
    buf[o] = counts & 0xFF
    buf[o + 1] = (counts >> 8) & 0xFF
    buf[o + 2] = (counts >> 16) & 0xFF
    buf[o + 3] = (counts >> 24) & 0xFF
    for width in (1, 2, 4):
        m = w == width
        if not m.any():
            continue
        buf[o[m] + 4] = _CODE[width]
        cnt = counts[m]
        if not cnt.sum():
            continue
        intra = _intra(cnt)
        src = np.repeat(red_starts[m], cnt) + intra
        dst = np.repeat(o[m] + 5, cnt) + intra * width
        v = vals[src]
        buf[dst] = v & 0xFF
        if width >= 2:
            buf[dst + 1] = (v >> np.uint32(8)) & 0xFF
        if width == 4:
            buf[dst + 2] = (v >> np.uint32(16)) & 0xFF
            buf[dst + 3] = (v >> np.uint32(24)) & 0xFF
    return buf, lens


def decode_postings(payload: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full posting list -> (doc_ids:int64[], tfs:int32[])."""
    buf = memoryview(payload).cast("B")  # unsigned view (arrow buffers are 'b')
    n = int(np.frombuffer(buf, "<u4", count=1)[0])
    off = 4
    deltas = np.empty(n, np.uint32)
    tfm1 = np.empty(n, np.uint32)
    pos = 0
    while pos < n:
        cnt = min(BLOCK_SIZE, n - pos)
        d, off = _decode_stream(buf, off, cnt)
        t, off = _decode_stream(buf, off, cnt)
        deltas[pos : pos + cnt] = d
        tfm1[pos : pos + cnt] = t
        pos += cnt
    doc_ids = np.cumsum(deltas.astype(np.int64))
    return doc_ids, (tfm1 + 1).astype(np.int32)


def _gather_stream(buf: np.ndarray, data_start: np.ndarray,
                   counts: np.ndarray, out_starts: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Decode one single-block stream per row (``data_start[i]`` is row
    i's width-code byte, ``counts[i]`` its value count) into ``out`` at
    ``out_starts``; returns each row's byte length (code + payload) so the
    caller can locate the next stream."""
    codes = buf[data_start]
    _check_codes(codes)
    stream_len = np.empty(data_start.size, np.int64)
    for code, width in ((0, 0), *_WIDTH.items()):
        m = codes == code
        if not m.any():
            continue
        ds = data_start[m] + 1  # skip the code byte
        cnt = counts[m]
        intra = _intra(cnt)
        dst = np.repeat(out_starts[m], cnt) + intra
        if code == 0:  # all-equal: one little-endian u4 value per row
            val = (buf[ds].astype(np.int64)
                   | (buf[ds + 1].astype(np.int64) << 8)
                   | (buf[ds + 2].astype(np.int64) << 16)
                   | (buf[ds + 3].astype(np.int64) << 24))
            stream_len[m] = 5
            out[dst] = np.repeat(val, cnt)
            continue
        stream_len[m] = 1 + cnt * width
        src = np.repeat(ds, cnt) + intra * width
        v = buf[src].astype(np.int64)
        for b in range(1, width):
            v |= buf[src + b].astype(np.int64) << (8 * b)
        out[dst] = v
    return stream_len


def decode_postings_batch(
    buf: np.ndarray,
    offs: np.ndarray,
    dfs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of MANY single-block payloads packed in one uint8
    buffer (the merge-compaction hot path: the Zipf tail is millions of
    tiny lists; per-list Python decode dominated merge wall time).
    ``offs[i]`` is payload i's start, ``dfs[i]`` its posting count (must
    equal the stored header; all rows must have df <= BLOCK_SIZE).

    Returns ``(docs_flat:int64, tfs_flat:int32)`` concatenated in row
    order; row i occupies ``[cum_dfs[i], cum_dfs[i+1])``.
    """
    offs = np.asarray(offs, np.int64)
    dfs = np.asarray(dfs, np.int64)
    total = int(dfs.sum())
    out_starts = np.zeros(offs.size, np.int64)
    np.cumsum(dfs[:-1], out=out_starts[1:])
    deltas = np.empty(total, np.int64)
    tfm1 = np.empty(total, np.int64)
    d_start = offs + 4
    d_len = _gather_stream(buf, d_start, dfs, out_starts, deltas)
    _gather_stream(buf, d_start + d_len, dfs, out_starts, tfm1)

    # segmented cumsum: deltas -> absolute docs per row (first delta of a
    # row is its absolute first doc id)
    cs = np.cumsum(deltas)
    base = cs[out_starts] - deltas[out_starts]
    docs = cs - np.repeat(base, dfs)
    return docs, (tfm1 + 1).astype(np.int32)


def decode_values_batch(
    buf: np.ndarray,
    offs: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`decode_values` for MANY single-block value
    streams packed in one uint8 buffer (``counts[i]`` must equal the
    stored header and be <= BLOCK_SIZE). Returns the concatenated values
    (uint32-ranged int64) in row order."""
    offs = np.asarray(offs, np.int64)
    counts = np.asarray(counts, np.int64)
    out_starts = np.zeros(offs.size, np.int64)
    np.cumsum(counts[:-1], out=out_starts[1:])
    out = np.empty(int(counts.sum()), np.int64)
    _gather_stream(buf, offs + 4, counts, out_starts, out)
    return out


def _intra(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for the given segment counts."""
    total = int(counts.sum())
    starts = np.zeros(counts.size, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def decode_block(
    payload: bytes | memoryview,
    block_offsets: np.ndarray,
    block_idx: int,
    n_docs: int,
    prev_last_doc: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a single block given its byte offset (for skip-based access).

    ``prev_last_doc`` = last doc id of the preceding block (0 for the first,
    matching delta-from-zero encoding of the first doc).
    """
    buf = memoryview(payload).cast("B")
    off = int(block_offsets[block_idx])
    lo = block_idx * BLOCK_SIZE
    cnt = min(BLOCK_SIZE, n_docs - lo)
    d, off = _decode_stream(buf, off, cnt)
    t, _ = _decode_stream(buf, off, cnt)
    doc_ids = np.cumsum(d.astype(np.int64)) + prev_last_doc
    return doc_ids, (t + 1).astype(np.int32)


def encode_values(vals: np.ndarray) -> bytes:
    """Generic block-compressed uint32 stream (the ``.pos`` file analogue:
    position deltas flattened across postings, 128-value FOR blocks —
    ``Lucene50PostingsWriter`` pos stream)."""
    vals = np.asarray(vals, dtype=np.uint32)
    out: list[bytes] = [np.uint32(vals.size).tobytes()]
    for b in range((vals.size + BLOCK_SIZE - 1) // BLOCK_SIZE):
        _encode_stream(out, vals[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE])
    return b"".join(out)


def decode_values(payload: bytes | memoryview) -> np.ndarray:
    buf = memoryview(payload).cast("B")
    n = int(np.frombuffer(buf, "<u4", count=1)[0])
    out = np.empty(n, np.uint32)
    off = 4
    pos = 0
    while pos < n:
        cnt = min(BLOCK_SIZE, n - pos)
        v, off = _decode_stream(buf, off, cnt)
        out[pos : pos + cnt] = v
        pos += cnt
    return out


def first_doc(payload: bytes | memoryview) -> int:
    """First doc id of a payload without decoding (header peek)."""
    buf = memoryview(payload).cast("B")
    w = 4 if buf[4] == 0 else _width(buf[4])
    return int(np.frombuffer(buf, _DTYPE[w], count=1, offset=5)[0])


def block_offsets(payload: bytes | memoryview, n_docs: int) -> np.ndarray:
    """Compute per-block byte offsets by walking headers (cheap, no payload
    decode) — the in-memory analogue of the skip list's file pointers."""
    buf = memoryview(payload).cast("B")
    nblocks = (n_docs + BLOCK_SIZE - 1) // BLOCK_SIZE
    offs = np.empty(nblocks, np.int64)
    off = 4
    pos = 0
    for b in range(nblocks):
        offs[b] = off
        cnt = min(BLOCK_SIZE, n_docs - pos)
        for _ in range(2):  # doc stream, tf stream
            code = buf[off]
            off += 1 + (4 if code == 0 else _width(code) * cnt)
        pos += cnt
    return offs
