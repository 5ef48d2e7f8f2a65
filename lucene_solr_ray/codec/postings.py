"""Posting-list codec: delta-gapped doc IDs + term frequencies in FOR blocks.

Our own byte format, modeled on the reference's block postings layout
(``lucene/core/src/java/org/apache/lucene/codecs/lucene50/
Lucene50PostingsWriter.java:213-341``: 128-int FOR blocks chosen per-block
bit width, all-values-equal special case ``ForUtil.java:41``, delta-gapped
doc IDs ``FreqProxTermsWriterPerField.java:109-173``) but NOT byte-compatible
with Lucene — SURVEY.md §2.3 licenses our own spec.

Layout (little-endian):

    [num_docs: vInt]
    repeat per block of <=128 docs (last block may be short):
        [doc_code: uint8][doc payload][tf_code: uint8][tf payload]

    vInt: unsigned LEB128, 7 bits per byte, low group first, the high bit
    set on every byte but the last (Lucene's ``DataOutput.writeVInt``)

    payload for code == 0   : uint32 value (all values in block equal)
    payload for code == 253 : n * uint8  raw values
    payload for code == 254 : n * uint16 raw values
    payload for code == 255 : n * uint32 raw values

Widths are byte-aligned (8/16/32 bits), so every decoder is a numpy view
or gather; any other width code is rejected with ``ValueError``. A block
of n values takes the smallest width that holds its maximum, and code 0
only when it is strictly smaller: all n values equal and ``n * width > 4``.
Every writer (``encode_postings``, ``encode_values`` and the batch
encoders) applies this one rule, so the same list always encodes to the
same bytes.

Doc IDs are encoded as deltas: first = doc_id[0], then successive gaps
(always >= 1). TFs are encoded as tf-1 (tf >= 1). Value streams
(positions, char offsets, payloads) share the layout with one stream per
block: ``[count: vInt]``, then per block ``[code][payload]``.

The index writers (``encode_postings_lists``, through which the segment
build and the merge write) store no bytes at all for a ``df == 1`` list:
its one doc is the term row's ``start_doc`` and its tf the row's ``ttf``
(Lucene's ``singletonDocID``, ``Lucene50PostingsWriter.java:325-330``).
A reader that needs the bytes synthesizes ``encode_postings([start_doc],
[ttf])`` (:func:`encode_singleton`); every other list is stored as
``encode_postings`` writes it.

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


def _vint_len(counts) -> np.ndarray:
    """Each count's vInt byte length (counts are below 2**32: at most 5)."""
    c = np.asarray(counts, np.int64)
    return 1 + (c >= 1 << 7) + (c >= 1 << 14) + (c >= 1 << 21) \
        + (c >= 1 << 28)


def _vint(n: int) -> bytes:
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _read_vint(buf: memoryview, off: int) -> tuple[int, int]:
    """The vInt at ``off`` and the offset just past it."""
    n = shift = 0
    while True:
        b = buf[off]
        off += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, off
        shift += 7


def _put_vints(buf: np.ndarray, at: np.ndarray, vals: np.ndarray) -> None:
    """Write each of ``vals`` as a vInt at ``at``."""
    vals = np.asarray(vals, np.int64)
    nb = _vint_len(vals)
    for j in range(int(nb.max(initial=0))):
        m = nb > j
        buf[at[m] + j] = ((vals[m] >> (7 * j)) & 0x7F) \
            | np.where(nb[m] - 1 > j, 0x80, 0)


def _encode_stream(out: list, vals: np.ndarray) -> None:
    mx = int(vals.max())
    w = 1 if mx < 0x100 else 2 if mx < 0x10000 else 4
    if mx == int(vals.min()) and vals.size * w > 4:  # code 0 is smaller
        out.append(b"\x00" + np.uint32(mx).tobytes())
        return
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
    out: list[bytes] = [_vint(n)]
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


def encode_singleton(doc: int, tf: int) -> bytes:
    """``encode_postings([doc], [tf])[0]`` without numpy (a one-value
    block never takes code 0): the bytes a reader synthesizes for a
    ``df == 1`` row, which the index stores none of."""
    out = [b"\x01"]
    for v in (int(doc), int(tf) - 1):
        w = 1 if v < 0x100 else 2 if v < 0x10000 else 4
        out += (bytes((_CODE[w],)), v.to_bytes(w, "little"))
    return b"".join(out)


def _plan_streams(vals: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray):
    """Gather the non-empty single-block streams ``vals[starts[i]:ends[i]]``
    end to end and apply :func:`_encode_stream`'s width rule to each.
    Returns the plan :func:`_put_streams` writes and each stream's encoded
    byte length (code byte included).

    Widths come from each stream's TRUE ``[start, end)`` range: for a
    non-contiguous subset of lists, ``reduceat`` over the original starts
    would run each stream into the next subset start and fold foreign
    values in."""
    counts = ends - starts
    if counts.size and (starts[0] != 0 or not np.array_equal(
            starts[1:], ends[:-1])):
        v = vals[np.repeat(starts, counts) + _intra(counts)]
        at = _exclusive_cumsum(counts)
    else:
        v = vals[:int(ends[-1]) if counts.size else 0]
        at = starts
    mx = np.maximum.reduceat(v, at) if v.size else v
    mn = np.minimum.reduceat(v, at) if v.size else v
    w = np.where(mx < 0x100, 1, np.where(mx < 0x10000, 2, 4))
    eq = (mx == mn) & (counts * w > 4)
    return (v, at, counts, w, eq, mx), np.where(eq, 5, 1 + counts * w)


def _put_u4(buf: np.ndarray, at: np.ndarray, vals: np.ndarray) -> None:
    vals = vals.astype(np.int64)
    for b in range(4):
        buf[at + b] = (vals >> (8 * b)) & 0xFF


def _put_streams(buf: np.ndarray, at: np.ndarray, plan) -> None:
    """Write each planned stream (code byte, then payload) at ``at``."""
    v, src0, counts, w, eq, mx = plan
    buf[at[eq]] = 0
    _put_u4(buf, at[eq] + 1, mx[eq])
    for width in (1, 2, 4):
        m = (w == width) & ~eq
        if not m.any():
            continue
        buf[at[m]] = _CODE[width]
        cnt = counts[m]
        intra = _intra(cnt)
        x = v[np.repeat(src0[m], cnt) + intra]
        dst = np.repeat(at[m] + 1, cnt) + intra * width
        for b in range(width):
            buf[dst + b] = (x >> np.uint32(8 * b)) & 0xFF


def _blocks(starts: np.ndarray, ends: np.ndarray):
    """For lists ``[starts[i], ends[i])`` of a flat array: each list's
    number of ``BLOCK_SIZE`` blocks and every block's flat ``[lo, hi)``,
    lists in order, blocks in order within a list."""
    nblocks = (ends - starts + BLOCK_SIZE - 1) // BLOCK_SIZE
    lo = np.repeat(starts, nblocks) + _intra(nblocks) * BLOCK_SIZE
    return nblocks, lo, np.minimum(lo + BLOCK_SIZE, np.repeat(ends, nblocks))


def _pack(counts: np.ndarray, nblocks: np.ndarray,
          planned: list) -> tuple[np.ndarray, np.ndarray]:
    """Lay out lists as ``[count: vInt]`` followed by each block's planned
    streams in turn (``planned``: one ``(plan, byte lengths)`` per stream
    kind, from :func:`_plan_streams` over every block). Returns the
    buffer and each list's byte length."""
    blen = sum(lens for _, lens in planned)
    cum = np.zeros(blen.size + 1, np.int64)
    np.cumsum(blen, out=cum[1:])
    first = _exclusive_cumsum(nblocks)
    hdr = _vint_len(counts)
    lens = hdr + cum[first + nblocks] - cum[first]
    buf = np.empty(int(lens.sum()), np.uint8)
    _put_vints(buf, _exclusive_cumsum(lens), counts)
    # a block follows every earlier list's bytes, its own list's header
    # and its own list's earlier blocks
    at = cum[:-1] + np.repeat(np.cumsum(hdr), nblocks)
    for plan, plen in planned:
        _put_streams(buf, at, plan)
        at = at + plen
    return buf, lens


def encode_postings_batch_packed(
    docs_flat: np.ndarray,
    tfs_flat: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized encoder for MANY posting lists at once: list i is
    ``[starts[i], ends[i])`` of the flat arrays (any length; the lists
    may be a non-contiguous subset). Every 128-value block of every list
    is planned as one stream in one pass, and ALL payloads are assembled
    into one contiguous uint8 buffer (returned with per-list byte
    lengths) — no per-list Python bytes objects. Payload i is
    byte-identical to ``encode_postings`` of list i: deltas and the
    header start afresh only at a list's start."""
    docs_flat = np.asarray(docs_flat, np.int64)
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    deltas = np.empty(docs_flat.size, np.uint32)
    if docs_flat.size:
        deltas[0] = docs_flat[0]
        np.subtract(docs_flat[1:], docs_flat[:-1], out=deltas[1:],
                    casting="unsafe")
        deltas[starts] = docs_flat[starts]
    tfm1 = (np.asarray(tfs_flat, np.int64) - 1).astype(np.uint32)
    nblocks, lo, hi = _blocks(starts, ends)
    return _pack(ends - starts, nblocks, [_plan_streams(deltas, lo, hi),
                                          _plan_streams(tfm1, lo, hi)])


def encode_values_batch_packed(
    vals_flat: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized encode of MANY value payloads (positions / offsets /
    payload bits) into one contiguous uint8 buffer — the ``.pos``/``.pay``
    analogue of :func:`encode_postings_batch_packed`, with the same list
    addressing. Payload i is byte-identical to :func:`encode_values` of
    stream i. Returns (buffer, per-stream byte lengths)."""
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    nblocks, lo, hi = _blocks(starts, ends)
    return _pack(ends - starts, nblocks, [
        _plan_streams(np.asarray(vals_flat, np.uint32), lo, hi)])


def encode_postings_lists(
    docs: np.ndarray,
    tfs: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the posting lists laid end to end in ``docs``/``tfs`` (list
    i holds ``counts[i]`` postings) into one buffer, in list order, with
    each list's byte length (the segment build and the merge write
    through this one function). A ``df == 1`` list takes 0 bytes: its doc
    and tf are the term row's ``start_doc`` and ``ttf``. Every other
    list's bytes are ``encode_postings``'."""
    counts = np.asarray(counts, np.int64)
    starts = _exclusive_cumsum(counts)
    multi = np.flatnonzero(counts != 1)
    buf, m_lens = encode_postings_batch_packed(
        docs, tfs, starts[multi], starts[multi] + counts[multi])
    lens = np.zeros(counts.size, np.int64)
    lens[multi] = m_lens
    return buf, lens


def encode_values_lists(
    vals: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`encode_postings_lists` for value streams (positions,
    offsets, payload bits): bytes equal per-stream :func:`encode_values`."""
    counts = np.asarray(counts, np.int64)
    starts = _exclusive_cumsum(counts)
    return encode_values_batch_packed(vals, starts, starts + counts)


def block_bounds(
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For lists of ``counts`` values laid end to end: each list's number
    of ``BLOCK_SIZE`` blocks, and the flat index of every block's first
    and last value (per-block metadata is a gather or ``reduceat`` over
    these)."""
    starts = _exclusive_cumsum(np.asarray(counts, np.int64))
    nblocks, first, end = _blocks(starts, starts + counts)
    return nblocks, first, end - 1


def decode_postings(payload: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full posting list -> (doc_ids:int64[], tfs:int32[])."""
    buf = memoryview(payload).cast("B")  # unsigned view (arrow buffers are 'b')
    n, off = _read_vint(buf, 0)
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


def _gather_blocks(buf: np.ndarray, offs: np.ndarray, counts: np.ndarray,
                   outs: tuple) -> np.ndarray:
    """Decode MANY lists packed in one uint8 buffer, laid out as the
    encoders write them (``[count: vInt]``, then per block one stream per
    array in ``outs``): list i starts at ``offs[i]`` and holds
    ``counts[i]`` values (must equal the stored header). Each list's
    values land in every ``outs`` array at its exclusive-cumsum start,
    which is returned. Loops once per block ordinal (a list's blocks are
    found by walking its earlier ones), each pass vectorized over the
    lists that long: the lists ordered longest first, pass j takes the
    first ``live[j]`` of them."""
    offs = np.asarray(offs, np.int64)
    counts = np.asarray(counts, np.int64)
    out_starts = _exclusive_cumsum(counts)
    nblocks = (counts + BLOCK_SIZE - 1) // BLOCK_SIZE
    longest = np.argsort(-nblocks, kind="stable")
    live = np.searchsorted(-nblocks[longest], -np.arange(
        int(nblocks.max(initial=0))), "left")
    at = offs + _vint_len(counts)
    for j, n in enumerate(live):
        m = longest[:n]
        cnt = np.minimum(counts[m] - j * BLOCK_SIZE, BLOCK_SIZE)
        dst = out_starts[m] + j * BLOCK_SIZE
        a = at[m]
        for out in outs:
            a = a + _gather_stream(buf, a, cnt, dst, out)
        at[m] = a
    return out_starts


def decode_postings_batch(
    buf: np.ndarray,
    offs: np.ndarray,
    dfs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of MANY payloads packed in one uint8 buffer (the
    merge-compaction hot path: the Zipf tail is millions of tiny lists;
    per-list Python decode dominated merge wall time). ``offs[i]`` is
    payload i's start, ``dfs[i]`` its posting count (must equal the
    stored header); lists of any length.

    Returns ``(docs_flat:int64, tfs_flat:int32)`` concatenated in row
    order; row i occupies ``[cum_dfs[i], cum_dfs[i+1])``.
    """
    dfs = np.asarray(dfs, np.int64)
    deltas = np.empty(int(dfs.sum()), np.int64)
    tfm1 = np.empty(deltas.size, np.int64)
    out_starts = _gather_blocks(buf, offs, dfs, (deltas, tfm1))

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
    """Vectorized :func:`decode_values` for MANY value streams packed in
    one uint8 buffer (``counts[i]`` must equal the stored header).
    Returns the concatenated values (uint32-ranged int64) in row order."""
    out = np.empty(int(np.sum(counts)), np.int64)
    _gather_blocks(buf, offs, counts, (out,))
    return out


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.size, np.int64)
    np.cumsum(a[:-1], out=out[1:])
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
    out: list[bytes] = [_vint(vals.size)]
    for b in range((vals.size + BLOCK_SIZE - 1) // BLOCK_SIZE):
        _encode_stream(out, vals[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE])
    return b"".join(out)


def decode_values(payload: bytes | memoryview) -> np.ndarray:
    buf = memoryview(payload).cast("B")
    n, off = _read_vint(buf, 0)
    out = np.empty(n, np.uint32)
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
    _, off = _read_vint(buf, 0)
    w = 4 if buf[off] == 0 else _width(buf[off])
    return int(np.frombuffer(buf, _DTYPE[w], count=1, offset=off + 1)[0])


def block_offsets(payload: bytes | memoryview, n_docs: int) -> np.ndarray:
    """Compute per-block byte offsets by walking headers (cheap, no payload
    decode) — the in-memory analogue of the skip list's file pointers."""
    buf = memoryview(payload).cast("B")
    nblocks = (n_docs + BLOCK_SIZE - 1) // BLOCK_SIZE
    offs = np.empty(nblocks, np.int64)
    _, off = _read_vint(buf, 0)
    pos = 0
    for b in range(nblocks):
        offs[b] = off
        cnt = min(BLOCK_SIZE, n_docs - pos)
        for _ in range(2):  # doc stream, tf stream
            code = buf[off]
            off += 1 + (4 if code == 0 else _width(code) * cnt)
        pos += cnt
    return offs
