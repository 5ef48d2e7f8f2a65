"""Seeded postings round-trip + norm byte codec tests.

Mirrors the reference codec conformance strategy
(``BasePostingsFormatTestCase.java:102-126`` /
``RandomPostingsTester.java:215-262``): postings generated
deterministically from a seed, round-tripped through the codec, and checked
on full decode and per-block (skip) decode; SmallFloat checked against the
reference's documented golden values (``SmallFloat.java:74-77``).
"""

import numpy as np
import pytest

from lucene_solr_ray.codec import (
    BLOCK_SIZE,
    NORM_TABLE,
    block_offsets,
    byte315_to_float,
    decode_block,
    decode_postings,
    encode_norm,
    encode_postings,
    float_to_byte315,
)


def seed_postings(seed: int, df: int, maxdoc: int):
    rng = np.random.default_rng(seed)
    docs = np.sort(rng.choice(maxdoc, size=df, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 50, size=df).astype(np.int64)
    # make some blocks all-equal tf to hit the ALL_VALUES_EQUAL path
    if df > 300:
        tfs[:256] = 7
    return docs, tfs


@pytest.mark.parametrize(
    "seed,df,maxdoc",
    [
        (1, 1, 100),          # singleton (Lucene50PostingsWriter.java:325-330)
        (2, 5, 10),           # dense tiny
        (3, 128, 10_000),     # exactly one full block
        (4, 129, 10_000),     # block + 1 tail
        (5, 1000, 1_000_000), # multi-block sparse (large deltas)
        (6, 5000, 5001),      # dense: deltas all 1 -> all-equal blocks
        (7, 777, 1 << 33),    # doc ids beyond int32
    ],
)
def test_roundtrip(seed, df, maxdoc):
    docs, tfs = seed_postings(seed, df, maxdoc)
    payload, block_last, block_maxtf = encode_postings(docs, tfs)
    got_docs, got_tfs = decode_postings(payload)
    np.testing.assert_array_equal(got_docs, docs)
    np.testing.assert_array_equal(got_tfs, tfs)
    # block metadata
    nblocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert block_last.size == nblocks
    assert block_last[-1] == docs[-1]
    for b in range(nblocks):
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, df)
        assert block_maxtf[b] == tfs[lo:hi].max()
        assert block_last[b] == docs[hi - 1]


def test_block_skip_decode():
    docs, tfs = seed_postings(11, 1000, 500_000)
    payload, block_last, _ = encode_postings(docs, tfs)
    offs = block_offsets(payload, len(docs))
    for b in range(len(offs)):
        prev = 0 if b == 0 else int(block_last[b - 1])
        d, t = decode_block(payload, offs, b, len(docs), prev)
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, len(docs))
        np.testing.assert_array_equal(d, docs[lo:hi])
        np.testing.assert_array_equal(t, tfs[lo:hi])


def test_compression_is_real():
    docs = np.arange(0, 100_000, 7, dtype=np.int64)  # deltas all 7
    tfs = np.ones(docs.size, np.int64)
    payload, _, _ = encode_postings(docs, tfs)
    # all-equal blocks: ~5 bytes per stream per block
    assert len(payload) < docs.size  # far smaller than 4 bytes/doc


def test_unknown_width_code_rejected():
    """Every decoder raises on a width code outside {0, 253, 254, 255}
    instead of returning values it never read."""
    from lucene_solr_ray.codec.postings import (
        decode_postings_batch,
        decode_values,
        decode_values_batch,
        first_doc,
    )

    pad = bytes(64)
    u4 = np.uint32(3).tobytes()
    bad_doc = u4 + bytes([7]) + pad                       # doc stream code 7
    bad_tf = u4 + bytes([253, 1, 2, 3]) + bytes([7]) + pad  # tf stream code 7
    for payload in (bad_doc, bad_tf):
        buf = np.frombuffer(payload, np.uint8)
        with pytest.raises(ValueError, match="width code 7"):
            decode_postings(payload)
        with pytest.raises(ValueError, match="width code 7"):
            block_offsets(payload, 3)
        with pytest.raises(ValueError, match="width code 7"):
            decode_block(payload, np.array([4]), 0, 3, 0)
        with pytest.raises(ValueError, match="width code 7"):
            decode_postings_batch(buf, np.array([0]), np.array([3]))
    buf = np.frombuffer(bad_doc, np.uint8)
    with pytest.raises(ValueError, match="width code 7"):
        first_doc(bad_doc)
    with pytest.raises(ValueError, match="width code 7"):
        decode_values(bad_doc)
    with pytest.raises(ValueError, match="width code 7"):
        decode_values_batch(buf, np.array([0]), np.array([3]))


def test_smallfloat_golden():
    # documented extremes (SmallFloat.java:74-77)
    assert byte315_to_float(np.array([1], np.uint8))[0] == pytest.approx(5.820766e-10)
    assert byte315_to_float(np.array([255], np.uint8))[0] == pytest.approx(7.5161928e9)
    assert byte315_to_float(np.array([0], np.uint8))[0] == 0.0
    # round-trip: encode(decode(b)) == b for all bytes
    b = np.arange(256, dtype=np.uint8)
    f = byte315_to_float(b)
    np.testing.assert_array_equal(float_to_byte315(f), b)
    # negatives and zero clamp to 0; subnormal positives to 1
    assert float_to_byte315(np.array([-1.0], np.float32))[0] == 0
    assert float_to_byte315(np.array([0.0], np.float32))[0] == 0
    assert float_to_byte315(np.array([1e-12], np.float32))[0] == 1
    # overflow clamps to 255
    assert float_to_byte315(np.array([1e12], np.float32))[0] == 255


def test_norm_encoding_matches_bm25_semantics():
    # norm byte for length L = floatToByte315(1/sqrt(L)); NORM_TABLE decodes
    # back to ~L (quantized)
    lengths = np.array([1, 2, 3, 10, 100, 1000, 255], np.int64)
    nb = encode_norm(lengths)
    decoded = NORM_TABLE[nb]
    # quantization error bounded by the 3-bit mantissa (decode 1/f^2 doubles
    # relative error: length 3 decodes to 4.0 — in the reference as well)
    assert np.all(np.abs(decoded - lengths) / lengths < 0.5)
    assert decoded[0] == 1.0 and decoded[2] == 4.0
    # zero-length field: inf -> byte 255
    assert encode_norm(np.array([0]))[0] == 255


def test_packed_encoder_noncontiguous_subset_tight_widths():
    """encode_postings_batch_packed over a NON-contiguous term subset
    (build_segment interleaves big terms) must pick widths from each
    term's true [start, end) range, not run-to-next-start (r2 ADVICE:
    foreign deltas inflated widths; decode was correct but payloads
    larger than needed)."""
    import numpy as np

    from lucene_solr_ray.codec.postings import (
        decode_postings,
        encode_postings_batch_packed,
    )

    counts_all = np.array([3, 2, 4, 1, 5])
    starts_all = np.zeros(5, np.int64)
    np.cumsum(counts_all[:-1], out=starts_all[1:])
    ends_all = starts_all + counts_all
    docs_flat = np.zeros(counts_all.sum(), np.int64)
    docs_flat[starts_all[0]:ends_all[0]] = [1, 2, 3]
    docs_flat[starts_all[1]:ends_all[1]] = [7, 9]
    docs_flat[starts_all[2]:ends_all[2]] = [100000, 200000, 300000, 400000]
    docs_flat[starts_all[3]:ends_all[3]] = [42]
    docs_flat[starts_all[4]:ends_all[4]] = [5, 6, 7, 8, 9]
    tfs = np.ones(counts_all.sum(), np.int64)
    sub = np.array([0, 2, 4])  # skips terms 1 and 3 -> non-contiguous
    buf, lens = encode_postings_batch_packed(
        docs_flat, tfs, starts_all[sub], ends_all[sub])
    offs = np.zeros(4, np.int64)
    np.cumsum(lens, out=offs[1:])
    for k, ti in enumerate(sub):
        d, t = decode_postings(buf[offs[k]:offs[k + 1]].tobytes())
        assert np.array_equal(d, docs_flat[starts_all[ti]:ends_all[ti]])
        assert np.array_equal(t, tfs[starts_all[ti]:ends_all[ti]]
                              .astype(np.int32))
    # term 0 (deltas 1,1,1 / tf-1 = 0) must get 1-byte widths despite the
    # 4-byte term 2 sitting between it and the next subset member
    assert lens[0] == 4 + 1 + 3 * 1 + 1 + 3 * 1
