"""Property-based tests (hypothesis) — the RandomPostingsTester analogue
with generated rather than seeded inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.codec import (
    decode_postings,
    encode_postings,
    float_to_byte315,
)
from lucene_solr_ray.codec.postings import (
    decode_values,
    encode_values,
    first_doc,
)
from lucene_solr_ray.analysis import tokenize
from lucene_solr_ray.analysis.fast import ascii_tokenize_concat


@st.composite
def postings(draw):
    n = draw(st.integers(1, 400))
    gaps = draw(st.lists(st.integers(1, 1 << 20), min_size=n, max_size=n))
    docs = np.cumsum(np.asarray(gaps, np.int64)) - 1
    tfs = np.asarray(
        draw(st.lists(st.integers(1, 1 << 15), min_size=n, max_size=n)),
        np.int64,
    )
    return docs, tfs


@settings(max_examples=60, deadline=None)
@given(p=postings())
def test_postings_roundtrip_property(p):
    docs, tfs = p
    payload, last, maxtf = encode_postings(docs, tfs)
    d, f = decode_postings(payload)
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(f, tfs)
    assert first_doc(payload) == docs[0]
    assert last[-1] == docs[-1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1 << 30), min_size=0, max_size=500))
def test_values_stream_roundtrip(vals):
    arr = np.asarray(vals, np.uint32)
    np.testing.assert_array_equal(decode_values(encode_values(arr)), arr)


@settings(max_examples=40, deadline=None)
@given(st.floats(width=32, allow_nan=False))
def test_smallfloat_monotone(f):
    # encoding is monotone non-decreasing in f (order preservation is what
    # norm comparisons rely on)
    b1 = int(float_to_byte315(np.float32(f)))
    b2 = int(float_to_byte315(np.float32(f) * np.float32(2.0))) \
        if f == f and abs(f) < 1e30 else b1
    if f > 0:
        assert b2 >= b1


@settings(max_examples=80, deadline=None)
@given(st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=160,
))
def test_fast_path_equals_regex_property(s):
    fast, _, _ = ascii_tokenize_concat([s])
    assert fast == tokenize(s)


@settings(max_examples=40, deadline=None)
@given(st.text(max_size=120))
def test_tokenizer_never_crashes_and_tokens_nonempty(s):
    for t in tokenize(s):
        assert t and len(t) <= 255


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=128), min_size=1,
                    max_size=30),
    max_val=st.sampled_from([200, 70_000, 1 << 20]),
    subset_stride=st.integers(min_value=1, max_value=3),
)
def test_values_batch_packed_roundtrip_property(counts, max_val,
                                                subset_stride):
    """encode_values_batch_packed == per-stream decode_values for
    random widths, contiguous AND non-contiguous subsets."""
    from lucene_solr_ray.codec.postings import (
        decode_values,
        encode_values_batch_packed,
    )

    rng = np.random.default_rng(0)
    counts = np.asarray(counts, np.int64)
    starts = np.zeros(counts.size, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    ends = starts + counts
    vals = rng.integers(0, max_val, counts.sum()).astype(np.uint32)
    sub = np.arange(0, counts.size, subset_stride)
    buf, lens = encode_values_batch_packed(vals, starts[sub], ends[sub])
    offs = np.zeros(sub.size + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    for k, ti in enumerate(sub.tolist()):
        got = decode_values(buf[offs[k]:offs[k + 1]].tobytes())
        assert np.array_equal(got, vals[starts[ti]:ends[ti]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=400))
def test_tdigest_quantile_bounds_property(xs):
    """t-digest quantiles always lie within [min, max] and are monotone
    in q."""
    from lucene_solr_ray.stages.sketches import TDigest

    d = TDigest(100)
    d.add_array(np.asarray(xs))
    qs = [0.0, 0.1, 0.5, 0.9, 1.0]
    est = [d.quantile(q) for q in qs]
    assert all(min(xs) - 1e-9 <= e <= max(xs) + 1e-9 for e in est)
    assert all(a <= b + 1e-9 for a, b in zip(est, est[1:]))


# ---- round 5: phonetic encoder properties ----------------------------------

@given(st.text(max_size=24))
@settings(max_examples=120, deadline=None)
def test_phonetic_encoders_total_functions(s):
    """Every encoder accepts arbitrary text without raising and emits
    codes from its documented alphabet."""
    import string as _str

    from lucene_solr_ray.analysis.phonetic import soundex
    from lucene_solr_ray.analysis.phonetic2 import (
        caverphone2, cologne_phonetic, daitch_mokotoff, double_metaphone,
        metaphone, nysiis, refined_soundex)

    assert set(metaphone(s)) <= set(_str.ascii_uppercase + "0")
    assert set(soundex(s)[1:]) <= set("0123456")
    assert set(refined_soundex(s)[1:]) <= set("0123456789")
    cv = caverphone2(s)
    assert cv == "" or (len(cv) == 10
                        and set(cv) <= set(_str.ascii_letters + "1"))
    assert set(cologne_phonetic(s)) <= set("012345678")
    assert set(nysiis(s)) <= set(_str.ascii_uppercase)
    assert len(nysiis(s)) <= 6
    for code in daitch_mokotoff(s):
        assert len(code) == 6 and set(code) <= set(_str.digits)
    p, a = double_metaphone(s)
    assert len(p) <= 4 and len(a) <= 4
