"""Property-based tests (hypothesis) — the RandomPostingsTester analogue
with generated rather than seeded inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.codec import (
    BLOCK_SIZE,
    decode_postings,
    encode_postings,
    float_to_byte315,
)
from lucene_solr_ray.codec.postings import (
    decode_values,
    encode_values,
    first_doc,
)
from lucene_solr_ray.analysis import (
    StandardAnalyzer,
    simple_lowercase,
    tokenize,
)
from lucene_solr_ray.analysis.fast import (
    ascii_token_spans,
    ascii_token_stream,
)
from lucene_solr_ray.analysis.tokenizer import (
    _build_pattern,
    tokenize_with_spans,
)


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
    vocab, codes, _, _, _, _ = ascii_token_stream([s])
    assert [vocab[c] for c in codes] == tokenize(s)


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="aZq09.':,;_ \n-", max_size=80))
def test_ascii_token_spans_equal_regex_spans(s):
    """Mixed-case text with '_'-only runs, joiners and runs at both ends
    of the buffer: the mask pass finds the regex's token spans."""
    for text in (s, "_" + s + "_", "A" + s + "9", "__ " + s + " __"):
        starts, ends = ascii_token_spans(text.encode("ascii"))
        assert list(zip(starts.tolist(), ends.tolist())) == \
            [m.span() for m in _build_pattern().finditer(text)]


# text pieces heavy in the joining characters (MidNumLet . ', MidLetter
# :, MidNum , ;, ExtendNumLet _) and digits, stop words, and runs whose
# widths sit on both sides of 64 and of the 255 length cap
_PIECES = st.one_of(
    st.text(alphabet="aZq09.':,;_ ", min_size=1, max_size=12),
    st.sampled_from([" ", "\n", "the", "The", "and", "3.14", "1,000",
                     "a:b", "x_1", "o'neil", "__", "..", "-"]),
    st.builds(lambda c, n: c * n, st.sampled_from("aZ7_"),
              st.sampled_from([63, 64, 65, 254, 255, 256])),
)
# non-ASCII pieces: letters, a combining mark, CJK and half-width
# katakana; non-ASCII chars beside joiners and '_'; Extend / Format chars
# right after ASCII whitespace; non-ASCII whitespace (NBSP, U+3000) and
# CRLF; and tokens around the 255 length cap that mix ASCII and
# non-ASCII chars
_NON_ASCII = st.one_of(
    st.sampled_from(["é", "Жук", "日本", "ß", "İ", "ﬁ", "\u0301", "café's",
                     "ｶﾀ", "é.x", "x.é", "1,٣", "٣,1", "_é_", "a_é",
                     " \u0301x", "\n\u00adx", " \u200bx", "\u00a0",
                     "a\u00a0b", "\u3000", "日\u3000本", "\r\n", "é\r\nx"]),
    st.builds(lambda n, k: "a" * k + "é" + "a" * (n - 1 - k),
              st.sampled_from([254, 255, 256]),
              st.sampled_from([0, 1, 120, 253])),
)


@st.composite
def _docs(draw):
    docs = []
    for _ in range(draw(st.integers(0, 6))):
        pieces = draw(st.lists(_PIECES, max_size=12))
        if draw(st.integers(0, 3)) == 0:  # a mixed non-ASCII document
            for _ in range(draw(st.integers(1, 4))):
                pieces.insert(draw(st.integers(0, len(pieces))),
                              draw(_NON_ASCII))
        docs.append("".join(pieces))
    return docs


@settings(max_examples=120, deadline=None)
@given(texts=_docs())
def test_token_stream_equals_per_doc_spans_property(texts):
    """StandardAnalyzer's batch stream == per document
    ``tokenize_with_spans`` + the stop filter: tokens, positions and
    char spans; the vocabulary is duplicate-free."""
    ana = StandardAnalyzer()
    vocab, codes, doc_idx, pos, starts, ends = \
        ana.tokens_batch_factorized(texts)
    assert len(set(vocab)) == len(vocab)
    got = sorted(zip(doc_idx.tolist(), pos.tolist(),
                     [vocab[c] for c in codes], starts.tolist(),
                     ends.tolist()))
    want = []
    for i, text in enumerate(texts):
        for t, p, s, e in zip(*tokenize_with_spans(simple_lowercase(text))):
            if t not in ana.stop_words:
                want.append((i, p, t, s, e))
    assert got == sorted(want)


@settings(max_examples=40, deadline=None)
@given(st.text(max_size=120))
def test_tokenizer_never_crashes_and_tokens_nonempty(s):
    for t in tokenize(s):
        assert t and len(t) <= 255


@st.composite
def block_lists(draw):
    """1-30 lists of 1 to 5 * BLOCK_SIZE values each (so lists of one and
    of several blocks, with short last blocks), drawn so that every
    width (1, 2 and 4 bytes) and all-equal runs occur; returns the lists
    laid end to end as (docs, tfs, starts, ends) with docs ascending per
    list."""
    counts = draw(st.lists(st.one_of(st.integers(1, BLOCK_SIZE),
                                     st.integers(1, 5 * BLOCK_SIZE)),
                           min_size=1, max_size=30))
    docs, tfs = [], []
    for n in counts:
        gap = draw(st.sampled_from([1, 200, 70_000, 1 << 20]))
        tf = draw(st.sampled_from([1, 2, 300, 70_000]))
        if draw(st.booleans()):  # all-equal deltas and tfs
            docs.append(gap * np.arange(1, n + 1, dtype=np.int64))
            tfs.append(np.full(n, tf, np.int64))
        else:
            seed = draw(st.integers(0, 1 << 16))
            rng = np.random.default_rng(seed)
            docs.append(np.cumsum(rng.integers(1, gap + 1, n)))
            tfs.append(rng.integers(1, tf + 1, n))
    counts = np.asarray(counts, np.int64)
    starts = np.zeros(counts.size, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.concatenate(docs), np.concatenate(tfs), starts, starts + counts


def _gathered(vals: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> np.ndarray:
    return np.concatenate([vals[s:e] for s, e in zip(starts, ends)])


@settings(max_examples=60, deadline=None)
@given(lists=block_lists(), subset_stride=st.integers(1, 3))
def test_postings_batch_packed_equals_per_term(lists, subset_stride):
    """encode_postings_batch_packed writes, for contiguous AND
    non-contiguous subsets of single- and multi-block lists, exactly the
    concatenated encode_postings payloads (one width rule for every
    writer), as encode_postings_lists does for the same lists laid end
    to end but for its df == 1 lists, which take no bytes;
    decode_postings_batch reads them back."""
    from lucene_solr_ray.codec.postings import (
        decode_postings_batch,
        encode_postings_batch_packed,
        encode_postings_lists,
    )

    docs, tfs, starts, ends = lists
    sub = np.arange(0, starts.size, subset_stride)
    buf, lens = encode_postings_batch_packed(docs, tfs, starts[sub],
                                             ends[sub])
    want = [encode_postings(docs[s:e], tfs[s:e])[0]
            for s, e in zip(starts[sub], ends[sub])]
    assert buf.tobytes() == b"".join(want)
    assert lens.tolist() == [len(p) for p in want]
    d, t = _gathered(docs, starts[sub], ends[sub]), \
        _gathered(tfs, starts[sub], ends[sub])
    l_buf, l_lens = encode_postings_lists(d, t, ends[sub] - starts[sub])
    one = ends[sub] - starts[sub] == 1
    assert l_buf.tobytes() == b"".join(
        p for p, single in zip(want, one) if not single)
    assert np.array_equal(l_lens, np.where(one, 0, lens))
    offs = np.zeros(sub.size, np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    got_d, got_t = decode_postings_batch(buf, offs, ends[sub] - starts[sub])
    assert np.array_equal(got_d, d) and np.array_equal(got_t, t)


@settings(max_examples=60, deadline=None)
@given(lists=block_lists(), subset_stride=st.integers(1, 3))
def test_values_batch_packed_roundtrip_property(lists, subset_stride):
    """encode_values_batch_packed writes, for contiguous AND
    non-contiguous subsets of single- and multi-block streams, exactly
    the concatenated encode_values payloads, as encode_values_lists does
    for the same streams laid end to end; each decodes back to its
    stream, one by one and in one decode_values_batch call."""
    from lucene_solr_ray.codec.postings import (
        decode_values_batch,
        encode_values_batch_packed,
        encode_values_lists,
    )

    _, tfs, starts, ends = lists
    vals = (tfs - 1).astype(np.uint32)
    sub = np.arange(0, starts.size, subset_stride)
    buf, lens = encode_values_batch_packed(vals, starts[sub], ends[sub])
    want = [encode_values(vals[s:e]) for s, e in zip(starts[sub], ends[sub])]
    assert buf.tobytes() == b"".join(want)
    assert lens.tolist() == [len(p) for p in want]
    v = _gathered(vals, starts[sub], ends[sub])
    l_buf, l_lens = encode_values_lists(v, ends[sub] - starts[sub])
    assert l_buf.tobytes() == buf.tobytes()
    assert np.array_equal(l_lens, lens)
    offs = np.zeros(sub.size + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    for k, ti in enumerate(sub.tolist()):
        got = decode_values(buf[offs[k]:offs[k + 1]].tobytes())
        assert np.array_equal(got, vals[starts[ti]:ends[ti]])
    assert np.array_equal(
        decode_values_batch(buf, offs[:-1], ends[sub] - starts[sub]), v)


def test_code0_only_when_strictly_smaller():
    """A block is written as code 0 (one u4) if and only if its values
    are all equal and the raw block (n * width bytes) is larger than 4
    bytes — in encode_values, encode_postings and both batch encoders."""
    from lucene_solr_ray.codec.postings import (
        encode_postings_batch_packed,
        encode_values_batch_packed,
    )

    for width, v in ((1, 7), (2, 300), (4, 70_000)):
        for n in range(1, 9):
            for equal in (True, False):
                vals = np.full(n, v, np.uint32)
                if not equal:
                    if n == 1:
                        continue
                    vals[0] = v - 1
                want = equal and n * width > 4
                # after the list's count, a one-byte vInt
                one = encode_values(vals)
                assert (one[1] == 0) == want, (width, n, equal)
                assert len(one) == 1 + (5 if want else 1 + n * width)
                buf, _ = encode_values_batch_packed(vals, np.array([0]),
                                                    np.array([n]))
                assert buf.tobytes() == one
                # the tf stream of a postings list (tf - 1 = vals)
                docs = np.arange(n, dtype=np.int64) * 1000 + 1000
                pay = encode_postings(docs, vals.astype(np.int64) + 1)[0]
                t_code = 1 + (5 if n * 2 > 4 else 1 + n * 2)
                assert (pay[t_code] == 0) == want, (width, n, equal)
                buf, _ = encode_postings_batch_packed(
                    docs, vals.astype(np.int64) + 1, np.array([0]),
                    np.array([n]))
                assert buf.tobytes() == pay


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
