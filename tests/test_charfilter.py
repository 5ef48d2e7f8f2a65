"""CharFilters (lucene/analysis/common charfilter/): transforms +
BaseCharFilter offset-correction semantics, and the analyzer wrapper
producing original-text spans."""

import numpy as np
import pytest

from lucene_solr_ray.analysis import get_analyzer
from lucene_solr_ray.index.build import _invert
from lucene_solr_ray.analysis.charfilter import (
    CharFilteredAnalyzer,
    char_filter,
    html_strip_char_filter,
    mapping_char_filter,
    pattern_replace_char_filter,
)


def test_mapping_longest_match_and_offsets():
    text = "a phone with ph"
    out, corr = mapping_char_filter(text, {"ph": "f", "pho": "FO"})
    assert out == "a FOne with f"
    # token "FOne" at out[2:6] -> original "phone" span [2:7]
    assert corr.correct_scalar(2) == 2
    assert corr.correct_scalar(6) == 7
    # trailing "f" at out[12:13] -> original "ph" [13:15]
    assert corr.correct_scalar(12) == 13
    assert corr.correct_scalar(13) == 15


def test_pattern_replace_offsets():
    out, corr = pattern_replace_char_filter(
        "call 555-1234 now", r"\d{3}-\d{4}", "PHONE")
    assert out == "call PHONE now"
    # "now" at out[11:14] -> original [14:17]
    assert corr.correct_scalar(11) == 14
    assert corr.correct_scalar(14) == 17
    # group expansion
    out2, _ = pattern_replace_char_filter("ab", r"(a)(b)", r"\2\1")
    assert out2 == "ba"


def test_html_strip():
    text = '<p class="x">bold &amp; <b>beautiful</b></p><!-- c -->'
    out, corr = html_strip_char_filter(text)
    assert out.split() == ["bold", "&", "beautiful"]
    i = out.index("bold")
    assert corr.correct_scalar(i) == text.index("bold")
    j = out.index("beautiful")
    assert corr.correct_scalar(j) == text.index("beautiful")
    # script/style subtrees vanish entirely; numeric entities decode
    out2, _ = html_strip_char_filter(
        "a<script>var x = '<b>'</script>b &#65; &#x42;")
    assert out2.split() == ["a", "b", "A", "B"]


def test_char_filter_factory_and_errors():
    f = char_filter("mapping", {"x": "y"})
    assert f("ax")[0] == "ay"
    with pytest.raises(ValueError):
        char_filter("nope")


def test_charfiltered_analyzer_spans_point_at_original():
    ana = CharFilteredAnalyzer(
        get_analyzer("standard"),
        [char_filter("html_strip")],
    )
    texts = ["<p>Hello <b>world</b></p>", "plain text"]
    vocab, codes, doc_idx, pos, starts, ends = \
        ana.tokens_batch_factorized(texts)
    got = {}
    for c, d, s, e in zip(codes, doc_idx, starts, ends):
        t = vocab[c]
        got.setdefault(int(d), []).append((t, texts[int(d)][int(s):int(e)]))
    # every token's corrected span slices to the token in the ORIGINAL
    for d, pairs in got.items():
        for tok, sliced in pairs:
            assert sliced.lower() == tok, (d, tok, sliced)
    # plain tokens() path matches the filtered text
    assert ana.tokens("<i>Cats</i> & dogs") == ["cats", "dogs"]
    # per-doc positions keep the stop-word gap, as the stream does
    assert ana.tokens_with_positions("<i>the</i> cat") == (["cat"], [1])


def test_chain_composition():
    ana = CharFilteredAnalyzer(
        get_analyzer("standard_nostop"),
        [char_filter("html_strip"),
         char_filter("mapping", {"colour": "color"})],
    )
    text = "<p>the colour red</p>"
    vocab, codes, doc_idx, pos, starts, ends = \
        ana.tokens_batch_factorized([text])
    m = dict(zip([vocab[c] for c in codes],
                 zip(starts.tolist(), ends.tolist())))
    assert "color" in m
    s, e = m["color"]
    assert text[s:e] == "colour"


def test_offsets_index_the_inner_analyzers_terms():
    """Storing offsets changes no term: the wrapper's spans come from the
    inner analyzer's own stream, corrected through the chain; an inner
    analyzer whose stream has no spans is refused by name."""
    texts = ["<b>fooBar_baz</b> qux", "<i>Running</i> &amp; runs"]
    html = [char_filter("html_strip")]
    for inner in ("standard", "english"):
        ana = CharFilteredAnalyzer(get_analyzer(inner), html)
        plain = _invert(texts, ana, 0, want_positions=True)
        off = _invert(texts, ana, 0, want_positions=True,
                      want_offsets=True)
        assert sorted(off[0]) == sorted(plain[0])
        vocab, codes, doc_idx, _, starts, ends = \
            ana.tokens_batch_factorized(texts)
        for c, d, s, e in zip(codes, doc_idx, starts, ends):
            want = get_analyzer(inner).tokens(texts[d][s:e])
            assert want == [vocab[c]], (inner, vocab[c], texts[d][s:e])
    for inner in ("simple", "code", "whitespace"):
        ana = CharFilteredAnalyzer(get_analyzer(inner), html)
        with pytest.raises(ValueError, match="char spans"):
            _invert(texts, ana, 0, want_positions=True, want_offsets=True)
