"""Golden-token tests for the StandardAnalyzer chain.

Mirrors the reference test strategy (SURVEY.md §5): golden tokens covering
UAX#29 word-break behavior (``StandardTokenizerImpl.jflex:121-199``), the
255-char over-long drop (``StandardTokenizer.java:145-167``), the 33-word stop
set (``StopAnalyzer.java:42-48``), and position-gap accounting
(``FilteringTokenFilter.java:50-58``).
"""

import random
import string

import pytest

from lucene_solr_ray.analysis import (
    ENGLISH_STOP_WORDS,
    StandardAnalyzer,
    SimpleRegexAnalyzer,
    get_analyzer,
    simple_lowercase,
    tokenize,
    tokenize_with_positions,
)
from lucene_solr_ray.analysis.fast import ascii_token_stream

GOLDEN = [
    # (input, expected tokens from the raw tokenizer — no lowercase/stop)
    ("Hello, World!", ["Hello", "World"]),
    ("foo_bar camelCase snake_case", ["foo_bar", "camelCase", "snake_case"]),
    ("3.14 0x1F 1,234 10:30", ["3.14", "0x1F", "1,234", "10", "30"]),
    ("a:b x:1", ["a:b", "x", "1"]),  # colon joins letter-letter only (MidLetter)
    ("can't won't", ["can't", "won't"]),  # Single_Quote WB6/7
    ("foo.bar example.com 1.2.3", ["foo.bar", "example.com", "1.2.3"]),
    ("x..y a..b", ["x", "y", "a", "b"]),  # double mid chars never join
    ("__init__ ___ _ a_1 1_2", ["__init__", "a_1", "1_2"]),  # ExtendNumLet; bare _ runs dropped
    ("3.14foo C3PO", ["3.14foo", "C3PO"]),  # segment concatenation (WB9/10)
    ("int main() { return 0; }", ["int", "main", "return", "0"]),
    ("a.2 2.a", ["a", "2", "2", "a"]),  # '.' needs same-kind neighbors
    ("", []),
    ("...", []),
    ("日本語", ["日", "本", "語"]),  # Han: one token per ideograph (WB14)
    ("テスト", ["テスト"]),  # Katakana run (WB13)
    ("ひらがな", ["ひ", "ら", "が", "な"]),  # Hiragana: per char
    ("한국어 café", ["한국어", "café"]),  # Hangul+accents fold into ALetter
]


@pytest.mark.parametrize("text,expected", GOLDEN)
def test_golden_tokens(text, expected):
    assert tokenize(text) == expected


def test_max_token_length_drop_and_position_gap():
    long = "x" * 300
    toks, pos = tokenize_with_positions(f"the {long} b")
    assert toks == ["the", "b"]
    assert pos == [0, 2]  # dropped token leaves a position gap


def test_over_long_boundary():
    assert tokenize("y" * 255) == ["y" * 255]
    assert tokenize("y" * 256) == []


def test_standard_analyzer_chain():
    sa = StandardAnalyzer()
    assert sa.tokens("The quick brown fox jumps over the lazy dog") == [
        "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
    ]
    # stop words create position gaps but are excluded from emitted tokens
    toks, pos = sa.tokens_with_positions("a quick THE fox")
    assert toks == ["quick", "fox"]
    assert pos == [1, 3]


def test_stop_set_is_exactly_lucene_33():
    assert len(ENGLISH_STOP_WORDS) == 33
    assert "the" in ENGLISH_STOP_WORDS and "return" not in ENGLISH_STOP_WORDS


def test_simple_lowercase_is_per_codepoint():
    # final sigma: Java Character.toLowerCase maps Σ->σ everywhere
    assert simple_lowercase("ΑΣ") == "ασ"
    assert simple_lowercase("İ") == "i"  # simple mapping, no combining dot
    assert simple_lowercase("HELLO") == "hello"


def test_fast_path_matches_regex_on_random_ascii():
    rng = random.Random(1234)
    alphabet = (
        string.ascii_letters + string.digits + " .,;:'_-()[]{}\n\t/*+=<>\"!&|\\~?"
    )
    for _ in range(500):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 150)))
        vocab, codes, _, _, _, _ = ascii_token_stream([s])
        assert [vocab[c] for c in codes] == tokenize(s), repr(s)


def test_batch_tokenize_doc_attribution_and_positions():
    sa = StandardAnalyzer()
    texts = ["the quick fox", "", "jump the 3.14"]
    toks, doc_idx, pos = sa.tokens_batch(texts)
    assert toks == ["quick", "fox", "jump", "3.14"]
    assert doc_idx.tolist() == [0, 0, 2, 2]
    assert pos.tolist() == [1, 2, 0, 2]


def test_batch_matches_per_doc_on_mixed_unicode():
    sa = StandardAnalyzer()
    texts = ["Hello WORLD", "日本語 テスト the", "café 3.14"]
    toks, doc_idx, _ = sa.tokens_batch(texts)
    got = sorted(zip(doc_idx.tolist(), toks))
    want = sorted(
        (i, t) for i, text in enumerate(texts) for t in sa.tokens(text)
    )
    assert got == want


def test_simple_regex_analyzer_matches_duckdb():
    duckdb = pytest.importorskip("duckdb")
    ana = SimpleRegexAnalyzer()
    rows = [(0, "The quick brown_fox 3.14 jumps"), (1, "hello, WORLD; x_1")]
    con = duckdb.connect()
    con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
    con.executemany("INSERT INTO documents VALUES (?, ?)", rows)
    sql = ana.sql_tokens_cte()
    got = con.execute(
        f"SELECT doc_id, term FROM ({sql}) ORDER BY doc_id, term"
    ).fetchall()
    want = sorted(
        (i, t) for i, text in rows for t in ana.tokens(text)
    )
    assert got == want


def test_registry_reuse():
    assert get_analyzer("standard") is get_analyzer("standard")


def test_format_extend_absorbed_into_tokens():
    # WB4: Extend (combining marks) and Format (e.g. ZWNJ) chars are
    # absorbed into the token and kept in its text, as JFlex's
    # [Format Extend]* suffixes do
    t = tokenize("café con")  # e + combining acute
    assert t == ["café", "con"]
    t2 = tokenize("ab‌cd")  # ZWNJ between letters (Extend)
    assert t2 == ["ab‌cd"]


def test_fullwidth_digits_and_nl():
    assert tokenize("ＡＢ12 Ⅻ") == ["ＡＢ12", "Ⅻ"]  # fullwidth + Nl roman


def test_ngram_and_shingle_analyzers():
    from lucene_solr_ray.analysis import NGramAnalyzer, ShingleAnalyzer

    ng = NGramAnalyzer(2, 3)
    assert ng.tokens("abcd") == ["ab", "bc", "cd", "abc", "bcd"]
    sh = ShingleAnalyzer(2)
    assert sh.tokens("quick brown fox") == [
        "quick", "brown", "fox", "quick brown", "brown fox",
    ]
    sh2 = ShingleAnalyzer(2, output_unigrams=False)
    assert sh2.tokens("quick brown fox") == ["quick brown", "brown fox"]
    # an index built with the shingle analyzer answers "phrase-ish" terms
    from lucene_solr_ray.analysis import get_analyzer
    assert get_analyzer("ngram") is get_analyzer("ngram")


def test_edge_ngram_analyzer():
    from lucene_solr_ray.analysis import get_analyzer

    ana = get_analyzer("edge_ngram")
    assert ana.tokens("search") == ["se", "sea", "sear", "searc", "search"]
    # short token below min_gram passes through whole
    assert ana.tokens("a b") == ["b"]  # 'a' is a stopword; 'b' < min_gram
    # long token keeps the full surface form too
    toks = ana.tokens("extraordinarily")
    assert toks[0] == "ex" and toks[-1] == "extraordinarily"


def test_common_grams_analyzer():
    from lucene_solr_ray.analysis.analyzers import CommonGramsAnalyzer

    ana = CommonGramsAnalyzer()  # standard_nostop base, English commons
    toks, pos = ana.tokens_with_positions("to be or not to be")
    # every adjacent pair touches a common word -> gram after each unigram
    assert toks == [
        "to", "to_be", "be", "be_or", "or", "or_not", "not", "not_to",
        "to", "to_be", "be",
    ]
    # grams overlap the FIRST token of the pair (posIncr 0)
    assert pos == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]

    # no common word adjacent -> unigrams only
    assert ana.tokens("hash join") == ["hash", "join"]
    # one side common is enough
    assert ana.tokens("the parquet") == ["the", "the_parquet", "parquet"]

    q = CommonGramsAnalyzer(output_unigrams=False)
    assert q.tokens("the quick fox") == ["the_quick"]


def test_url_email_tokenizer():
    """UAX29URLEmailTokenizer analogue: URLs/emails stay whole."""
    from lucene_solr_ray.analysis import get_analyzer

    an = get_analyzer("url_email")
    toks, pos = an.tokens_with_positions(
        "Visit https://Ray.io/docs, mail Dev@Example.CO or www.a-b.org.")
    assert "https://ray.io/docs" in toks
    assert "dev@example.co" in toks
    assert "www.a-b.org" in toks
    # surrounding words still tokenize normally
    assert "visit" in toks and "mail" in toks
    # positions are strictly increasing in text order
    assert pos == sorted(pos)
    # plain text passes through like the standard chain
    assert an.tokens("no links here") == ["no", "links", "here"]
