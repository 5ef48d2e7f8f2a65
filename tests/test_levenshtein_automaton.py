"""Levenshtein-DFA ∩ sorted-dict fuzzy expansion (the
``LevenshteinAutomata.java`` / ``IntersectTermsEnum`` complexity class):
output identical to the brute-force scan, dictionary probes sublinear in
vocabulary size."""

import random
import time

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import build_index
from lucene_solr_ray.search import IndexSearcher
from lucene_solr_ray.search.levenshtein import (
    LevenshteinDFA,
    intersect_sorted,
)
from lucene_solr_ray.search.searcher import (
    _levenshtein_within,
    fuzzy_candidates,
    fuzzy_candidates_scan,
)
from lucene_solr_ray.sources import generate_table


def test_dfa_accepts_matches_dp():
    rng = random.Random(7)
    for _ in range(200):
        q = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 6)))
        t = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 7)))
        k = rng.randint(0, 2)
        assert LevenshteinDFA(q, k).accepts(t) == \
            _levenshtein_within(q, t, k), (q, t, k)


def test_next_valid_is_smallest_accepted():
    rng = random.Random(11)
    alpha = "abc"
    universe = [""] + ["".join(p) for n in range(1, 5)
                       for p in __import__("itertools").product(alpha,
                                                                repeat=n)]
    universe.sort()
    for _ in range(40):
        q = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 4)))
        k = rng.randint(0, 1)
        dfa = LevenshteinDFA(q, k)
        for s in ["", "a", "ab", "b", "ca", "cc"]:
            got = dfa.next_valid(s)
            want = next((u for u in universe
                         if u >= s and dfa.accepts(u)), None)
            # next_valid may return a string outside the 4-char universe;
            # it must still be >= s, accepted, and <= the universe answer
            assert got is None or (got >= s and dfa.accepts(got))
            if want is not None:
                assert got is not None and got <= want


def test_intersect_equals_bruteforce_random_vocab():
    rng = random.Random(42)
    vocab = sorted({"".join(rng.choice("abcdef")
                            for _ in range(rng.randint(1, 8)))
                    for _ in range(20000)})
    arr = np.array(vocab)
    for _ in range(60):
        q = "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 7)))
        k = rng.randint(0, 2)
        got, probes = intersect_sorted(LevenshteinDFA(q, k), arr)
        want = [t for t in vocab if _levenshtein_within(q, t, k)]
        assert got == want, (q, k)
        assert probes < len(vocab)


def test_intersect_unicode_and_duplicate_rows():
    vocab = sorted(["héllo", "hello", "hallo", "hallo", "hullo", "çava",
                    "日本語", "日本語", "日本酒", "héllp"])
    rows = np.array(vocab, dtype=object)
    uniq = sorted(set(vocab))
    for q, k in [("hello", 1), ("héllo", 1), ("日本語", 1), ("çava", 0)]:
        got, _ = intersect_sorted(LevenshteinDFA(q, k), rows)
        want = [t for t in uniq if _levenshtein_within(q, t, k)]
        assert got == want, (q, k)


def test_million_term_vocab_sublinear_probes():
    """The verdict's bar: 10^6-term vocab, automaton output equivalent
    to brute force, probes sublinear, latency far under a linear scan."""
    rng = random.Random(42)
    big = sorted({f"{rng.choice('abcdefghijklmnop')}{rng.randint(0, 10**9):09d}"
                  for _ in range(1_000_000)})
    # plant near-neighbours of the query so completeness is exercised
    q = "a123456789"
    planted = sorted({q, "a123456780", "aa123456789", "a12345678",
                      "b123456789", "a1234x6789"})
    vocab = np.array(sorted(set(big) | set(planted)))
    t0 = time.time()
    got, probes = intersect_sorted(LevenshteinDFA(q, 2), vocab)
    dt = time.time() - t0
    # soundness: everything returned is within 2 edits
    assert all(_levenshtein_within(q, t, 2) for t in got)
    # completeness: every planted near-term is found
    assert set(planted) <= set(got)
    # sublinearity: probes are a vanishing fraction of V, and wall time
    # is far below any linear scan of 10^6 Python strings
    assert probes < vocab.size // 50, probes
    assert dt < 5.0, dt


def test_reader_paths_agree_with_pruned_scan(tmp_path_factory, ray_session):
    """fuzzy_candidates (automaton) == fuzzy_candidates_scan (pruned
    O(V) oracle) on a real index."""
    d = tmp_path_factory.mktemp("lev_corpus")
    pq.write_table(generate_table(500, seed=9), str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("lev_index"))
    build_index(str(d), out, rows_per_partition=250)
    s = IndexSearcher(out)
    for word, k in [("tabel", 2), ("return", 1), ("vlaue", 2),
                    ("xyzzy", 1), ("", 1)]:
        got, probes = fuzzy_candidates(s.reader, word, k)
        want, _ = fuzzy_candidates_scan(s.reader, word, k)
        assert got == want, (word, k)


def test_damerau_osa_equivalence_bruteforce():
    """DamerauLevenshteinDFA ∩ dict == brute-force OSA scan — the
    reference's transpositions=true FuzzyQuery language."""
    import random

    from lucene_solr_ray.search.levenshtein import (DamerauLevenshteinDFA,
                                                    intersect_sorted,
                                                    osa_within)

    rng = random.Random(13)
    vocab = sorted({"".join(rng.choice("abcde")
                            for _ in range(rng.randint(1, 9)))
                    for _ in range(20000)})
    arr = np.array(vocab)
    for qterm in ["abc", "abcd", "ecadb", "aa", "dcbae", "bbbb"]:
        for k in (1, 2):
            got, probes = intersect_sorted(
                DamerauLevenshteinDFA(qterm, k), arr)
            want = [t for t in vocab if osa_within(qterm, t, k)]
            assert got == want, (qterm, k)
            assert probes <= len(vocab)


def test_transposition_distance_semantics():
    """'ab'→'ba' is 1 OSA edit but 2 plain-Levenshtein edits; the two
    automata must disagree exactly there."""
    from lucene_solr_ray.search.levenshtein import (DamerauLevenshteinDFA,
                                                    LevenshteinDFA)

    osa = DamerauLevenshteinDFA("ab", 1)
    plain = LevenshteinDFA("ab", 1)
    assert osa.accepts("ba") and not plain.accepts("ba")
    # both accept at k=2
    assert LevenshteinDFA("ab", 2).accepts("ba")
    # transposed middle pair: 'acbd' within 1 of 'abcd' only under OSA
    assert DamerauLevenshteinDFA("abcd", 1).accepts("acbd")
    assert not LevenshteinDFA("abcd", 1).accepts("acbd")


def test_fuzzy_query_transpositions_flag(tmp_path_factory, ray_session):
    """FuzzyQuery(transpositions=True) expands through the OSA
    automaton on a real index; default stays plain Levenshtein."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.search import IndexSearcher
    from lucene_solr_ray.search.query import FuzzyQuery

    d = tmp_path_factory.mktemp("osa_corpus")
    docs = ["from here", "form letter", "foam pad", "farm house"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "content": pa.array(docs, pa.string())}),
        str(d / "c.parquet"))
    out = str(tmp_path_factory.mktemp("osa_index"))
    build_index(str(d), out, rows_per_partition=2)
    s = IndexSearcher(out)
    # 'from'→'form' is one transposition: k=1 finds it only with OSA
    plain = set(s._rewrite_terms(FuzzyQuery("from", 1)))
    osa = set(s._rewrite_terms(FuzzyQuery("from", 1, transpositions=True)))
    assert "form" in osa and "form" not in plain
    assert "from" in plain and "from" in osa
