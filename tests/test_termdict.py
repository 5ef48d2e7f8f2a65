"""Front-coded term dictionary (search/termdict.py — the BlockTree
shared-prefix memory story): identical query results in both modes +
bytes/term measurement."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.search.termdict import FrontCodedTerms, NumpyTerms


def _rand_terms(n, seed=0):
    rng = np.random.default_rng(seed)
    prefixes = ["inter", "pre", "post", "meta", "con", "trans", "sub", ""]
    roots = ["act", "form", "ject", "mit", "port", "duce", "struct",
             "scribe", "dict", "vene"]
    sufs = ["", "s", "ing", "ed", "ion", "ions", "er", "ers", "ive"]
    out = set()
    while len(out) < n:
        out.add(rng.choice(prefixes) + rng.choice(roots)
                + rng.choice(sufs) + str(rng.integers(0, n)))
    return sorted(out)


def test_frontcoded_roundtrip_and_searchsorted():
    terms = _rand_terms(5000)
    # duplicates (multi-chunk rows) included
    with_dups = sorted(terms + terms[::7])
    fc = FrontCodedTerms(with_dups)
    npd = NumpyTerms(np.asarray(with_dups, dtype=object))
    assert len(fc) == len(with_dups)
    for i in range(0, len(with_dups), 13):
        assert fc[i] == with_dups[i]
    probes = terms[::11] + ["", "zzzz", terms[5] + "x", "a"]
    for t in probes:
        for side in ("left", "right"):
            assert fc.searchsorted(t, side) == npd.searchsorted(t, side), \
                (t, side)
    assert list(fc.iter_range(100, 150)) == with_dups[100:150]
    # memory: front-coded must be several times smaller
    assert fc.nbytes() < npd.nbytes() / 3


def test_compact_reader_rank_identical(tmp_path_factory, ray_session):
    from lucene_solr_ray.index import build_index, merge_index
    from lucene_solr_ray.search import IndexSearcher, TermQuery, parse_query

    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(500)] + ["shared"] * 1
    docs = [" ".join(rng.choice(words, 30)) for _ in range(400)]
    d = tmp_path_factory.mktemp("fc_src")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "content": pa.array(docs),
    }), str(d / "docs.parquet"))
    out = str(tmp_path_factory.mktemp("fc_idx") / "idx")
    build_index(str(d), out, text_field="content",
                rows_per_partition=100)
    merge_index(out)
    plain = IndexSearcher(out)
    compact = IndexSearcher(out, compact_terms=True)
    assert compact.reader.terms is None  # really compact
    from lucene_solr_ray.analysis import get_analyzer

    ana = get_analyzer("standard")
    for qs in ("w1", "w1 w2 w3", "w4*", "w1?", "shared", "nosuchterm"):
        q = parse_query(qs, ana)
        a = plain.search(q, k=20)
        b = compact.search(q, k=20)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), qs
        assert a["score"].to_pylist() == b["score"].to_pylist(), qs
    assert plain.reader.num_terms() == compact.reader.num_terms()
    assert list(plain.reader.terms_in_range("w1", "w2")) == \
        list(compact.reader.terms_in_range("w1", "w2"))
