"""Singleton terms and vInt list counts: a ``df == 1`` list stores no
postings bytes (its doc is the row's ``start_doc``, its tf the row's
``ttf``), and every list's count is a vInt. Checked through each writer
that encodes lists (a segment build, an NRT append, a tier merge, a full
merge whose drop clip leaves one doc) against a fresh build, and through
``check_index`` on corrupted copies."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.codec import decode_postings, encode_postings
from lucene_solr_ray.codec.postings import (block_offsets, decode_block,
                                            decode_postings_batch,
                                            decode_values,
                                            decode_values_batch,
                                            encode_postings_lists,
                                            encode_singleton, encode_values,
                                            encode_values_lists, first_doc)
from lucene_solr_ray.index import (IndexManifest, build_index, check_index,
                                   check_merged, exorcise_index, merge_index)
from lucene_solr_ray.index.mergepolicy import execute_merge
from lucene_solr_ray.index.updates import append_segment
from lucene_solr_ray.search import BooleanQuery, IndexSearcher, TermQuery
from lucene_solr_ray.search.readers import MergedReader

N_DOCS = 200
ROWS = 50  # docs per partition: 4 partitions

CONFIGS = {
    "standard": {},
    "positions_offsets": {"store_positions": True, "store_offsets": True},
    "payloads": {"store_positions": True, "store_payloads": True,
                 "analyzer": "delimited_payload"},
}


def _texts(ids, payloads: bool) -> list[str]:
    """Doc ``i``: common words, its own ``u<i>`` (a singleton everywhere)
    and ``pair<i % 100>``, which docs ``i`` and ``i + 100`` share (a
    singleton in each of their partitions)."""
    vocab = [f"c{k}" for k in range(20)]
    out = []
    for i in ids:
        rng = np.random.default_rng(i)
        words = list(rng.choice(vocab, 6)) + [f"u{i}", f"pair{i % 100}"]
        if payloads:
            words = [w + f"|{j % 3 + 1}.5" if (i + j) % 4 == 0 else w
                     for j, w in enumerate(words)]
        out.append(" ".join(words))
    return out


def _table(ids, payloads: bool) -> pa.Table:
    return pa.table({"path": pa.array([f"p{i}" for i in ids]),
                     "content": pa.array(_texts(ids, payloads))})


# docs appended one at a time: new singletons, a term two of them share
# and words of the corpus
EXTRA = [200, 201, 202]


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    """Per configuration: the 200-doc corpus's index (never merged;
    tests copy it), and fresh builds of the corpus plus the first one
    and plus all three ``EXTRA`` docs."""
    out = {}
    for name, kw in CONFIGS.items():
        pay = name == "payloads"
        d = tmp_path_factory.mktemp(f"single_{name}")
        pq.write_table(_table(range(N_DOCS), pay), str(d / "a.parquet"),
                       row_group_size=ROWS)
        base = str(d / "base")
        build_index(str(d / "a.parquet"), base, rows_per_partition=ROWS,
                    **kw)
        fresh = {}
        for n in (1, len(EXTRA)):
            pq.write_table(_table(EXTRA[:n], pay), str(d / f"z{n}.parquet"))
            fresh[n] = str(d / f"fresh{n}")
            build_index([str(d / "a.parquet"), str(d / f"z{n}.parquet")],
                        fresh[n], rows_per_partition=ROWS, **kw)
        out[name] = {"base": base, "fresh": fresh, "pay": pay}
    return out


def _copy(src: str, tmp_path, name: str) -> str:
    dst = str(tmp_path / name)
    shutil.copytree(src, dst)
    return dst


def _assert_singletons_store_nothing(idx: str) -> int:
    """Every listed ``df == 1`` row points at 0 postings bytes and every
    other row at some; returns the number of singleton rows."""
    n = 0
    for f in IndexManifest.load(idx).terms_files:
        t = pq.read_table(os.path.join(idx, f))
        one = t["df"].to_numpy() == 1
        lens = t["length"].to_numpy()
        assert not lens[one].any(), f
        assert (lens[~one] > 0).all(), f
        n += int(one.sum())
    return n


def _chunk_postings(r: MergedReader, term: str):
    """Every chunk of ``term`` decoded with ``decode_postings`` from its
    payload (which must re-encode to the same bytes and block metadata),
    joined in doc order."""
    docs, tfs = [], []
    for c in r.chunks(term):
        d, f = decode_postings(c.payload)
        payload, last, maxtf = encode_postings(d, f)
        assert payload == bytes(c.payload), term
        assert (d.size, int(d[0]), int(f.sum())) == (c.df, c.start_doc,
                                                     c.ttf), term
        assert last.tolist() == c.block_last.tolist(), term
        assert maxtf.tolist() == c.block_max_tf.tolist(), term
        docs.append(d)
        tfs.append(f)
    d, f = np.concatenate(docs), np.concatenate(tfs)
    order = np.argsort(d, kind="stable")
    return d[order], f[order]


def _assert_same_postings(idx: str, want_idx: str, same_chunks: bool):
    """Every term reads the same from ``idx`` as from ``want_idx``:
    postings, chunks (row for row when ``same_chunks``, else joined),
    and every stored stream."""
    r, w = MergedReader(idx), MergedReader(want_idx)
    man = IndexManifest.load(idx)
    assert r.unique_terms().tolist() == w.unique_terms().tolist()
    for t in w.unique_terms().tolist():
        want = w.postings(t)
        got = r.postings(t)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), t
        for a, b in zip(_chunk_postings(r, t), want):
            assert np.array_equal(a, b), t
        if same_chunks:
            for a, b in zip(r.chunks(t), w.chunks(t)):
                assert bytes(a.payload) == bytes(b.payload), t
                assert bytes(a.positions) == bytes(b.positions), t
                assert (a.df, a.ttf, a.start_doc) == (b.df, b.ttf,
                                                      b.start_doc), t
        reads = []
        if man.store_positions:
            reads.append(lambda x: x.postings_with_positions(t))
        if man.store_offsets:
            reads.append(lambda x: x.term_offsets(t))
        if man.store_payloads:
            reads.append(lambda x: x.term_payloads(t))
        for read in reads:
            for a, b in zip(read(r), read(w)):
                assert np.array_equal(a, b), t


def _queries() -> list:
    return [TermQuery("u7"), TermQuery("pair60"), TermQuery("u201"),
            TermQuery("c3"),
            BooleanQuery.build(should=[TermQuery("c1"), TermQuery("u5"),
                                       TermQuery("pair160"),
                                       TermQuery("pair99")]),
            BooleanQuery.build(should=[TermQuery(f"u{i}")
                                       for i in range(40, 90, 7)]
                               + [TermQuery("c0")]),
            BooleanQuery.build(must=[TermQuery("c2"), TermQuery("pair61")])]


def _assert_searches_alike(idx: str, want_idx: str) -> None:
    """Pruned top-k equals exhaustive top-k, and both the fresh
    build's."""
    s, w = IndexSearcher(idx), IndexSearcher(want_idx)
    for q in _queries():
        ex = s.search(q, k=5, prune=False).to_pydict()
        assert s.search(q, k=5, prune=True).to_pydict() == ex, q
        assert ex == w.search(q, k=5, prune=False).to_pydict(), q


@pytest.mark.parametrize("config", list(CONFIGS))
def test_append_and_tier_merge_store_no_singleton_bytes(built, config,
                                                        tmp_path):
    """A 1-doc NRT append, then two more and a tier merge of the three
    appends: singleton rows keep no bytes, and the index reads and
    searches as a fresh build of the same docs."""
    b = built[config]
    idx = _copy(b["base"], tmp_path, "idx")
    assert _assert_singletons_store_nothing(idx) > N_DOCS
    append_segment(idx, _table(EXTRA[:1], b["pay"]))
    _assert_singletons_store_nothing(idx)
    _assert_same_postings(idx, b["fresh"][1], same_chunks=True)
    _assert_searches_alike(idx, b["fresh"][1])
    assert check_merged(idx, sample_terms=10**6)["ok"]
    for i in EXTRA[1:]:
        append_segment(idx, _table([i], b["pay"]))
    appends = [os.path.join(idx, p["segment"])
               for p in IndexManifest.load(idx).partitions[4:]]
    assert len(appends) == 3
    execute_merge(idx, appends)
    # the tier output compacted the appends' singleton rows of terms
    # several appends share into lists of more docs
    tier = [f for f in IndexManifest.load(idx).terms_files
            if f.startswith("merged/")]
    t = pq.read_table(os.path.join(idx, tier[0]))
    assert (t["df"].to_numpy() > 1).any() and (t["df"].to_numpy() == 1).any()
    _assert_singletons_store_nothing(idx)
    _assert_same_postings(idx, b["fresh"][3], same_chunks=False)
    _assert_searches_alike(idx, b["fresh"][3])
    assert check_merged(idx, sample_terms=10**6, strict=True)["ok"]
    assert check_index(idx)["ok"]


@pytest.mark.parametrize("config", list(CONFIGS))
def test_full_merge_and_drop_clip_to_a_singleton(built, config, tmp_path):
    """A full merge compacts the partitions' singleton rows of the
    ``pair`` terms into two-doc lists; after partition 1 is exorcised a
    second merge clips each of its pairs to the other doc, written as a
    singleton. Both read and search as the unmerged index."""
    b = built[config]
    idx = _copy(b["base"], tmp_path, "idx")
    merge_index(idx)
    _assert_singletons_store_nothing(idx)
    _assert_same_postings(idx, b["base"], same_chunks=False)
    _assert_searches_alike(idx, b["base"])
    assert check_merged(idx, sample_terms=10**6, strict=True)["ok"]
    assert MergedReader(idx).doc_freqs(["pair60"]) == {"pair60": 2}

    # the unmerged index with the same partition exorcised
    want = _copy(b["base"], tmp_path, "want")
    for d in (idx, want):
        with open(os.path.join(d, "norms", "part-00001.parquet"),
                  "wb") as f:
            f.write(b"not parquet")
        assert exorcise_index(d)["dropped"] == [1]
    merge_index(idx)
    assert _assert_singletons_store_nothing(idx)
    r = MergedReader(idx)
    for j in (50, 60, 99):  # doc j was in partition 1
        rows = r._term_rows(f"pair{j}")
        assert len(rows) == 1 and r.df[rows[0]] == 1
        assert r.start_doc[rows[0]] == j + 100
    _assert_same_postings(idx, want, same_chunks=False)
    _assert_searches_alike(idx, want)
    assert check_merged(idx, sample_terms=10**6, strict=True)["ok"]


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 16383, 16384, 16385])
def test_vint_counts_round_trip(n):
    """Lists and value streams whose counts sit at the vInt's byte
    boundaries round-trip through every encoder and decoder."""
    rng = np.random.default_rng(n)
    docs = np.sort(rng.choice(10 * n + 10, n, replace=False)).astype(
        np.int64)
    tfs = rng.integers(1, 6, n)
    header = 1 if n < 128 else 2 if n < 16384 else 3
    payload, last, _ = encode_postings(docs, tfs)
    assert payload[header - 1] < 0x80 and all(
        x >= 0x80 for x in payload[:header - 1])
    d, f = decode_postings(payload)
    assert np.array_equal(d, docs) and np.array_equal(f, tfs)
    assert first_doc(payload) == docs[0]
    offs = block_offsets(payload, n)
    assert offs[0] == header
    prev = 0
    for k in range(offs.size):
        bd, _ = decode_block(payload, offs, k, n, prev)
        assert bd[-1] == last[k]
        prev = int(bd[-1])
    # the index writers: lists of this count between singletons
    counts = np.array([1, n, 1])
    all_docs = np.concatenate(([5], docs, [7]))
    all_tfs = np.concatenate(([2], tfs, [3]))
    buf, lens = encode_postings_lists(all_docs, all_tfs, counts)
    assert lens.tolist() == [0, 0 if n == 1 else len(payload), 0]
    if n > 1:
        assert buf.tobytes() == payload
        bd, bt = decode_postings_batch(buf, np.array([0]), np.array([n]))
        assert np.array_equal(bd, docs) and np.array_equal(bt, tfs)
    vals = rng.integers(0, 70_000, n).astype(np.uint32)
    enc = encode_values(vals)
    assert np.array_equal(decode_values(enc), vals)
    vbuf, vlens = encode_values_lists(np.concatenate((vals, vals[:1])),
                                      np.array([n, 1]))
    assert vbuf[:vlens[0]].tobytes() == enc
    assert np.array_equal(decode_values_batch(vbuf, np.array([0, vlens[0]]),
                                              np.array([n, 1])),
                          np.concatenate((vals, vals[:1])))


def test_encode_singleton_is_encode_postings():
    """The bytes a reader synthesizes for a ``df == 1`` row are
    ``encode_postings``' for that one posting, at every width."""
    for doc in (0, 1, 255, 256, 65535, 65536, 2**32 - 1):
        for tf in (1, 2, 256, 257, 65536, 65537, 2**31):
            assert encode_singleton(np.int64(doc), np.int64(tf)) == \
                encode_postings([doc], [tf])[0], (doc, tf)


def _corrupt(idx: str, fix) -> None:
    """Rewrite ``idx``'s one listed terms file with ``fix(columns)``
    applied to its columns (a dict of Python lists)."""
    (rel,) = IndexManifest.load(idx).terms_files
    path = os.path.join(idx, rel)
    t = pq.read_table(path)
    cols = {c: t[c].to_pylist() for c in t.schema.names}
    fix(cols)
    pq.write_table(pa.table(cols, schema=t.schema), path)


def test_check_index_reports_each_broken_singleton_invariant(built,
                                                             tmp_path):
    """``check_index(strict=False)`` reports a row whose first doc is not
    its ``start_doc``, a singleton row that stores postings bytes or
    whose block metadata is not ``[start_doc]`` / ``[ttf]``, and a
    longer row that stores none."""
    merged = _copy(built["standard"]["base"], tmp_path, "merged")
    merge_index(merged)
    assert check_index(merged)["ok"]
    (rel,) = IndexManifest.load(merged).terms_files
    t = pq.read_table(os.path.join(merged, rel))
    df = t["df"].to_numpy()
    one, many = np.flatnonzero(df == 1), np.flatnonzero(df > 1)
    terms = t["term"].to_pylist()

    def start(cols, i=int(many[0])):
        cols["start_doc"][i] += 1

    def single_bytes(cols, i=int(one[0])):
        cols["length"][i] = 3

    def single_last(cols, i=int(one[1])):
        cols["block_last"][i] = [cols["start_doc"][i] + 1]

    def single_maxtf(cols, i=int(one[2])):
        cols["block_max_tf"][i] = [cols["ttf"][i] + 1]

    def no_bytes(cols, i=int(many[1])):
        cols["length"][i] = 0

    cases = [
        (start, many[0], "!= start_doc"),
        (single_bytes, one[0], "df 1 row stores 3 postings bytes"),
        (single_last, one[1], "block_last wrong"),
        (single_maxtf, one[2], "block_max_tf wrong"),
        (no_bytes, many[1], "row stores no postings bytes"),
    ]
    for k, (fix, row, msg) in enumerate(cases):
        idx = _copy(merged, tmp_path, f"broken{k}")
        _corrupt(idx, fix)
        errors = check_index(idx, strict=False)["errors"]
        assert any(repr(terms[row]) in e and msg in e for e in errors), \
            (fix.__name__, errors)
        with pytest.raises(AssertionError):
            check_index(idx)
