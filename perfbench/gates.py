"""Correctness gates run inside every benchmark run.

Each check counts as one attempted operation; a mismatch counts as one
failed operation, so it shows in ``failed`` and in ``failed_ratio``.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from inputs import _PLAIN_TERM, rng_for


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def hits(table: pa.Table) -> tuple[list, list]:
    return table["doc_id"].to_pylist(), table["score"].to_pylist()


def same_hits(a: pa.Table, b: pa.Table) -> bool:
    """Same documents in the same order with bit-identical scores."""
    return (a.num_rows == b.num_rows
            and np.array_equal(a["doc_id"].to_numpy(), b["doc_id"].to_numpy())
            and np.array_equal(a["score"].to_numpy(), b["score"].to_numpy()))


def oracle_gate(tally: Tally, corpus: pa.Table, work: str, seed: int,
                num_docs: int = 400, num_queries: int = 12) -> None:
    """BM25 rank and score identity with the single-process oracle on a
    seeded sub-corpus, for OR and AND queries."""
    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.oracle import OracleIndex
    from lucene_solr_ray.search import BooleanQuery, IndexSearcher, TermQuery

    sub = corpus.slice(0, num_docs)
    path = os.path.join(work, "oracle-corpus.parquet")
    pq.write_table(sub, path, row_group_size=100)
    idx = os.path.join(work, "oracle-index")
    build_index(path, idx, rows_per_partition=100)
    searcher = IndexSearcher(idx)
    oracle = OracleIndex(sub["content"].to_pylist())
    terms = sorted(t for t, df in oracle.df.items()
                   if df >= 2 and _PLAIN_TERM.match(t))
    by_df = sorted(terms, key=lambda t: (-oracle.df[t], t))
    head = by_df[:40]
    rng = rng_for(seed, "oracle")
    pick = lambda arr: arr[int(rng.integers(len(arr)))]  # noqa: E731
    for i in range(num_queries):
        for mode in ("OR", "AND"):
            qterms = sorted({pick(head), pick(head if mode == "AND"
                                              else terms)})
            tq = [TermQuery(t) for t in qterms]
            q = (BooleanQuery.build(should=tq) if mode == "OR"
                 else BooleanQuery.build(must=tq))
            got_d, got_s = hits(searcher.search(q, k=10))
            want = oracle.search(qterms, k=10, mode=mode)
            ok = (got_d == [d for d, _ in want]
                  and np.allclose(got_s, [float(s) for _, s in want],
                                  rtol=0, atol=1e-6))
            tally.check(ok, f"oracle {mode} {qterms}")


def prune_gate(tally: Tally, index_dir: str, queries: list[str],
               analyzer) -> None:
    """Block-max pruned top-k equals exhaustive top-k, docs and scores."""
    from lucene_solr_ray.search import IndexSearcher, parse_query

    pruned = IndexSearcher(index_dir)
    exhaustive = IndexSearcher(index_dir)
    for text in queries:
        q = parse_query(text, analyzer)
        a = hits(pruned.search(q, k=10, prune=True))
        b = hits(exhaustive.search(q, k=10))
        tally.check(a == b, f"pruned != exhaustive for {text!r}")


def check_merged_gate(tally: Tally, index_dir: str) -> None:
    from lucene_solr_ray.index import check_merged

    report = check_merged(index_dir, sample_terms=200, strict=False)
    tally.check(report["ok"], f"check_merged: {report['errors'][:3]}")


def nrt_gate(tally: Tally, searcher, ups, fids: list[int],
             new_ids: list[int], replaced: list[int]) -> None:
    """After a publish: each new doc is live and is the only hit for its
    file's marker term; each replaced doc is masked."""
    from lucene_solr_ray.search import TermQuery

    live = searcher.live_docs
    mask = live.mask if live is not None else None
    if replaced:
        tally.check(mask is not None and not mask[replaced].any(),
                    f"replaced docs still live: {replaced[:5]}")
    for fid, doc in zip(fids, new_ids):
        got, _ = hits(searcher.search(TermQuery(ups.marker(fid)), k=5))
        tally.check(got == [doc], f"marker {ups.marker(fid)}: "
                    f"got {got}, want [{doc}]")
