"""Index-time sort + early-terminating sorted top-k.

The ``SortingMergePolicy`` / ``EarlyTerminatingSortingCollector`` pair
(``lucene/misc/.../index/SortingMergePolicy.java:58``, SURVEY.md §2.6): the
corpus is globally sorted by a field BEFORE indexing (one Dataset.sort
shuffle, written back as the stored-field corpus), so doc-id order == sort
order. A query sorted by that same field can then stop after the first k
docs — no per-query sort at all, and segment 0 alone answers small-k
queries.
"""

from __future__ import annotations

import os

import pyarrow as pa

from .build import IndexManifest, build_index
from .check import fetch_docs


def build_sorted_index(
    source: str,
    out_dir: str,
    sort_by: str,
    *,
    descending: bool = False,
    rows_per_file: int = 20_000,
    **kw,
) -> IndexManifest:
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    sorted_dir = os.path.join(out_dir, "_sorted_corpus")
    if not os.path.isdir(sorted_dir):
        tmp = sorted_dir + ".tmp"
        (rd.read_parquet(source)
           .sort(sort_by, descending=descending)
           .write_parquet(tmp, row_group_size=min(rows_per_file, 10_000)))
        os.replace(tmp, sorted_dir)
    man = build_index(sorted_dir, out_dir, **kw)
    man.sort_by = f"{sort_by}:{'desc' if descending else 'asc'}"
    man.commit()
    return man


def early_terminated_topk(
    index_dir: str, k: int, columns: list[str] | None = None
) -> pa.Table:
    """Top-k by the index sort key == the first k docs in doc-id order;
    touches only the partitions covering [0, k) (early termination)."""
    man = IndexManifest.load(index_dir)
    if not man.sort_by:
        raise ValueError("index was not built with build_sorted_index")
    return fetch_docs(index_dir, doc_ids=list(range(min(k, man.max_doc))),
                      columns=columns)
