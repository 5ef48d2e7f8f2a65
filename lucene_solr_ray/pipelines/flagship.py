"""Flagship pipeline: index a corpus and serve a fixed BM25 query set.

``run_flagship(sf_dir)``: build a Lucene-faithful (standard analyzer,
float32, quantized norms) index over the ``documents`` table, then score the
fixed reference query mix (term / boolean / prefix / phrase-count) and
return one result table (query_id, rank, doc_id, score) — the shape of
``TopDocs`` for the whole query set.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa

from ..analysis import get_analyzer
from ..index import build_index, merge_index
from ..index.build import FORMAT_VERSION, IndexManifest
from ..search import IndexSearcher, parse_query

FLAGSHIP_QUERIES = [
    "table", "vector", "stream scan", "+table +join", "table -join",
    "window group sort", "+value -missingterm", "part",
]


def cached_index(out: str, build) -> str:
    """``out``, an on-disk index cache: reused when its manifest loads;
    otherwise (absent, unreadable, or written by another version of the
    engine) cleared and built again with ``build(out)``."""
    try:
        IndexManifest.load(out)
        return out
    except (OSError, ValueError):
        shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    build(out)
    return out


def _flagship_index(sf_dir: str, merged: bool = True) -> str:
    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:standard:flagship:v{FORMAT_VERSION}".encode()
    ).hexdigest()[:12]
    src = os.path.join(sf_dir, "documents.parquet")
    out = cached_index(f"/tmp/lsr_qidx/{key}", lambda out: build_index(
        src, out, text_field="text", analyzer="standard",
        rows_per_partition=50_000))
    if merged and not IndexManifest.load(out).merged:
        merge_index(out)
    return out


def run_flagship(sf_dir: str, k: int = 10) -> pa.Table:
    idx = _flagship_index(sf_dir)
    s = IndexSearcher(idx)
    ana = get_analyzer("standard")
    out = {"query_id": [], "query": [], "rank": [], "doc_id": [], "score": []}
    for qid, qtext in enumerate(FLAGSHIP_QUERIES):
        t = s.search(parse_query(qtext, ana), k=k).to_pydict()
        n = len(t["rank"])
        out["query_id"].extend([qid] * n)
        out["query"].extend([qtext] * n)
        out["rank"].extend(t["rank"])
        out["doc_id"].extend(t["doc_id"])
        out["score"].extend(t["score"])
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "query": pa.array(out["query"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(np.asarray(out["score"], np.float32)),
    })
