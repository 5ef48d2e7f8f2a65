"""updateDocument: keyed delete-then-add without a full rebuild.

The ``IndexWriter.updateDocument(Term, doc)`` path (``index/
IndexWriter.java`` — delete-by-term + addDocument as one atomic step) at
batch granularity:

- :func:`append_segment` — add a new delta segment at ``doc_base =
  max_doc`` (segments are immutable; growth happens by appending, exactly
  Lucene's new-segment-per-flush model). A merged view gains one
  ``terms-append-*`` file that points at the new segment in place
  (``merge.merge_append``).
- :func:`update_documents` — mark every live doc whose key matches an
  incoming row as deleted (``deletes/gen-N`` mask, ``index/deletes.py``)
  and append the incoming rows as a delta segment. Searchers see the new
  content immediately; space is reclaimed at the next full rebuild, and
  collection statistics retain deleted docs until then (Lucene's
  pre-merge behavior).

Every keyed function resolves its keys with :func:`_matching_doc_ids`:
the calling process reads each partition's key column and probes it
with ``np.searchsorted`` against the sorted batch keys.

Unchanged partitions are untouched — their checkpoints, segment parquet
and payload bins keep their bytes (asserted by mtime in
tests/test_updates.py), so a 10%-changed re-ingest costs ~10% of a build.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .build import IndexManifest, build_segment
from .deletes import delete_docs


def append_segment(index_dir: str, table: pa.Table) -> dict:
    """Append ``table`` (same schema as the corpus) as a new segment;
    if the index has a merged view, the segment is published into it
    incrementally (merge_append) instead of invalidating it."""
    man = IndexManifest.load(index_dir)
    pid = len(man.partitions)
    app_dir = os.path.join(index_dir, "_appends")
    os.makedirs(app_dir, exist_ok=True)
    path = os.path.join(app_dir, f"append-{pid:05d}.parquet")
    pq.write_table(table, path + ".tmp")
    os.replace(path + ".tmp", path)
    part = {
        "partition_id": pid,
        "file": path,
        "row_groups": list(range(pq.ParquetFile(path).metadata.num_row_groups)),
        "rows": table.num_rows,
        "doc_base": man.max_doc,
    }
    row = build_segment(
        part, index_dir, text_field=man.field,
        analyzer_name=man.resolve_analyzer(),
        store_positions=man.store_positions,
        store_offsets=getattr(man, "store_offsets", False),
        store_payloads=getattr(man, "store_payloads", False),
    )
    man.partitions.append(row)
    man.max_doc += table.num_rows
    man.sum_total_term_freq += row["sum_len"]
    man.num_partitions += 1
    merged_dir = os.path.join(index_dir, "merged")
    if os.path.isdir(merged_dir) and man.merged:
        # incremental NRT publish: the merged view gains ONE metadata
        # file referencing the delta segment's bin in place — no
        # re-shuffle, no invalidation (merge.merge_append)
        from .merge import merge_append

        merge_append(index_dir, row)
    man.save()
    return row


def _matching_doc_ids(man: IndexManifest, key_col: str,
                      keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids asc, pos): the global doc ids whose ``key_col`` value is
    in ``keys`` (sorted, unique), and for each the index of its key in
    ``keys``. Reads each partition's key column for its row groups on
    the calling process and probes it with ``np.searchsorted``; no Ray
    job is started."""
    ids, pos = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for p in man.partitions if len(keys) else []:
        with pq.ParquetFile(p["file"]) as pf:
            col = pf.read_row_groups(list(p["row_groups"]),
                                     columns=[key_col]) \
                .column(key_col).to_numpy(zero_copy_only=False)
        at = np.searchsorted(keys, col)
        ok = (at < len(keys)) & (
            keys[np.minimum(at, len(keys) - 1)] == col)
        ids.append(p["doc_base"] + np.flatnonzero(ok))
        pos.append(at[ok])
    ids, pos = np.concatenate(ids), np.concatenate(pos)
    order = np.argsort(ids, kind="stable")
    return ids[order], pos[order]


def _last_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, index of each one's last row): a batch that
    names one key twice resolves last-row-wins."""
    uniq, rev = np.unique(keys[::-1], return_index=True)
    return uniq, len(keys) - 1 - rev


def update_documents(index_dir: str, table: pa.Table, key_col: str) -> dict:
    """Delete-then-add by key: returns {"deleted": n, "added": m}. A key
    named twice in ``table`` keeps only its last row; an empty ``table``
    changes nothing."""
    from .deletes import LiveDocs

    keys = table.column(key_col).to_numpy(zero_copy_only=False)
    if not len(keys):
        return {"deleted": 0, "added": 0}
    want, last = _last_rows(keys)
    if len(last) < len(keys):
        table = table.take(np.sort(last))
    man = IndexManifest.load(index_dir)
    doomed, _ = _matching_doc_ids(man, key_col, want)
    # only delete docs that are still live (repeated upserts of one key)
    if doomed.size and os.path.isdir(os.path.join(index_dir, "deletes")):
        doomed = doomed[LiveDocs(index_dir, man.max_doc).mask[doomed]]
    if doomed.size:
        delete_docs(index_dir, doomed)
    append_segment(index_dir, table)
    return {"deleted": int(doomed.size), "added": table.num_rows}


def atomic_update(index_dir: str, key_col: str,
                  ops: dict, *, default_row: dict | None = None) -> dict:
    """Solr atomic updates (``solr/core/.../update/processor/
    AtomicUpdateDocumentMerger.java`` — the ``{"set": v}``/``{"inc": n}``/
    ``{"add": v}`` modifier syntax): partial field modifications by key.

    ``ops`` maps key -> {field: (op, value)} with op in
    ``set`` / ``inc`` / ``add`` (string-append with space — the
    multiValued add flattened to the text pipeline) / ``remove``
    (regex-free literal removal from a space-joined field).

    Like the reference, the engine reads the CURRENT stored document,
    merges the modifiers, and reindexes the result as a delete-then-add
    (stored fields are the source of truth; inverted data rebuilds from
    them). Keys absent from the index insert ``default_row`` merged with
    the modifiers when provided, else raise.
    Returns update_documents' {"deleted", "added"}.
    """
    from .check import fetch_docs

    man = IndexManifest.load(index_dir)
    doc_ids, _ = _matching_doc_ids(man, key_col, np.asarray(sorted(ops)))
    cur = fetch_docs(index_dir, doc_ids=doc_ids.tolist()) \
        if doc_ids.size else None
    rows_by_key: dict = {}
    if cur is not None:
        if cur.column_names.count("doc_id") > 1:
            # the key column is itself named doc_id: drop the synthetic
            # global-id column fetch_docs prepends
            cur = cur.remove_column(0)
        drop = {"doc_id"} - {key_col}
        for r in cur.to_pylist():
            rows_by_key[r[key_col]] = {
                k: v for k, v in r.items() if k not in drop}
    new_rows = []
    for key, mods in ops.items():
        row = rows_by_key.get(key)
        if row is None:
            if default_row is None:
                raise KeyError(f"key {key!r} not in index and no "
                               "default_row given")
            row = dict(default_row)
            row[key_col] = key
        for f, (op, val) in mods.items():
            if op == "set":
                row[f] = val
            elif op == "inc":
                row[f] = (row.get(f) or 0) + val
            elif op == "add":
                row[f] = (str(row.get(f) or "") + " " + str(val)).strip()
            elif op == "remove":
                parts = str(row.get(f) or "").split()
                row[f] = " ".join(p for p in parts if p != str(val))
            else:
                raise ValueError(f"unknown atomic op {op!r}")
        new_rows.append(row)
    cols = sorted({k for r in new_rows for k in r})
    tbl = pa.table({c: pa.array([r.get(c) for r in new_rows])
                    for c in cols})
    return update_documents(index_dir, tbl, key_col)


def realtime_get(index_dir: str, key_col: str, keys) -> pa.Table:
    """RealTimeGet — Solr's ``/get`` handler
    (``solr/core/.../handler/component/RealTimeGetComponent.java``):
    fetch the CURRENT live version of documents by key, seeing keyed
    updates immediately (delta segments are searchable the moment
    ``update_documents`` returns; superseded versions are masked by the
    delete gen). Returns stored fields, one row per found key, in input
    key order; missing / deleted keys are simply absent."""
    from .check import fetch_docs
    from .deletes import LiveDocs

    man = IndexManifest.load(index_dir)
    keys = np.asarray(keys)
    ids, _ = _matching_doc_ids(man, key_col, np.unique(keys))
    if ids.size and os.path.isdir(os.path.join(index_dir, "deletes")):
        ids = ids[LiveDocs(index_dir, man.max_doc).mask[ids]]
    if not ids.size:
        return pa.table({})
    t = fetch_docs(index_dir, doc_ids=ids.tolist())
    if t.column_names.count("doc_id") > 1:
        # key column is itself named doc_id: drop the synthetic global-id
        # column fetch_docs prepends (same convention as atomic_update)
        t = t.remove_column(0)
    # order rows by the input key order
    kc = t.column(key_col).to_numpy(zero_copy_only=False)
    pos = {k: i for i, k in enumerate(kc.tolist())}
    take = [pos[k] for k in keys.tolist() if k in pos]
    return t.take(pa.array(take, pa.int64()))


def update_numeric_docvalues(index_dir: str, key_col: str, field: str,
                             updates: pa.Table) -> int:
    """``IndexWriter.updateNumericDocValues(Term, field, value)``: set a
    numeric docvalues field for every doc whose key matches, WITHOUT
    reindexing — written as a docvalues-update generation file
    (Lucene's .dvd update generations) that readers overlay at open.
    ``updates`` has columns (key_col, field); duplicate keys in one
    batch resolve last-row-wins. Returns the number of docs updated.
    The generation file holds (doc_id, value) pairs only — update-sized,
    never corpus-sized."""
    keys = updates.column(key_col).to_numpy(zero_copy_only=False)
    vals = updates.column(field).to_numpy(zero_copy_only=False)
    want, last = _last_rows(keys)
    doc_ids, pos = _matching_doc_ids(
        IndexManifest.load(index_dir), key_col, want)
    if not doc_ids.size:
        return 0
    gen_dir = os.path.join(index_dir, "docvalues_updates", field)
    os.makedirs(gen_dir, exist_ok=True)
    gen = len([f for f in os.listdir(gen_dir) if f.endswith(".parquet")])
    path = os.path.join(gen_dir, f"gen-{gen:05d}.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "value": pa.array(vals[last[pos]]),
    }), path + ".tmp")
    os.replace(path + ".tmp", path)
    return int(doc_ids.size)
