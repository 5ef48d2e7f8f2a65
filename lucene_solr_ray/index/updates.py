"""updateDocument: keyed delete-then-add without a full rebuild.

The ``IndexWriter.updateDocument(Term, doc)`` path (``index/
IndexWriter.java`` — delete-by-term + addDocument as one atomic step) at
batch granularity:

- :func:`append_segment` — add a new delta segment at ``doc_base =
  max_doc`` (segments are immutable; growth happens by appending, exactly
  Lucene's new-segment-per-flush model). The commit's ``terms_files``
  gains the segment's own terms file; nothing is rewritten.
- :func:`update_documents` — mark every live doc whose key matches an
  incoming row as deleted (a ``deletes/gen-N`` file, ``index/deletes.py``)
  and append the incoming rows as a delta segment, in ONE commit: a
  reader sees both or neither. Space is reclaimed at the next full
  rebuild, and collection statistics retain deleted docs until then
  (Lucene's pre-merge behavior).

Every keyed function resolves its keys with :func:`_matching_doc_ids`:
the calling process reads the key column of each source file once (one
open and one read for all the row groups of the partitions it holds: a
build's partitions share the corpus file, an append has its own) and
probes it with ``pc.index_in`` against the batch keys; a null key in
the index matches nothing, and a null key in a batch is refused.

Unchanged partitions are untouched — their checkpoints, segment parquet
and payload bins keep their bytes (asserted by mtime in
tests/test_updates.py), so a 10%-changed re-ingest costs ~10% of a build.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .build import IndexManifest, build_segment, read_columns
from .deletes import LiveDocs, write_deletes


def _append(man: IndexManifest, table: pa.Table) -> dict:
    """Write ``table`` (same schema as the corpus) as a new segment and
    add it, and its terms file, to ``man`` without committing. Its docs
    follow every earlier doc, so its rows order after every loaded row
    of the same term. Returns the partition row."""
    pid = len(man.partitions)
    app_dir = os.path.join(man.index_dir, "_appends")
    os.makedirs(app_dir, exist_ok=True)
    path = os.path.join(
        app_dir, f"append-{pid:05d}-{man.generation + 1:05d}.parquet")
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
        part, man.index_dir, text_field=man.field,
        analyzer_name=man.resolve_analyzer(),
        store_positions=man.store_positions,
        store_offsets=man.store_offsets,
        store_payloads=man.store_payloads,
    )
    man.partitions.append(row)
    man.max_doc += table.num_rows
    man.sum_total_term_freq += row["sum_len"]
    man.num_partitions += 1
    man.terms_files.append(row["segment"])
    return row


def append_segment(index_dir: str, table: pa.Table) -> dict:
    """Append ``table`` (same schema as the corpus) as a new segment in
    one commit: the dictionary gains the segment's own terms file, and a
    merged index stays merged."""
    man = IndexManifest.load(index_dir)
    row = _append(man, table)
    man.commit()
    return row


def _matching_doc_ids(man: IndexManifest, key_col: str,
                      keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids asc, pos): the global doc ids whose ``key_col`` value is
    in ``keys`` (unique, no nulls), and for each the index of its key in
    ``keys``. Reads the key column on the calling process, one open and
    one read per source file for all the row groups of the partitions
    it holds (a build's partitions all point at one corpus file), and
    probes it with ``pc.index_in``, so a null in the column matches
    nothing; no Ray job is started."""
    ids, pos = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    by_file: dict[str, list] = {}
    for p in man.partitions if len(keys) else []:
        by_file.setdefault(p["file"], []).append(p)
    for path, parts in by_file.items():
        col = read_columns(path, [key_col], [
            g for p in parts for g in p["row_groups"]]).column(key_col)
        at = pc.index_in(col, value_set=pa.array(keys).cast(col.type))
        hit = np.flatnonzero(at.is_valid().to_numpy(zero_copy_only=False))
        # the rows read run through the partitions in turn
        start = np.cumsum([0] + [p["rows"] for p in parts])
        part = np.searchsorted(start, hit, side="right") - 1
        base = np.asarray([p["doc_base"] for p in parts], np.int64)
        ids.append(base[part] + hit - start[part])
        pos.append(at.drop_null().to_numpy().astype(np.int64))
    ids, pos = np.concatenate(ids), np.concatenate(pos)
    order = np.argsort(ids, kind="stable")
    return ids[order], pos[order]


def _batch_keys(keys, key_col: str) -> np.ndarray:
    """An incoming batch's keys (an Arrow column or a sequence) as a
    numpy array. A null key names no document, so it is refused."""
    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(list(keys))
    if keys.null_count:
        raise ValueError(f"{keys.null_count} null key(s) in {key_col!r}: "
                         "a null key names no document")
    return keys.to_numpy(zero_copy_only=False)


def _last_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, index of each one's last row): a batch that
    names one key twice resolves last-row-wins."""
    uniq, rev = np.unique(keys[::-1], return_index=True)
    return uniq, len(keys) - 1 - rev


def update_documents(index_dir: str, table: pa.Table, key_col: str) -> dict:
    """Delete-then-add by key, in one commit: returns {"deleted": n,
    "added": m}. A key named twice in ``table`` keeps only its last row;
    an empty ``table`` changes nothing."""
    keys = _batch_keys(table.column(key_col), key_col)
    if not len(keys):
        return {"deleted": 0, "added": 0}
    want, last = _last_rows(keys)
    if len(last) < len(keys):
        table = table.take(np.sort(last))
    man = IndexManifest.load(index_dir)
    doomed, _ = _matching_doc_ids(man, key_col, want)
    # only delete docs that are still live (repeated upserts of one key)
    if doomed.size and man.deletes:
        doomed = doomed[LiveDocs(man).mask[doomed]]
    if doomed.size:
        write_deletes(man, doomed)
    _append(man, table)
    man.commit()
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
    doc_ids, _ = _matching_doc_ids(man, key_col, _batch_keys(ops, key_col))
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

    man = IndexManifest.load(index_dir)
    keys = _batch_keys(keys, key_col)
    ids, _ = _matching_doc_ids(man, key_col, np.unique(keys))
    if ids.size and man.deletes:
        ids = ids[LiveDocs(man).mask[ids]]
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
    (Lucene's .dvd update generations) that the commit names and readers
    overlay at open. ``updates`` has columns (key_col, field); duplicate
    keys in one batch resolve last-row-wins. Returns the number of docs
    updated. The generation file holds (doc_id, value) pairs only —
    update-sized, never corpus-sized."""
    keys = _batch_keys(updates.column(key_col), key_col)
    vals = updates.column(field).to_numpy(zero_copy_only=False)
    want, last = _last_rows(keys)
    man = IndexManifest.load(index_dir)
    doc_ids, pos = _matching_doc_ids(man, key_col, want)
    # only live docs take the value (a key's superseded versions do not)
    if doc_ids.size and man.deletes:
        live = LiveDocs(man).mask[doc_ids]
        doc_ids, pos = doc_ids[live], pos[live]
    if not doc_ids.size:
        return 0
    gen_dir = os.path.join(index_dir, "docvalues_updates", field)
    os.makedirs(gen_dir, exist_ok=True)
    name = f"gen-{man.generation + 1:05d}.parquet"
    path = os.path.join(gen_dir, name)
    pq.write_table(pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "value": pa.array(vals[last[pos]]),
    }), path + ".tmp")
    os.replace(path + ".tmp", path)
    man.docvalues_updates.setdefault(field, []).append(name)
    man.commit()
    return int(doc_ids.size)
