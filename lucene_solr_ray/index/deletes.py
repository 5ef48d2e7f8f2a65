"""Deletes: live-docs masks over an immutable index (the ``.liv`` path).

Lucene deletes are per-segment bitsets written per delete generation
(``Lucene50LiveDocsFormat.java:43-74``) and applied by every scorer; docs
vanish from results immediately, space is reclaimed at merge. Here:

- :func:`delete_by_query` — run a query, mark its docs deleted in a new
  ``index_dir/deletes/gen-N.parquet`` (doc_id list, N = the commit's
  generation) named by the commit's ``deletes`` list;
- :class:`LiveDocs` — the union mask of a commit's delete files, loaded by
  searchers; a reopen carries the previous mask forward and reads only
  the delete files the new commit added (a name is never reused, and
  docs are only appended);
- ``IndexSearcher(apply_deletes=True)`` filters every scorer's doc arrays
  through the mask (``ReqExclScorer``-style), so ranks/scores equal an
  index where those docs never matched. Collection statistics (maxDoc,
  df, avgdl) intentionally retain deleted docs until a rebuild — exactly
  Lucene's behavior before segments merge away deletions.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .build import IndexManifest, read_columns


class LiveDocs:
    """The live mask of commit ``man``: every doc not in one of its delete
    files. ``prev`` (the mask of an earlier commit of this index, or None)
    is carried forward when every file it read is still named and it
    covers no more docs than ``man`` does: a commit never reuses a name
    and never renumbers a doc, so its mask is copied and only the newly
    named delete files are read. Else every file is read."""

    def __init__(self, man: IndexManifest, prev: "LiveDocs | None" = None):
        self.files = list(man.deletes)
        self.mask = np.ones(man.max_doc, bool)
        new = self.files
        if prev is not None and prev.mask.size <= man.max_doc \
                and set(prev.files) <= set(self.files):
            self.mask[:prev.mask.size] = prev.mask
            old = set(prev.files)
            new = [f for f in self.files if f not in old]
        for f in new:
            ids = _read_ids(os.path.join(man.index_dir, "deletes", f))
            self.mask[ids] = False

    @property
    def generations(self) -> int:
        return len(self.files)

    @property
    def num_deleted(self) -> int:
        return int((~self.mask).sum())


def _read_ids(path: str) -> np.ndarray:
    """The doc ids of one delete file."""
    return read_columns(path, ["doc_id"])["doc_id"].to_numpy()


def write_deletes(man: IndexManifest, doc_ids: np.ndarray) -> str:
    """Write ``doc_ids`` as a new delete file and add it to ``man``'s
    ``deletes``; the caller commits ``man``."""
    d = os.path.join(man.index_dir, "deletes")
    os.makedirs(d, exist_ok=True)
    name = f"gen-{man.generation + 1:05d}.parquet"
    path = os.path.join(d, name)
    tbl = pa.table({
        "doc_id": pa.array(np.unique(np.asarray(doc_ids, np.int64)))
    })
    pq.write_table(tbl, path + ".tmp")
    os.replace(path + ".tmp", path)
    man.deletes.append(name)
    return path


def delete_docs(index_dir: str, doc_ids: np.ndarray) -> str:
    """Append a delete generation: one new file, one commit."""
    man = IndexManifest.load(index_dir)
    path = write_deletes(man, doc_ids)
    man.commit()
    return path


def delete_by_query(index_dir: str, query, searcher=None) -> int:
    """IndexWriter.deleteDocuments(Query) analogue; returns #docs marked."""
    from ..search.searcher import IndexSearcher

    s = searcher or IndexSearcher(index_dir)
    docs = s._docs_only(query)
    if docs.size:
        delete_docs(index_dir, docs)
    return int(docs.size)


def ttl_delete(index_dir: str, field: str, cutoff, searcher=None) -> int:
    """TTL reaper (Solr's DocExpirationUpdateProcessorFactory periodic
    deleteByQuery on an expiration field): mark every LIVE doc whose
    docvalues ``field`` is < ``cutoff`` deleted. Returns #docs marked."""
    from ..search.searcher import IndexSearcher

    s = searcher or IndexSearcher(index_dir)
    vals = s.docvalues(field)
    expired = vals < cutoff
    if s.live_docs is not None:
        expired &= s.live_docs.mask
    doomed = np.flatnonzero(expired)
    if doomed.size:
        delete_docs(index_dir, doomed)
    return int(doomed.size)
