"""Index replication: master -> replica file sync by generation.

The ReplicationHandler/SnapPuller pair (``solr/core/src/java/org/apache/
solr/handler/ReplicationHandler.java``, ``SnapPuller.java``) restated for
an immutable-file index on a shared/posix filesystem:

- the MASTER's commit point is its ``manifest.json`` (the ``segments_N``
  analogue): it names every file of the index and carries the commit
  ``generation``; :func:`index_generation` is its content hash;
- a REPLICA pulls by comparing names: a commit never reuses a name an
  earlier commit used, so sync = copy the files the master's commit names
  and the replica's does not, publish the new manifest with one
  ``os.replace``, and only then delete the files the replica's old commit
  named and the new one does not (same ordering as the reference:
  searchers reopen only after a complete, consistent file set exists, and
  a sync that fails before its publish leaves the replica's commit
  whole). A replica follows one master: a master whose generation is not
  above the replica's was rebuilt or is another index, so every file is
  copied (SnapPuller's ``isFullCopyNeeded``). Names are trusted only
  while the replica's commit is the one the last sync published
  (``_replication.json`` records its generation): a replica that took
  commits of its own may have written the master's next names with
  other bytes, so a sync that would trust them raises
  :class:`ReplicaDivergedError` instead.

``SearcherManager.maybe_refresh`` on the replica picks up the new
generation exactly like a local commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

from ..index.build import MANIFEST, IndexManifest


def index_generation(index_dir: str) -> str:
    """Content hash of the commit point (manifest.json)."""
    with open(os.path.join(index_dir, MANIFEST), "rb") as f:
        return _hash(f.read())


def _hash(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()[:16]


def _file_set(index_dir: str, man: IndexManifest | None = None) -> set[str]:
    """Index-relative paths of the files the commit (``man``, else the
    current one) names, plus the root-level commit companions: the
    pickled analyzer and ExternalFileField key=value files travel with
    the index."""
    out = (man or IndexManifest.load(index_dir)).files()
    for name in os.listdir(index_dir):
        if os.path.isfile(os.path.join(index_dir, name)) and (
                name == "analyzer.pkl" or name.startswith("external_")):
            out.add(name)
    return out


class ReplicaDivergedError(RuntimeError):
    """The replica's commit is not the one the last sync published: it
    took commits of its own (or never synced), so its file names may name
    other bytes than the master's. Re-seed it: delete the replica
    directory and replicate again."""


def replicate(master_dir: str, replica_dir: str) -> dict:
    """One sync pass; returns {"generation", "copied", "deleted",
    "up_to_date"}. Safe to call repeatedly (idempotent). Raises
    :class:`ReplicaDivergedError` when the master's generation is above
    the replica's but the replica's commit is not the one the last sync
    published: trusting its names could keep a file of its own under a
    master's name, and a full copy would publish a newer generation
    whose names a reader of the replica could take for files it has
    already read."""
    # the master's commit, read once: its bytes are what the replica
    # publishes (every path in it is index-relative or outside the index)
    with open(os.path.join(master_dir, MANIFEST), "rb") as f:
        text = f.read()
    gen = _hash(text)
    man_path = os.path.join(replica_dir, MANIFEST)
    gen_path = os.path.join(replica_dir, "_replication.json")
    old = last = None
    if os.path.exists(man_path):
        old = IndexManifest.load(replica_dir)
        if os.path.exists(gen_path):
            with open(gen_path) as f:
                last = json.load(f)
    synced = last is not None \
        and last.get("replica_generation") == old.generation
    if synced and last.get("generation") == gen:
        return {"generation": gen, "copied": 0, "deleted": 0,
                "up_to_date": True}
    os.makedirs(replica_dir, exist_ok=True)
    man = IndexManifest.load(master_dir, text.decode())
    want = _file_set(master_dir, man)
    have: set[str] = set()
    if old is not None and man.generation > old.generation:
        if not synced:
            raise ReplicaDivergedError(
                f"{replica_dir} is at generation {old.generation}, which "
                "no sync from a master published (it took commits of its "
                "own): delete it and replicate again to re-seed it")
        have = old.files()
    copied = 0
    for rel in sorted(want - have):
        dst = os.path.join(replica_dir, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(master_dir, rel), dst + ".tmp")
        os.replace(dst + ".tmp", dst)
        copied += 1
    # the publish: the master's manifest as it is. Its file paths are
    # index-relative (an append's source file too), so they name the
    # replica's synced copies; corpus paths outside the index are shared
    tmp = man_path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(text)
    os.replace(tmp, man_path)
    deleted = IndexManifest.load(replica_dir).sweep()
    with open(gen_path + ".tmp", "w") as f:
        json.dump({"generation": gen, "replica_generation": man.generation},
                  f)
    os.replace(gen_path + ".tmp", gen_path)
    return {"generation": gen, "copied": copied, "deleted": deleted,
            "up_to_date": False}


def backup_index(index_dir: str, backup_root: str, *,
                 name: str | None = None) -> str:
    """Snapshot backup (ReplicationHandler ?command=backup ->
    SnapShooter.java): a point-in-time copy of the commit's file set.
    Immutable files HARDLINK into the snapshot (zero-copy on the same
    filesystem, like SnapShooter's hardlink-capable directory copies);
    the manifest is COPIED last so the snapshot has its own commit
    point. Returns the snapshot dir (``snapshot.<generation>``)."""
    gen = index_generation(index_dir)
    snap = os.path.join(backup_root, name or f"snapshot.{gen}")
    if os.path.isdir(snap):
        return snap  # idempotent: a generation's snapshot is immutable
    tmp = snap + ".inprogress"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    for rel in _file_set(index_dir):
        dst = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        src = os.path.join(index_dir, rel)
        try:
            os.link(src, dst)
        except OSError:
            shutil.copy2(src, dst)
    for extra in ("analyzer.pkl", "multi_manifest.json"):
        p = os.path.join(index_dir, extra)
        dst = os.path.join(tmp, extra)
        if os.path.exists(p) and not os.path.exists(dst):
            shutil.copy2(p, dst)  # _file_set may have linked it already
    shutil.copy2(os.path.join(index_dir, MANIFEST),
                 os.path.join(tmp, MANIFEST))
    os.replace(tmp, snap)
    return snap


def restore_index(snapshot_dir: str, index_dir: str) -> str:
    """Restore (?command=restore -> RestoreCore.java): publish the
    snapshot's file set as a fresh index dir; manifest last."""
    tmp = index_dir + ".restoring"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    for rel in _file_set(snapshot_dir):
        dst = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        src = os.path.join(snapshot_dir, rel)
        try:
            os.link(src, dst)
        except OSError:
            shutil.copy2(src, dst)
    for extra in ("analyzer.pkl", "multi_manifest.json"):
        p = os.path.join(snapshot_dir, extra)
        dst = os.path.join(tmp, extra)
        if os.path.exists(p) and not os.path.exists(dst):
            shutil.copy2(p, dst)
    shutil.copy2(os.path.join(snapshot_dir, MANIFEST),
                 os.path.join(tmp, MANIFEST))
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.replace(tmp, index_dir)
    return index_dir
