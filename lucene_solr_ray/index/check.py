"""CheckIndex: whole-index invariant verification.

The ``org.apache.lucene.index.CheckIndex`` analogue
(``CheckIndex.java:464-476,695-713,1110,1688-1712``): re-reads every segment
and verifies

- term order: sorted terms within each segment's terms file
- postings consistency: stored df == decoded doc count, ttf == sum(tf),
  doc ids strictly ascending and inside [0, maxDoc)
- block metadata: block_last matches decoded block boundaries, block_max_tf
  is the true block max, block_max_norm is an upper bound
- norms: one entry per doc, dense doc_id coverage, norm byte re-encodes
  from the stored length
- checkpoint lineage: sha256 rollup recomputes from the norms table
- manifest stats: maxDoc / sumTotalTermFreq match the partition rows

Returns a dict report; raises AssertionError on the first violation when
``strict=True``. Driver-side over segment files (sampled for big indexes via
``sample_terms``) — run it distributed with ``map_batches`` over segment
paths when the index is large.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow.parquet as pq

from ..codec import BLOCK_SIZE, decode_postings, encode_norm
from .build import IndexManifest, own_bin


def check_index(index_dir: str, *, sample_terms: int | None = None,
                strict: bool = True) -> dict:
    man = IndexManifest.load(index_dir)
    report = {"segments": 0, "terms_checked": 0, "postings_checked": 0,
              "docs": 0, "sum_len": 0, "errors": []}
    for part in man.partitions:
        _check_partition_body(index_dir, man, part, sample_terms, strict,
                              report)
    if man.max_doc != report["docs"]:
        msg = f"manifest maxDoc {man.max_doc} != {report['docs']}"
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)
    if man.sum_total_term_freq != report["sum_len"]:
        msg = (f"manifest sumTTF {man.sum_total_term_freq} != "
               f"{report['sum_len']}")
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)
    report["ok"] = not report["errors"]
    return report


def _check_partition_body(index_dir: str, man: IndexManifest, part: dict,
                          sample_terms: int | None, strict: bool,
                          report: dict) -> None:
    """Invariant checks for ONE partition, accumulated into ``report``."""

    def err(msg):
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)

    pid = part["partition_id"]
    seg = pq.read_table(os.path.join(index_dir, part["segment"]))
    norms = pq.read_table(os.path.join(index_dir, part["norms"]))
    report["segments"] += 1

    terms = seg["term"].to_pylist()
    if terms != sorted(terms):
        err(f"part {pid}: terms not sorted")
    dfs = seg["df"].to_numpy()
    ttfs = seg["ttf"].to_numpy()
    # payloads live in the .bin sidecar, referenced by (offset, length)
    from ..search.readers import mmap_file

    bin_mv = mmap_file(os.path.join(index_dir, own_bin(part["segment"])))
    p_off = seg["offset"].to_numpy()
    p_len = seg["length"].to_numpy()
    q_off = seg["pos_offset"].to_numpy()
    q_len = seg["pos_length"].to_numpy()
    payloads = [
        bin_mv[int(o):int(o) + int(ln)]
        for o, ln in zip(p_off, p_len)
    ]
    b_last = seg["block_last"].to_pylist()
    b_maxtf = seg["block_max_tf"].to_pylist()

    doc_ids = norms["doc_id"].to_numpy()
    lengths = norms["length"].to_numpy()
    norm_bytes = norms["norm"].to_numpy()
    lo, hi = part["doc_base"], part["doc_base"] + part["rows"]
    if not np.array_equal(doc_ids, np.arange(lo, hi)):
        err(f"part {pid}: norms doc_id coverage not dense [{lo},{hi})")
    if not np.array_equal(encode_norm(lengths), norm_bytes):
        err(f"part {pid}: norm bytes don't re-encode from lengths")
    sha_roll = hashlib.sha256(
        b"".join(norms["content_sha256"].to_pylist())
    ).hexdigest()
    ck = os.path.join(index_dir, "_checkpoints",
                      f"part-{pid:05d}.json")
    if os.path.exists(ck):
        import json

        with open(ck) as f:
            if json.load(f)["sha256_rollup"] != sha_roll:
                err(f"part {pid}: checkpoint sha256 rollup mismatch")

    pos_col = (
        [bin_mv[int(o):int(o) + int(ln)]
         for o, ln in zip(q_off, q_len)]
        if man.store_positions else None
    )
    off_col = pay_col = None
    if "off_offset" in seg.schema.names:
        off_col = [
            bin_mv[int(o):int(o) + int(ln)]
            for o, ln in zip(seg["off_offset"].to_numpy(),
                             seg["off_length"].to_numpy())
        ]
    if "pay_offset" in seg.schema.names:
        pay_col = [
            bin_mv[int(o):int(o) + int(ln)]
            for o, ln in zip(seg["pay_offset"].to_numpy(),
                             seg["pay_length"].to_numpy())
        ]
    idx = np.arange(len(terms))
    if sample_terms and len(terms) > sample_terms:
        rng = np.random.default_rng(pid)
        idx = np.sort(rng.choice(len(terms), sample_terms, replace=False))
    for i in idx.tolist():
        d, f = decode_postings(payloads[i])
        if pos_col is not None:
            from ..codec.postings import decode_values

            pv = decode_values(pos_col[i])
            if pv.size != int(f.sum()):
                err(f"part {pid} term {terms[i]!r}: positions stream "
                    f"length {pv.size} != ttf {int(f.sum())}")
        if off_col is not None:
            from ..codec.postings import decode_values

            ov = decode_values(off_col[i])
            if ov.size != 2 * int(f.sum()):
                err(f"part {pid} term {terms[i]!r}: offsets stream "
                    f"length {ov.size} != 2*ttf {2 * int(f.sum())}")
            elif ov.size and np.any(ov[1::2] == 0):
                err(f"part {pid} term {terms[i]!r}: zero-length offset "
                    "span")
        if pay_col is not None:
            from ..codec.postings import decode_values

            yv = decode_values(pay_col[i])
            if yv.size != int(f.sum()):
                err(f"part {pid} term {terms[i]!r}: payload stream "
                    f"length {yv.size} != ttf {int(f.sum())}")
        if d.size != dfs[i]:
            err(f"part {pid} term {terms[i]!r}: df {dfs[i]} != decoded "
                f"{d.size}")
        if int(f.sum()) != ttfs[i]:
            err(f"part {pid} term {terms[i]!r}: ttf mismatch")
        if d.size and (np.any(np.diff(d) <= 0) or d[0] < lo
                       or d[-1] >= hi):
            err(f"part {pid} term {terms[i]!r}: doc ids not ascending "
                "in range")
        nblocks = (d.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        if len(b_last[i]) != nblocks:
            err(f"part {pid} term {terms[i]!r}: block count mismatch")
        for b in range(nblocks):
            blo, bhi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, d.size)
            if b_last[i][b] != d[bhi - 1]:
                err(f"part {pid} term {terms[i]!r}: block_last wrong")
            if b_maxtf[i][b] != int(f[blo:bhi].max()):
                err(f"part {pid} term {terms[i]!r}: block_max_tf wrong")
        report["terms_checked"] += 1
        report["postings_checked"] += int(d.size)
    report["docs"] += part["rows"]
    report["sum_len"] += int(lengths.sum())


def check_index_distributed(index_dir: str, *,
                            sample_terms: int | None = 2000) -> dict:
    """CheckIndex fanned out over partitions: one Ray task per segment
    runs the same invariant checks (the driver-side ``check_index`` loop
    is the scale bottleneck at 10^5+ segments). Returns the aggregated
    report."""
    import ray.data as rd

    man = IndexManifest.load(index_dir)

    def check_parts(batch: dict) -> dict:
        out = []
        for i in range(len(batch["partition_id"])):
            pid = int(batch["partition_id"][i])
            rep = _check_partition(index_dir, man, pid,
                                   sample_terms=sample_terms, strict=False)
            import json

            out.append(json.dumps(rep))
        return {"report": np.array(out, object)}

    parts = [{"partition_id": p["partition_id"]} for p in man.partitions]
    rows = rd.from_items(parts).map_batches(
        check_parts, batch_size=1).take_all()
    import json

    agg = {"segments": 0, "terms_checked": 0, "postings_checked": 0,
           "docs": 0, "errors": []}
    total_rows = total_len = 0
    for r in rows:
        rep = json.loads(r["report"])
        for k in ("segments", "terms_checked", "postings_checked", "docs"):
            agg[k] += rep[k]
        agg["errors"].extend(rep["errors"])
        total_rows += rep["docs"]
        total_len += rep["sum_len"]
    if man.max_doc != total_rows:
        agg["errors"].append(f"manifest maxDoc {man.max_doc} != {total_rows}")
    if man.sum_total_term_freq != total_len:
        agg["errors"].append(
            f"manifest sumTTF {man.sum_total_term_freq} != {total_len}")
    agg["ok"] = not agg["errors"]
    return agg


def _check_partition(index_dir: str, man: IndexManifest, pid: int, *,
                     sample_terms: int | None, strict: bool) -> dict:
    """One partition's share of check_index (the distributed fan-out
    unit): same invariants, report includes sum_len for the caller's
    manifest-total validation."""
    part = next(p for p in man.partitions if p["partition_id"] == pid)
    report = {"segments": 0, "terms_checked": 0, "postings_checked": 0,
              "docs": 0, "sum_len": 0, "errors": []}
    _check_partition_body(index_dir, man, part, sample_terms, strict,
                          report)
    return report


def check_merged(index_dir: str, *, sample_terms: int = 500,
                 strict: bool = True) -> dict:
    """The commit's term dictionary vs the segment source of truth (the
    live partitions' own terms files, which every commit names): same
    term set, per-term df/ttf totals equal, and sampled postings (and
    positions, offsets and payloads, when stored) decode identically —
    CheckIndex extended to the post-merge index (catches chunk-loss /
    double-count corruption, e.g. a stale staging dir)."""
    from dataclasses import replace

    from ..search.readers import MergedReader

    report = {"terms": 0, "terms_checked": 0, "errors": []}

    def err(msg):
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)

    man = IndexManifest.load(index_dir)
    seg = MergedReader(replace(man, terms_files=man.segment_terms()))
    mrg = MergedReader(man)
    ts = seg.unique_terms()
    tm = mrg.unique_terms()
    if not np.array_equal(ts, tm):
        err(f"term sets differ: {len(ts)} vs {len(tm)}")
    report["terms"] = int(ts.size)
    idx = np.arange(ts.size)
    if ts.size > sample_terms:
        rng = np.random.default_rng(0)
        idx = np.sort(rng.choice(ts.size, sample_terms, replace=False))
    for i in idx.tolist():
        t = ts[i]
        if seg.doc_freqs([t])[t] != mrg.doc_freqs([t])[t]:
            err(f"term {t!r}: df mismatch")
        if seg.total_term_freq(t) != mrg.total_term_freq(t):
            err(f"term {t!r}: ttf mismatch")
        a = seg.postings(t)
        b = mrg.postings(t)
        if not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])):
            err(f"term {t!r}: postings differ")
        for name, on, read in (
                ("positions", man.store_positions,
                 lambda r: r.postings_with_positions(t)),
                ("offsets", man.store_offsets, lambda r: r.term_offsets(t)),
                ("payloads", man.store_payloads,
                 lambda r: r.term_payloads(t))):
            if on and not np.array_equal(read(seg)[2], read(mrg)[2]):
                err(f"term {t!r}: {name} differ")
        report["terms_checked"] += 1
    report["ok"] = not report["errors"]
    return report


def fetch_docs(index_dir: str, corpus_source: str | None = None,
               doc_ids: list[int] = (), columns: list[str] | None = None):
    """Stored-fields fetch: doc_id -> source parquet row (the 2-phase
    query's STAGE_GET_FIELDS, ``QueryComponent.java:662+``; the stored
    fields ARE the source parquet — SURVEY.md §1.4)."""
    import pyarrow as pa

    man = IndexManifest.load(index_dir)
    bases = np.array([p["doc_base"] for p in man.partitions], np.int64)
    ids = np.asarray(sorted(doc_ids), np.int64)
    part_idx = np.searchsorted(bases, ids, side="right") - 1
    out = []
    for pi in np.unique(part_idx):
        part = man.partitions[int(pi)]
        pf = pq.ParquetFile(part["file"])
        tbl = pa.concat_tables([
            pf.read_row_group(rg, columns=columns)
            for rg in part["row_groups"]
        ])
        local = ids[part_idx == pi] - part["doc_base"]
        out.append(tbl.take(pa.array(local)))
    # an append's file may order (or name) its columns differently from
    # the source's: align them by name; the partitions come in id order
    return pa.concat_tables(out, promote_options="default").add_column(
        0, "doc_id", pa.array(ids))


def index_info(index_dir: str) -> dict:
    """Luke-handler-style index introspection (``solr/core/.../handler/
    admin/LukeRequestHandler.java``): commit-point metadata + physical
    sizes without opening posting payloads — numDocs/deletedDocs,
    segment/merge state, term counts from the term-dict parquet
    metadata, bytes per file family."""
    import pyarrow.parquet as pq

    from .deletes import LiveDocs

    man = IndexManifest.load(index_dir)
    deleted = LiveDocs(man).num_deleted
    sizes: dict[str, int] = {}
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            p = os.path.join(root, f)
            fam = os.path.relpath(root, index_dir).split(os.sep)[0]
            fam = fam if fam != "." else "root"
            sizes[fam] = sizes.get(fam, 0) + os.path.getsize(p)
    term_rows = sum(pq.read_metadata(os.path.join(index_dir, f)).num_rows
                    for f in man.terms_files)
    return {
        "max_doc": man.max_doc,
        "num_docs": man.max_doc - deleted,
        "deleted_docs": deleted,
        "num_partitions": man.num_partitions,
        "merged": man.merged,
        "analyzer": man.analyzer,
        "field": man.field,
        "sum_total_term_freq": man.sum_total_term_freq,
        "avgdl": man.avgdl,
        "term_dict_rows": term_rows,
        "bytes_by_family": sizes,
        "positions": man.store_positions,
        "offsets": man.store_offsets,
        "payloads": man.store_payloads,
    }


def exorcise_index(index_dir: str, *,
                   sample_terms: int | None = None) -> dict:
    """CheckIndex ``-exorcise`` (``lucene/core/.../index/CheckIndex.java``
    exorciseIndex: "removes any segments that are corrupt... LOSES
    DATA"): partitions failing the invariant checks are quarantined —
    their doc ranges are deleted in one live-docs generation and their
    pids recorded in the manifest's ``exorcised`` list, in one commit, so
    segment readers skip their files entirely.  Doc ids are a
    deterministic prefix sum here, so exorcism must never renumber:
    masking loses exactly the corrupt partitions' docs and nothing else
    (the reference's semantics — dropped segments' docs disappear,
    survivors keep their ids).
    Returns {"dropped": pids, "docs_deleted": n, "errors": [...]}."""
    from .deletes import write_deletes

    man = IndexManifest.load(index_dir)
    already = set(man.exorcised)
    bad: list[int] = []
    errors: list[str] = []
    for part in man.partitions:
        if int(part["partition_id"]) in already:
            continue  # quarantined in a previous exorcism
        rep = {"segments": 0, "terms_checked": 0, "postings_checked": 0,
               "docs": 0, "sum_len": 0, "errors": []}
        try:
            _check_partition_body(index_dir, man, part, sample_terms,
                                  False, rep)
        except Exception as e:  # unreadable segment = corrupt
            rep["errors"].append(f"unreadable: {e}")
        if rep["errors"]:
            bad.append(int(part["partition_id"]))
            errors.extend(
                f"part {part['partition_id']}: {m}" for m in
                rep["errors"])
    dropped_docs = np.concatenate([
        np.arange(p["doc_base"], p["doc_base"] + p["rows"], dtype=np.int64)
        for p in man.partitions if int(p["partition_id"]) in bad
    ]) if bad else np.empty(0, np.int64)
    if bad:
        write_deletes(man, dropped_docs)
        # the dictionary stops listing their own terms files
        quarantined = {p["segment"] for p in man.partitions
                       if int(p["partition_id"]) in bad}
        man.terms_files = [f for f in man.terms_files
                           if f not in quarantined]
        man.exorcised = sorted(already | set(bad))
        man.commit()
    return {"dropped": bad, "docs_deleted": int(dropped_docs.size),
            "errors": errors}
