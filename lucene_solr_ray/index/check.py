"""CheckIndex: whole-index invariant verification.

The ``org.apache.lucene.index.CheckIndex`` analogue
(``CheckIndex.java:464-476,695-713,1110,1688-1712``): re-reads each listed
terms file once (a partition's own, a merge's output, an NRT append's) and
every partition's norms, and verifies

- term order: sorted terms within each terms file
- postings consistency: stored df == decoded doc count, ttf == sum(tf),
  doc ids strictly ascending and inside the file's doc range (its
  partition's, or [0, maxDoc) for a merge's output), the first decoded
  doc == start_doc, every row inside the file's own ``.bin``
- singletons: a df == 1 row stores no postings bytes (its doc is
  start_doc, its tf ttf), so its block_last is [start_doc] and its
  block_max_tf [ttf]; every df > 1 row stores some
- block metadata: block_last matches decoded block boundaries, block_max_tf
  is the true block max, block_max_norm is an upper bound
- norms: one entry per doc, dense doc_id coverage, norm byte re-encodes
  from the stored length
- checkpoint lineage: the checkpoint's sha256 rollup equals the
  manifest's; :func:`check_merged` recomputes the rollup from the source
  rows, which it reads anyway to rebuild the reference segments
- manifest stats: maxDoc / sumTotalTermFreq match the partition rows

Returns a dict report; raises AssertionError on the first violation when
``strict=True``. Runs in the calling process over the listed files
(sampled for big indexes via ``sample_terms``) — run it distributed with
``map_batches`` (:func:`check_index_distributed`) when the index is large.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pyarrow.parquet as pq

from ..codec import BLOCK_SIZE, decode_postings, encode_norm
from ..codec.postings import decode_values
from .build import IndexManifest, own_bin


def _new_report() -> dict:
    return {"segments": 0, "terms_checked": 0, "postings_checked": 0,
            "docs": 0, "sum_len": 0, "errors": []}


def _units(man: IndexManifest) -> list[tuple[str, object]]:
    """What check_index reads, one unit each: every listed terms file
    once (``("terms", path)``) and every partition's norms
    (``("part", partition id)``)."""
    return [("terms", f) for f in man.terms_files] + [
        ("part", p["partition_id"]) for p in man.partitions]


def _check_unit(index_dir: str, man: IndexManifest, unit: tuple,
                sample_terms: int | None, strict: bool) -> dict:
    """One unit's checks (:func:`_units`), as a report of its own."""
    report = _new_report()
    kind, key = unit
    try:
        if kind == "terms":
            _check_terms_file(index_dir, man, key, sample_terms, strict,
                              report)
            return report
        part = next(p for p in man.partitions if p["partition_id"] == key)
        if key in man.exorcised:
            # quarantined: its files may be unreadable, its docs deleted
            report["docs"] += part["rows"]
            report["sum_len"] += part["sum_len"]
        else:
            _check_norms(index_dir, part, strict, report)
    except AssertionError:
        raise
    except Exception as e:  # an unreadable or undecodable file is corrupt
        msg = (f"{key}" if kind == "terms" else f"part {key}") + \
            f": unreadable: {e!r}"
        if strict:
            raise AssertionError(msg) from e
        report["errors"].append(msg)
    return report


def _fold(reports: list[dict], man: IndexManifest) -> dict:
    """Sum unit reports and check the manifest's totals against them."""
    agg = _new_report()
    for rep in reports:
        for k in ("segments", "terms_checked", "postings_checked", "docs",
                  "sum_len"):
            agg[k] += rep[k]
        agg["errors"].extend(rep["errors"])
    if man.max_doc != agg["docs"]:
        agg["errors"].append(f"manifest maxDoc {man.max_doc} != "
                             f"{agg['docs']}")
    if man.sum_total_term_freq != agg["sum_len"]:
        agg["errors"].append(f"manifest sumTTF {man.sum_total_term_freq} "
                             f"!= {agg['sum_len']}")
    agg["ok"] = not agg["errors"]
    return agg


def check_index(index_dir: str, *, sample_terms: int | None = None,
                strict: bool = True) -> dict:
    """Check each listed terms file once against its own ``.bin`` (a
    merged index's and an unmerged one's alike), each partition's norms
    and checkpoint rollup, and the manifest's totals. Returns the
    report; with ``strict``, raises AssertionError at the first
    violation instead."""
    man = IndexManifest.load(index_dir)
    rep = _fold([_check_unit(index_dir, man, u, sample_terms, strict)
                 for u in _units(man)], man)
    if strict and rep["errors"]:
        raise AssertionError(rep["errors"][0])
    return rep


def _doc_range(man: IndexManifest, rel: str) -> tuple[str, int, int]:
    """A label and the doc range ``[lo, hi)`` of listed terms file
    ``rel``'s postings: its partition's, for a partition's own file, else
    the whole index."""
    for p in man.partitions:
        if p["segment"] == rel:
            return (f"part {p['partition_id']}", p["doc_base"],
                    p["doc_base"] + p["rows"])
    return rel, 0, man.max_doc


def _check_terms_file(index_dir: str, man: IndexManifest, rel: str,
                      sample_terms: int | None, strict: bool,
                      report: dict) -> None:
    """Invariant checks for ONE listed terms file and its own ``.bin``,
    accumulated into ``report``: sorted terms; per sampled row, decoded
    df / ttf / stream lengths equal the stored ones, doc ids ascend
    inside the file's doc range, and the block metadata is right."""
    label, lo, hi = _doc_range(man, rel)

    def err(msg):
        msg = f"{label}: {msg}"
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)

    seg = pq.read_table(os.path.join(index_dir, rel))
    report["segments"] += 1

    terms = seg["term"].to_pylist()
    if terms != sorted(terms):
        err("terms not sorted")
    if set(seg["payload_file"].unique().to_pylist()) - {own_bin(rel)}:
        err("rows point outside its own .bin")
    dfs = seg["df"].to_numpy()
    ttfs = seg["ttf"].to_numpy()
    first = seg["start_doc"].to_numpy()
    lens = seg["length"].to_numpy()
    # payloads live in the .bin sidecar, referenced by (offset, length)
    from ..search.readers import mmap_file

    bin_mv = mmap_file(os.path.join(index_dir, own_bin(rel)))

    def slices(stream):
        offs, lens = seg[f"{stream}_offset"].to_numpy(), \
            seg[f"{stream}_length"].to_numpy()
        return [bin_mv[int(o):int(o) + int(ln)]
                for o, ln in zip(offs, lens)]

    payloads = [bin_mv[int(o):int(o) + int(ln)] for o, ln in zip(
        seg["offset"].to_numpy(), lens)]
    b_last = seg["block_last"].to_pylist()
    b_maxtf = seg["block_max_tf"].to_pylist()
    pos_col = slices("pos") if man.store_positions else None
    off_col = slices("off") if "off_offset" in seg.schema.names else None
    pay_col = slices("pay") if "pay_offset" in seg.schema.names else None
    idx = np.arange(len(terms))
    if sample_terms and len(terms) > sample_terms:
        rng = np.random.default_rng(lo)
        idx = np.sort(rng.choice(len(terms), sample_terms, replace=False))
    for i in idx.tolist():
        if dfs[i] == 1:
            if lens[i] != 0:
                err(f"term {terms[i]!r}: df 1 row stores {lens[i]} "
                    "postings bytes")
            # the block checks below hold its metadata to these
            d = first[i:i + 1]
            f = ttfs[i:i + 1]
        else:
            if lens[i] == 0:
                err(f"term {terms[i]!r}: df {dfs[i]} row stores no "
                    "postings bytes")
                continue
            d, f = decode_postings(payloads[i])
            if d.size and d[0] != first[i]:
                err(f"term {terms[i]!r}: first doc {d[0]} != start_doc "
                    f"{first[i]}")
        if pos_col is not None:
            pv = decode_values(pos_col[i])
            if pv.size != int(f.sum()):
                err(f"term {terms[i]!r}: positions stream length "
                    f"{pv.size} != ttf {int(f.sum())}")
        if off_col is not None:
            ov = decode_values(off_col[i])
            if ov.size != 2 * int(f.sum()):
                err(f"term {terms[i]!r}: offsets stream length {ov.size} "
                    f"!= 2*ttf {2 * int(f.sum())}")
            elif ov.size and np.any(ov[1::2] == 0):
                err(f"term {terms[i]!r}: zero-length offset span")
        if pay_col is not None:
            yv = decode_values(pay_col[i])
            if yv.size != int(f.sum()):
                err(f"term {terms[i]!r}: payload stream length {yv.size} "
                    f"!= ttf {int(f.sum())}")
        if d.size != dfs[i]:
            err(f"term {terms[i]!r}: df {dfs[i]} != decoded {d.size}")
        if int(f.sum()) != ttfs[i]:
            err(f"term {terms[i]!r}: ttf mismatch")
        if d.size and (np.any(np.diff(d) <= 0) or d[0] < lo
                       or d[-1] >= hi):
            err(f"term {terms[i]!r}: doc ids not ascending in range")
        nblocks = (d.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        if len(b_last[i]) != nblocks:
            err(f"term {terms[i]!r}: block count mismatch")
        for b in range(min(nblocks, len(b_last[i]))):
            blo, bhi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, d.size)
            if b_last[i][b] != d[bhi - 1]:
                err(f"term {terms[i]!r}: block_last wrong")
            if b_maxtf[i][b] != int(f[blo:bhi].max()):
                err(f"term {terms[i]!r}: block_max_tf wrong")
        report["terms_checked"] += 1
        report["postings_checked"] += int(d.size)


def _check_norms(index_dir: str, part: dict, strict: bool,
                 report: dict) -> None:
    """One partition's norms (dense doc ids, norm bytes that re-encode
    from the lengths) and its checkpoint's sha256 rollup against the
    manifest's, accumulated into ``report``."""
    pid = part["partition_id"]

    def err(msg):
        msg = f"part {pid}: {msg}"
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)

    norms = pq.read_table(os.path.join(index_dir, part["norms"]))
    doc_ids = norms["doc_id"].to_numpy()
    lengths = norms["length"].to_numpy()
    lo, hi = part["doc_base"], part["doc_base"] + part["rows"]
    if not np.array_equal(doc_ids, np.arange(lo, hi)):
        err(f"norms doc_id coverage not dense [{lo},{hi})")
    if not np.array_equal(encode_norm(lengths), norms["norm"].to_numpy()):
        err("norm bytes don't re-encode from lengths")
    ck = os.path.join(index_dir, "_checkpoints", f"part-{pid:05d}.json")
    if os.path.exists(ck):
        with open(ck) as f:
            if json.load(f)["sha256_rollup"] != part["sha256_rollup"]:
                err("checkpoint sha256 rollup != the manifest's")
    report["docs"] += part["rows"]
    report["sum_len"] += int(lengths.sum())


def check_index_distributed(index_dir: str, *,
                            sample_terms: int | None = 2000) -> dict:
    """CheckIndex fanned out: one Ray task per unit of
    :func:`check_index` (each listed terms file, each partition's norms)
    runs the same invariant checks (the single-process loop is the scale
    bottleneck at 10^5+ segments). Returns the aggregated report."""
    import ray.data as rd

    man = IndexManifest.load(index_dir)
    units = _units(man)

    def check_units(batch: dict) -> dict:
        return {"report": np.array([json.dumps(_check_unit(
            index_dir, man, units[int(i)], sample_terms, False))
            for i in batch["i"]], object)}

    rows = rd.from_items([{"i": i} for i in range(len(units))]) \
        .map_batches(check_units, batch_size=1).take_all()
    return _fold([json.loads(r["report"]) for r in rows], man)


@contextlib.contextmanager
def _rebuilt(man: IndexManifest):
    """Commit ``man``'s live partitions built again from their source rows
    (``build_segment``, which is deterministic) into a temporary
    directory outside the index: yields ``(partition, rebuilt checkpoint
    row)`` pairs and a ``MergedReader`` over the rebuilt segments."""
    from ..search.readers import MergedReader
    from .build import build_segment

    ana = man.resolve_analyzer()
    with tempfile.TemporaryDirectory(prefix="lsr-reference-") as tmp:
        pairs = [(p, build_segment(
            {k: p[k] for k in ("partition_id", "file", "row_groups", "rows",
                               "doc_base")}, tmp,
            text_field=man.field, analyzer_name=ana,
            store_positions=man.store_positions,
            store_offsets=man.store_offsets,
            store_payloads=man.store_payloads))
            for p in man.partitions if p["partition_id"] not in man.exorcised]
        yield pairs, MergedReader(replace(
            man, index_dir=tmp, terms_files=[r["segment"] for _, r in pairs]))


@contextlib.contextmanager
def reference_reader(index_dir: str):
    """A ``MergedReader`` over the live partitions' segments built again
    from their source rows (:func:`_rebuilt`): the source of truth a
    merged dictionary is compared against. The index directory is left
    byte-for-byte unchanged."""
    with _rebuilt(IndexManifest.load(index_dir)) as (_, reader):
        yield reader


def check_merged(index_dir: str, *, sample_terms: int = 500,
                 strict: bool = True) -> dict:
    """The commit's term dictionary vs the segment source of truth: the
    live partitions' segments built again from their source rows
    (:func:`reference_reader`; a merge commit no longer names the
    partitions' own terms files). Each partition's sha256 rollup,
    recomputed from its source rows, equals the manifest's (the lineage
    check). Same term set, per-term df/ttf totals equal, and sampled
    postings (and positions, offsets and payloads, when stored) decode
    identically — CheckIndex extended to the post-merge index (catches
    chunk-loss / double-count corruption, e.g. a stale staging dir).
    Writes nothing under the index."""
    from ..search.readers import MergedReader

    report = {"terms": 0, "terms_checked": 0, "errors": []}

    def err(msg):
        if strict:
            raise AssertionError(msg)
        report["errors"].append(msg)

    man = IndexManifest.load(index_dir)
    mrg = MergedReader(man)
    with _rebuilt(man) as (pairs, seg):
        for p, row in pairs:
            if row["sha256_rollup"] != p["sha256_rollup"]:
                err(f"part {p['partition_id']}: sha256 rollup of the "
                    "source rows != the manifest's")
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
            if not (np.array_equal(a[0], b[0])
                    and np.array_equal(a[1], b[1])):
                err(f"term {t!r}: postings differ")
            for name, on, read in (
                    ("positions", man.store_positions,
                     lambda r: r.postings_with_positions(t)),
                    ("offsets", man.store_offsets,
                     lambda r: r.term_offsets(t)),
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
    metadata, bytes per file family, and the term dictionary's bytes per
    column (``terms_bytes_by_column``: each column's compressed bytes in
    the listed terms files, from their footers; no data page is read)."""
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
    term_rows, by_column = 0, {}
    for f in man.terms_files:
        md = pq.read_metadata(os.path.join(index_dir, f))
        term_rows += md.num_rows
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for i in range(rg.num_columns):
                col = rg.column(i)
                name = col.path_in_schema.split(".")[0]
                by_column[name] = (by_column.get(name, 0)
                                   + col.total_compressed_size)
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
        "terms_bytes_by_column": by_column,
        "positions": man.store_positions,
        "offsets": man.store_offsets,
        "payloads": man.store_payloads,
    }


def exorcise_index(index_dir: str, *,
                   sample_terms: int | None = None) -> dict:
    """CheckIndex ``-exorcise`` (``lucene/core/.../index/CheckIndex.java``
    exorciseIndex: "removes any segments that are corrupt... LOSES
    DATA"): partitions failing the invariant checks (their norms, or
    their own terms file while it is listed) are quarantined — their
    doc ranges are deleted in one live-docs generation and their pids
    recorded in the manifest's ``exorcised`` list, in one commit, so
    segment readers skip their files entirely.  Doc ids are a
    deterministic prefix sum here, so exorcism must never renumber:
    masking loses exactly the corrupt partitions' docs and nothing else
    (the reference's semantics — dropped segments' docs disappear,
    survivors keep their ids).

    A listed terms file that is no partition's own (a merge's output)
    is checked once too, but holds postings of many partitions: its
    errors are reported and nothing is dropped for them; the index
    needs a rebuild (``build_index``) or a restore.
    Returns {"dropped": pids, "docs_deleted": n, "errors": [...]}."""
    from .deletes import write_deletes

    man = IndexManifest.load(index_dir)
    already = set(man.exorcised)
    own = {p["segment"]: p["partition_id"] for p in man.partitions}
    bad: set[int] = set()
    errors: list[str] = []
    for unit in _units(man):
        kind, key = unit
        pid = own.get(key) if kind == "terms" else key
        if pid in already:
            continue  # quarantined in a previous exorcism
        rep = _check_unit(index_dir, man, unit, sample_terms, False)
        errors.extend(rep["errors"])
        if rep["errors"] and pid is not None:
            bad.add(int(pid))
    bad = sorted(bad)
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
