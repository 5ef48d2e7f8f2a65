"""Multi-field indexes: one sub-index per field, shared doc-id space.

Lucene documents carry many typed fields (``document/Document.java:41-43``,
``FieldType`` knobs); postings are per-(field, term). Here each field gets
its own sub-index under ``out_dir/fields/<name>`` built from the SAME
partition plan, so ``doc_id`` is identical across fields and cross-field
boolean queries compose on doc-id arrays with no joins — the per-field
postings-format layout (``codecs/perfield/PerFieldPostingsFormat.java``)
expressed as directories.

Field config mirrors FieldType: ``{"content": {"analyzer": "standard",
"positions": True}, "lang": {"analyzer": "keyword"}}`` — a ``keyword``
analyzer indexes the raw value as one token (StringField semantics).
"""

from __future__ import annotations

import json
import os

from ..analysis import Analyzer, register_analyzer
from .build import build_index
from .merge import merge_index

MULTI_MANIFEST = "multi_manifest.json"


class KeywordAnalyzer(Analyzer):
    """Whole value as a single un-tokenized term (StringField /
    KeywordAnalyzer semantics)."""

    name = "keyword"

    def tokens(self, text: str) -> list[str]:
        return [text] if text else []


register_analyzer("keyword", KeywordAnalyzer())


def _stage_copy_fields(source: str, staged_dir: str,
                       copy_map: dict[str, list[str]]) -> str:
    """Solr copyField (``schema.xml <copyField source=.. dest=..>`` —
    ``solr/core/.../schema/IndexSchema.java`` copyFieldsMap): append
    each destination column as the space-joined concatenation of its
    source columns. One Ray task per input file, SAME file names out,
    so the partition plan (and therefore the shared doc-id space) is
    identical to building from the original source."""
    import ray

    os.makedirs(staged_dir, exist_ok=True)
    files = sorted(
        f for f in os.listdir(source) if f.endswith(".parquet")
    ) if os.path.isdir(source) else [os.path.basename(source)]
    src_dir = source if os.path.isdir(source) else os.path.dirname(source)

    @ray.remote
    def stage_one(fname: str) -> str:
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        t = pq.read_table(os.path.join(src_dir, fname))
        for dest, srcs in copy_map.items():
            col = t[srcs[0]].cast(pa.string())
            for s in srcs[1:]:
                col = pc.binary_join_element_wise(
                    col, t[s].cast(pa.string()), " ")
            t = t.append_column(dest, col)
        out = os.path.join(staged_dir, fname)
        pq.write_table(t, out + ".tmp")
        os.replace(out + ".tmp", out)
        return out

    done = [f for f in files
            if os.path.exists(os.path.join(staged_dir, f))]
    todo = [f for f in files if f not in set(done)]
    if todo:
        ray.get([stage_one.remote(f) for f in todo])
    return staged_dir


def build_multi_index(
    source: str,
    out_dir: str,
    fields: dict[str, dict],
    *,
    copy_fields: dict[str, list[str]] | None = None,
    rows_per_partition: int = 20_000,
    merge: bool = True,
    **kw,
) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    if copy_fields:
        source = _stage_copy_fields(
            source, os.path.join(out_dir, "_copyfields"), copy_fields)
        for dest in copy_fields:
            fields.setdefault(dest, {"analyzer": "standard"})
    manifests = {}
    for fname, cfg in fields.items():
        fdir = os.path.join(out_dir, "fields", fname)
        os.makedirs(fdir, exist_ok=True)
        # per-field codec granularity (PerFieldPostingsFormat.java):
        # each field picks its own analyzer + index options
        man = build_index(
            source, fdir, text_field=cfg.get("source_column", fname),
            analyzer=cfg.get("analyzer", "standard"),
            store_positions=cfg.get("positions", False),
            store_offsets=cfg.get("offsets", False),
            store_payloads=cfg.get("payloads", False),
            rows_per_partition=rows_per_partition, **kw,
        )
        if merge:
            merge_index(fdir)
        manifests[fname] = {"dir": f"fields/{fname}",
                            "analyzer": man.analyzer,
                            "max_doc": man.max_doc,
                            # per-field similarity (schema.xml's
                            # <similarity> inside <fieldType>)
                            "k1": cfg.get("k1"),
                            "b": cfg.get("b"),
                            "codec": {
                                "positions": cfg.get("positions", False),
                                "offsets": cfg.get("offsets", False),
                                "payloads": cfg.get("payloads", False),
                            }}
    top = {"fields": manifests,
           "default_field": next(iter(fields))}
    tmp = os.path.join(out_dir, MULTI_MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(top, f, indent=1)
    os.replace(tmp, os.path.join(out_dir, MULTI_MANIFEST))
    return top
