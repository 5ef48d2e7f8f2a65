"""On-disk index caches (``pipelines.flagship.cached_index``): a cached
index whose manifest an older or newer build of the engine wrote is
rebuilt, not handed to a reader that fails on it."""
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.build import MANIFEST, IndexManifest
from lucene_solr_ray.pipelines.flagship import _flagship_index


def _plant_foreign_manifest(index_dir: str) -> None:
    os.makedirs(index_dir, exist_ok=True)
    with open(os.path.join(index_dir, MANIFEST), "w") as f:
        json.dump({"field": "text", "analyzer": "standard", "max_doc": 1,
                   "sum_total_term_freq": 1, "num_partitions": 1,
                   "generation": 1, "a_field_from_another_build": 1}, f)


def test_load_refuses_unknown_manifest_field(tmp_path):
    _plant_foreign_manifest(str(tmp_path))
    with pytest.raises(ValueError, match="rebuild the index"):
        IndexManifest.load(str(tmp_path))


def test_stale_cached_manifest_is_rebuilt(ray_session, tmp_path):
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["table join", "vector table", "stream scan"],
    }), str(sf / "documents.parquet"))
    # the cache is keyed by the corpus path, so this tmp_path's entry is
    # this test's own: plant a manifest another build wrote there
    probe = _flagship_index(str(sf), merged=False)
    shutil.rmtree(probe)
    _plant_foreign_manifest(probe)
    try:
        out = _flagship_index(str(sf))
        assert out == probe
        man = IndexManifest.load(out)
        assert man.max_doc == 3 and man.merged
    finally:
        shutil.rmtree(probe, ignore_errors=True)


def test_format_6_cache_is_refused_and_rebuilt(ray_session, tmp_path):
    """A cached index written in format 6 (every terms file carried
    ``pos_*`` columns) is refused with the rebuild message and rebuilt
    in place."""
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["table join", "vector table", "stream scan"],
    }), str(sf / "documents.parquet"))
    out = _flagship_index(str(sf), merged=False)
    try:
        path = os.path.join(out, MANIFEST)
        with open(path) as f:
            man = json.load(f)
        man["format"] = 6
        with open(path, "w") as f:
            json.dump(man, f)
        with pytest.raises(ValueError, match="format 6, not 7: rebuild"):
            IndexManifest.load(out)
        assert _flagship_index(str(sf), merged=False) == out
        assert IndexManifest.load(out).format == 7
    finally:
        shutil.rmtree(out, ignore_errors=True)
