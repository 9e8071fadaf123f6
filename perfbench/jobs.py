"""The three benchmark jobs, composed from the engine's public API.

Each job starts from the staged Parquet files (read through
``sources.tables.read_table``) and ends with its result on the driver,
so a job's wall time is what a caller of the engine waits for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd
import ray.data

from lib_gdal_ray.pipelines import rasterize as rast
from lib_gdal_ray.pipelines import tiles
from lib_gdal_ray.pipelines.catalog import sites_table, zone_polygon_table
from lib_gdal_ray.pipelines.knn import shuffle_knn_join
from lib_gdal_ray.pipelines.spatial_join import broadcast_pip_join, shuffle_pip_join
from lib_gdal_ray.pipelines.tiling_job import run_tiling_job
from lib_gdal_ray.sources import tables
from lib_gdal_ray.state.manifest import Manifest

JOIN_RES = 5.0
BASE_Z, OVERVIEW_Z = 8, 5
# post-combiner exchanges are small: bound them as bench.py does
SHUFFLE_PARTITIONS = 16
KNN_K, KNN_RES, KNN_MAX_RING = 3, 20.0, 4   # rounds at rings 1, 2 and 4
HOT_THRESHOLD = 500   # rows per cell; the skewed table's hot cells exceed it
TILE_Z, N_BANDS, FAIL_BAND = 4, 8, 4


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    skewed: bool


WORKLOADS = {w.name: w for w in (
    Workload("headline_pip_tile", 200_000, skewed=False),
    Workload("shuffle_join_knn", 10_000, skewed=True),
    Workload("tile_write_resume", 20_000, skewed=False),
)}


def read_docs(data_dir: str, columns) -> ray.data.Dataset:
    return tables.read_table(data_dir, "docs", columns=list(columns))


def headline(data_dir: str) -> pd.DataFrame:
    """PIP join -> rasterize z8 (sum of value) -> overview to z5 ->
    per-tile summary."""
    zones = zone_polygon_table(data_dir)
    joined = broadcast_pip_join(read_docs(data_dir, ["lon", "lat", "value"]),
                                zones, "geometry", ["zone_id"], res=JOIN_RES)
    base = rast.rasterize_pixels(joined, BASE_Z, value_col="value", merge_alg="add",
                                 shuffle_partitions=SHUFFLE_PARTITIONS)
    z5 = tiles.overview_to_level(base, BASE_Z, OVERVIEW_Z, how="sum",
                                 shuffle_partitions=SHUFFLE_PARTITIONS)
    return rast.tile_summary(z5, shuffle_partitions=SHUFFLE_PARTITIONS).to_pandas()


def shuffle_join_knn(data_dir: str):
    """Salted shuffle PIP join plus shuffle kNN (k=3) over the skewed
    table -> (join rows, kNN rows)."""
    zones = ray.data.from_arrow(zone_polygon_table(data_dir))
    sites = ray.data.from_arrow(sites_table(data_dir))
    docs = read_docs(data_dir, ["pid", "lon", "lat"])
    joined = shuffle_pip_join(docs, zones, "geometry", ["zone_id"], ["pid"],
                              res=JOIN_RES, auto_salt=True,
                              hot_threshold=HOT_THRESHOLD).to_pandas()
    knn = shuffle_knn_join(docs, sites, KNN_K, "site_id", "slon", "slat",
                           res=KNN_RES, max_ring=KNN_MAX_RING, auto_salt=True,
                           hot_threshold=HOT_THRESHOLD).to_pandas()
    return joined, knn


def tile_write_resume(source, out_dir: str, lineage: str) -> dict:
    """GeoTIFF tiling job over `source()` killed by `fail_on_band`, then
    resumed.

    Returns the two runs' wall times, whether the first run raised the
    injected failure, the bands left uncommitted by it (read from the
    manifest between the runs, outside both timings) and the resumed
    run's `ran` list."""
    kwargs = dict(z=TILE_Z, lineage=lineage, n_bands=N_BANDS, value_col="value",
                  output_format="geotiff")
    raised = False
    t0 = time.perf_counter()
    try:
        run_tiling_job(source, out_dir, fail_on_band=FAIL_BAND, **kwargs)
    except RuntimeError as e:
        raised = "injected failure" in str(e)
    fail_s = time.perf_counter() - t0
    done = Manifest(out_dir).completed(lineage)
    uncommitted = [b for b in range(N_BANDS) if str(b) not in done]
    t1 = time.perf_counter()
    res = run_tiling_job(source, out_dir, **kwargs)
    resume_s = time.perf_counter() - t1
    return {"fail_s": fail_s, "resume_s": resume_s, "raised": raised,
            "uncommitted": uncommitted, "ran": res["ran"]}
