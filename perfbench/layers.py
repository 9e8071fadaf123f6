"""Traced run: per-layer numbers (layer = engine module).

Spans are recorded here, around calls into the engine's public
functions; nothing inside the engine is instrumented. Each stage's
input is materialized once, then the stage alone is timed as the
median of REPEATS calls, its output materialized. Ray-free kernels run
at fixed sizes that do not depend on the seed.

Every traced run reports every layer: the stages of all three
pipelines run on this workload's doc table, each pipeline on at most
its own workload's doc count. `trace.stage_cover_frac` compares the
stage times of this workload's own pipeline with its end-to-end median
measured in the same session with tracing off; `trace.overhead_s` is
their difference.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import ray.data

from lib_gdal_ray.codecs.tiff import encode_geotiff
from lib_gdal_ray.geom import cells, pip
from lib_gdal_ray.functions import derive
from lib_gdal_ray.pipelines import rasterize as rast
from lib_gdal_ray.pipelines import tiles
from lib_gdal_ray.pipelines.catalog import sites_table, zone_polygon_table
from lib_gdal_ray.pipelines.knn import shuffle_knn_join
from lib_gdal_ray.pipelines.spatial_join import (PolygonCellIndex, broadcast_pip_join,
                                                 precount_cells, shuffle_pip_join)
from lib_gdal_ray.pipelines.tiling_job import band_of_tile_y
from lib_gdal_ray.sources.geotiff import tile_transform_3857, write_geotiff_tiles
from lib_gdal_ray.stages.cell_assign import explode_covering_cells, with_grid_cell
from lib_gdal_ray.state.manifest import Manifest
from lib_gdal_ray.state.metrics import summarize_stats

import jobs
import oracle

REPEATS = 3
KERNEL_POINTS = 1_000_000
PIP_POINTS = 200_000
ENCODE_TILES = 20
EXCHANGE_OPS = ("sort", "aggregate", "repartition")


class Trace:
    """Collects metrics and the Datasets whose operator stats feed the
    per-exchange wall times."""

    def __init__(self):
        self.m = {}
        self.stats = []

    def stage(self, name, fn, *, rows: bool = False):
        """Median of REPEATS timed calls of fn() -> Dataset, materialized
        inside the timing; recorded as `<name>.s` (and `.rows_out`)
        unless name is None. Returns (median seconds, last materialized
        Dataset)."""
        s, out = median_time(lambda: fn().materialize())
        if name is not None:
            self.m[f"{name}.s"] = s
            if rows:
                self.m[f"{name}.rows_out"] = out.count()
        self.stats.append(out)
        return s, out

    def exchange_walls(self) -> None:
        walls = dict.fromkeys(EXCHANGE_OPS, 0.0)
        seen = set()   # a Dataset's stats repeat those of its materialized input
        for ds in self.stats:
            for op in summarize_stats(ds)["operators"]:
                kind = re.sub(r"\W.*", "", op["name"]).lower()
                key = (op["name"], op.get("wall_s"), op.get("rows"))
                if kind in walls and key not in seen:
                    seen.add(key)
                    walls[kind] += op.get("wall_s", 0.0)
        for kind, v in walls.items():
            self.m[f"exchange.{kind}.wall_s"] = v


def median_time(fn):
    """-> (median seconds of REPEATS calls of fn(), last result)."""
    times, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _median_rate(n: int, fn) -> float:
    return n / median_time(fn)[0]


def kernels(t: Trace) -> None:
    """Ray-free kernels at fixed sizes (seed-independent inputs)."""
    idx = np.arange(KERNEL_POINTS, dtype=np.int64)
    lon, lat = derive.event_lonlat(idx + 1)
    rings = derive.zone_polygon_rings(3)
    xmin, ymin = rings[0].min(axis=0)
    xmax, ymax = rings[0].max(axis=0)
    px = xmin + (lon[:PIP_POINTS] + 180.0) / 360.0 * (xmax - xmin)
    py = ymin + (lat[:PIP_POINTS] + 85.0) / 170.0 * (ymax - ymin)
    t.m["geom.pip.points_in_multipolygon.pts_per_s"] = _median_rate(
        PIP_POINTS, lambda: pip.points_in_multipolygon(px, py, [rings]))
    t.m["geom.cells.tile_pixel.pts_per_s"] = _median_rate(
        KERNEL_POINTS, lambda: cells.tile_pixel(lon, lat, jobs.BASE_Z))
    tx, ty, ppx, ppy = cells.tile_pixel(lon, lat, jobs.BASE_Z)
    gx, gy = tx * 256 + ppx, ty * 256 + ppy
    t.m["pipelines.rasterize.pack_pixel.pts_per_s"] = _median_rate(
        KERNEL_POINTS, lambda: rast.pack_pixel(jobs.BASE_Z, gx, gy))
    # a fixed sparse float64 tile: 1 pixel in 16 burnt
    tile = np.zeros((256, 256), dtype=np.float64)
    flat = tile.reshape(-1)
    flat[::16] = ((np.arange(0, flat.size, 16) * 31) % 1000) / 10.0
    transform = tile_transform_3857(jobs.TILE_Z, 3, 5)

    def encode():
        for _ in range(ENCODE_TILES):
            buf = encode_geotiff(tile, transform=transform, epsg=3857,
                                 compression="deflate")
        return buf

    t.m["codecs.tiff.encode_geotiff.tiles_per_s"] = _median_rate(ENCODE_TILES, encode)
    t.m["codecs.tiff.encode_geotiff.bytes_per_tile"] = len(encode())


def _docs(data_dir: str, columns, n: int) -> ray.data.Dataset:
    return jobs.read_docs(data_dir, columns).limit(n).materialize()


def headline_stages(t: Trace, data_dir: str, n: int) -> float:
    """-> seconds of the headline stages after the read."""
    z, sp = jobs.BASE_Z, jobs.SHUFFLE_PARTITIONS
    docs = _docs(data_dir, ["lon", "lat", "value"], n)
    zones = zone_polygon_table(data_dir)
    join_s, joined = t.stage(
        "pipelines.spatial_join.broadcast_pip_join",
        lambda: broadcast_pip_join(docs, zones, "geometry", ["zone_id"], res=jobs.JOIN_RES),
        rows=True)
    # refine yield: joined pairs over the (point, polygon) candidate
    # pairs the cell index hands to the refine step
    index = PolygonCellIndex(zones, "geometry", jobs.JOIN_RES)
    pts = pa.concat_tables(ray.get(docs.to_arrow_refs()))
    cell_ids, per_cell = np.unique(
        cells.grid_cell(pts["lon"].to_numpy(), pts["lat"].to_numpy(), jobs.JOIN_RES),
        return_counts=True)
    cand = sum(int(c) * len(index.candidates(int(u))) for u, c in zip(cell_ids, per_cell))
    t.m["pipelines.spatial_join.candidate_pairs"] = cand
    t.m["pipelines.spatial_join.refine_yield"] = (
        t.m["pipelines.spatial_join.broadcast_pip_join.rows_out"] / max(cand, 1))
    part_s, partials = t.stage(
        "pipelines.rasterize.rasterize_pixels",
        lambda: rast.rasterize_pixels(joined, z, value_col="value", combine=False),
        rows=True)
    comb_s, base = t.stage("pipelines.rasterize.combine_pixel_partials",
                           lambda: rast.combine_pixel_partials(partials, "sum", sp))
    ov_s, z5 = t.stage("pipelines.tiles.overview_to_level",
                       lambda: tiles.overview_to_level(base, z, jobs.OVERVIEW_Z, how="sum",
                                                       shuffle_partitions=sp))
    sum_s, _ = t.stage("pipelines.rasterize.tile_summary",
                       lambda: rast.tile_summary(z5, shuffle_partitions=sp))
    return join_s + part_s + comb_s + ov_s + sum_s


def shuffle_stages(t: Trace, data_dir: str, n: int) -> float:
    """-> seconds of the shuffle-join + kNN stages after the read."""
    docs = _docs(data_dir, ["pid", "lon", "lat"], n)
    zones = ray.data.from_arrow(zone_polygon_table(data_dir))
    sites = ray.data.from_arrow(sites_table(data_dir))
    t.stage("stages.cell_assign.with_grid_cell", lambda: with_grid_cell(docs, jobs.JOIN_RES))
    t.stage("stages.cell_assign.explode_covering_cells",
            lambda: explode_covering_cells(zones, jobs.JOIN_RES, wkb_col="geometry"), rows=True)
    t.m["stages.cell_assign.explode_covering_cells.rows_in"] = zones.count()
    pre_s, hot = median_time(
        lambda: precount_cells(docs, jobs.JOIN_RES, hot_threshold=jobs.HOT_THRESHOLD))
    t.m["pipelines.spatial_join.precount_cells.s"] = pre_s
    t.m["pipelines.spatial_join.precount_cells.hot_cells"] = len(hot)
    join_s, _ = t.stage(
        "pipelines.spatial_join.shuffle_pip_join",
        lambda: shuffle_pip_join(docs, zones, "geometry", ["zone_id"], ["pid"],
                                 res=jobs.JOIN_RES, hot_cells=hot))
    pre_knn_s, hot_knn = median_time(
        lambda: precount_cells(docs, jobs.KNN_RES, hot_threshold=jobs.HOT_THRESHOLD))

    def knn(max_ring):
        return shuffle_knn_join(docs, sites, jobs.KNN_K, "site_id", "slon", "slat",
                                res=jobs.KNN_RES, max_ring=max_ring, hot_cells=hot_knn)

    knn_s, _ = t.stage("pipelines.knn.shuffle_knn_join",
                       lambda: knn(jobs.KNN_MAX_RING), rows=True)
    # a point's first-round result is proven exact when its k-th
    # distance is within one ring (res degrees); base: all points
    first = knn(1).to_pandas()
    kth = first.loc[first["rank"] == jobs.KNN_K, "dist2"]
    t.m["pipelines.knn.first_round_exact_frac"] = (
        float((kth <= jobs.KNN_RES ** 2).sum()) / docs.count())
    return pre_s + join_s + pre_knn_s + knn_s


def tile_stages(t: Trace, runner, n: int, work: str) -> float:
    """-> seconds of the tiling stages after the read: rasterize + write
    over all docs, the same over the resumed bands' docs, and the two
    manifest reads. The killed-and-resumed job's GeoTIFFs are checked
    against the engine's tile_summary and recorded on `runner`."""
    z = jobs.TILE_Z
    docs = _docs(runner.data_dir, ["lon", "lat", "value"], n)
    out = os.path.join(work, "trace-tiles")

    def write_pass(src: ray.data.Dataset, name):
        r_s, pixels = t.stage(None, lambda: rast.rasterize_pixels(src, z, value_col="value"))

        def write():
            shutil.rmtree(out, ignore_errors=True)
            return write_geotiff_tiles(pixels, out, dtype=np.float64)

        w_s, written = t.stage(name, write)
        return r_s + w_s, written.count()

    full_s, n_tiles = write_pass(docs, "sources.geotiff.write_geotiff_tiles")
    t.m["sources.geotiff.write_geotiff_tiles.tiles"] = n_tiles
    pending = np.arange(jobs.FAIL_BAND, jobs.N_BANDS)

    def pending_only(batch: pa.Table) -> pa.Table:
        _tx, ty = cells.lonlat_to_tile(batch["lon"].to_numpy(), batch["lat"].to_numpy(), z)
        return batch.filter(pa.array(np.isin(band_of_tile_y(ty, z, jobs.N_BANDS), pending)))

    rest = docs.map_batches(pending_only, batch_format="pyarrow").materialize()
    resume_s, _ = write_pass(rest, None)

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    lineage = f"perfbench-trace:n={n}"
    cycle = jobs.tile_write_resume(lambda: docs, out, lineage)
    want = rast.tile_summary(rast.rasterize_pixels(docs, z, value_col="value")).to_pandas()
    runner.record(oracle.check_tiles(cycle, oracle.geotiff_tiles(out), want))
    man_s, _ = median_time(lambda: Manifest(out).completed(lineage))
    t.m["state.manifest.Manifest.completed.s"] = man_s
    t.m["pipelines.tiling_job.bands_rerun"] = len(cycle["ran"])
    t.m["pipelines.tiling_job.resume_s"] = cycle["resume_s"]
    out_bytes = sum(os.path.getsize(os.path.join(root, f))
                    for root, _d, files in os.walk(out) for f in files if f.endswith(".tif"))
    t.m["pipelines.tiling_job.out_bytes_per_doc"] = out_bytes / n
    shutil.rmtree(out, ignore_errors=True)
    return full_s + resume_s + 2 * man_s


def traced_run(runner, seconds: float) -> dict:
    """-> {metric: value} for every per-layer metric."""
    w = runner.w
    # end-to-end median in this session, tracing off
    e2e, end = [], time.perf_counter() + seconds
    while len(e2e) < REPEATS or time.perf_counter() < end:
        job = runner.timed_job()
        if job is None:
            break
        e2e.append(job[0])

    t = Trace()
    kernels(t)
    own_cols = {"headline_pip_tile": ["lon", "lat", "value"],
                "shuffle_join_knn": ["pid", "lon", "lat"],
                "tile_write_resume": ["lon", "lat", "value"]}[w.name]
    read_s, _ = t.stage("sources.tables.read_table",
                        lambda: jobs.read_docs(runner.data_dir, own_cols))
    size = {name: min(w.n_docs, wl.n_docs) for name, wl in jobs.WORKLOADS.items()}
    work = os.path.dirname(runner.data_dir)
    stage_s = {
        "headline_pip_tile": headline_stages(t, runner.data_dir, size["headline_pip_tile"]),
        "shuffle_join_knn": shuffle_stages(t, runner.data_dir, size["shuffle_join_knn"]),
        "tile_write_resume": tile_stages(t, runner, size["tile_write_resume"], work),
    }
    t.exchange_walls()
    e2e_med = statistics.median(e2e) if e2e else float("nan")
    own = read_s + stage_s[w.name]
    t.m["trace.e2e_median_s"] = e2e_med
    t.m["trace.stage_sum_s"] = own
    t.m["trace.stage_cover_frac"] = own / e2e_med
    t.m["trace.overhead_s"] = own - e2e_med
    return {k: float(v) for k, v in t.m.items()}
