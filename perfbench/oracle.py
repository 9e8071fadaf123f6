"""Output oracles, computed outside every timed region, and the checks
that compare each job's output with them.

* PIP join rows and kNN rows: DuckDB over the staged Parquet, reusing
  the catalog's SQL fragments (`sql_pip_join_polygons`, `SQL_KNN`,
  `_pixel_sql`) with the catalog's event-point subquery swapped for
  the staged doc table.
* Per-z5-tile `total`/`nonzero` of the headline: the same DuckDB join,
  rasterized at z8 and reduced to z5 in SQL.
* GeoTIFF tiles: each committed tile is decoded and its GDAL checksum,
  `total` and `nonzero` are compared with the engine's `tile_summary`
  of the same input (computed once per run, untimed).

Every check returns a list of mismatch messages; empty means correct.
"""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd

from lib_gdal_ray.codecs.tiff import decode_geotiff
from lib_gdal_ray.pipelines import catalog
from lib_gdal_ray.pipelines.rasterize import gdal_checksum

from jobs import BASE_Z, FAIL_BAND, N_BANDS, OVERVIEW_Z

_DOC_POINTS = "(SELECT pid AS event_id, lon, lat FROM docs)"
_SHIFT = BASE_Z - OVERVIEW_Z          # z8 pixel -> z5 pixel
_TILE_BITS = 8                        # 256-px tiles


def _connect(data_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for name in ("docs", "nation", "supplier"):
        path = os.path.join(data_dir, f"{name}.parquet")
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
    return con


def _pip_sql() -> str:
    return catalog.sql_pip_join_polygons().replace(catalog._POINTS_SQL, _DOC_POINTS)


def headline_oracle(data_dir: str) -> pd.DataFrame:
    gx, gy = catalog._pixel_sql(BASE_Z, lon="d.lon", lat="d.lat")
    sql = f"""
    WITH j AS ({_pip_sql()}),
    px AS (SELECT d.value, {gx} AS gx, {gy} AS gy
           FROM docs d JOIN j ON d.pid = j.event_id),
    p5 AS (SELECT gx >> {_SHIFT} AS x5, gy >> {_SHIFT} AS y5, sum(value) AS burn
           FROM px GROUP BY 1, 2)
    SELECT x5 >> {_TILE_BITS} AS tile_x, y5 >> {_TILE_BITS} AS tile_y,
           sum(burn) AS total, count(*) FILTER (WHERE burn <> 0) AS nonzero
    FROM p5 GROUP BY 1, 2"""
    with _connect(data_dir) as con:
        return con.execute(sql).df()


def shuffle_oracle(data_dir: str):
    with _connect(data_dir) as con:
        join = con.execute(_pip_sql()).df().rename(columns={"event_id": "pid"})
        knn = con.execute(catalog.SQL_KNN.replace(catalog._POINTS_SQL, _DOC_POINTS)).df()
    return join, knn.rename(columns={"event_id": "pid"})


def _by_keys(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(list(keys)).reset_index(drop=True)


def _compare(name: str, got: pd.DataFrame, want: pd.DataFrame, keys, exact=(),
             close=()) -> list:
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, oracle has {len(want)}"]
    g, w = _by_keys(got, keys), _by_keys(want, keys)
    errs = []
    for c in list(keys) + list(exact):
        if not np.array_equal(g[c].to_numpy(np.int64), w[c].to_numpy(np.int64)):
            errs.append(f"{name}: column {c} differs from the oracle")
    for c in close:
        if not np.allclose(g[c].to_numpy(np.float64), w[c].to_numpy(np.float64),
                           rtol=1e-9, atol=1e-9):
            errs.append(f"{name}: column {c} differs from the oracle")
    return errs


def check_headline(out: pd.DataFrame, want: pd.DataFrame) -> list:
    if (out["z"] != OVERVIEW_Z).any():
        return [f"headline: tiles outside z{OVERVIEW_Z}"]
    return _compare("headline tiles", out, want, ["tile_x", "tile_y"],
                    exact=["nonzero"], close=["total"])


def check_shuffle(join: pd.DataFrame, knn: pd.DataFrame, want_join: pd.DataFrame,
                  want_knn: pd.DataFrame) -> list:
    errs = _compare("shuffle join", join, want_join, ["pid", "zone_id"])
    if not knn["exact"].all():
        errs.append("knn: rows not marked exact")
    return errs + _compare("knn", knn, want_knn, ["pid", "rank"],
                           exact=["neighbor_id"], close=["dist2"])


def geotiff_tiles(out_dir: str) -> pd.DataFrame:
    """Decode every committed tile: one row per file with its band
    partition, tile address, GDAL checksum, total, nonzero and bytes."""
    rows = []
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            if not f.endswith(".tif"):
                continue
            path = os.path.join(root, f)
            parts = os.path.relpath(path, out_dir).split(os.sep)
            if not parts[0].startswith("part="):
                continue   # uncommitted output
            with open(path, "rb") as fh:
                buf = fh.read()
            arr, _meta = decode_geotiff(buf)
            rows.append({"band": int(parts[0].split("=")[1]), "z": int(parts[-3]),
                         "tile_x": int(parts[-2]), "tile_y": int(f[:-4]),
                         "checksum": gdal_checksum(arr), "total": float(arr.sum()),
                         "nonzero": int((arr != 0).sum()), "bytes": len(buf)})
    return pd.DataFrame(rows, columns=["band", "z", "tile_x", "tile_y", "checksum",
                                       "total", "nonzero", "bytes"])


def check_tiles(cycle: dict, tiles: pd.DataFrame, want: pd.DataFrame) -> list:
    errs = []
    if not cycle["raised"]:
        errs.append("tiling: the first run did not raise the injected failure")
    if cycle["uncommitted"] != list(range(FAIL_BAND, N_BANDS)):
        errs.append(f"tiling: uncommitted bands {cycle['uncommitted']}")
    if cycle["ran"] != cycle["uncommitted"]:
        errs.append(f"tiling: resumed run ran {cycle['ran']}, "
                    f"uncommitted were {cycle['uncommitted']}")
    return errs + _compare("geotiff tiles", tiles, want, ["tile_x", "tile_y"],
                           exact=["checksum", "nonzero"], close=["total"])
