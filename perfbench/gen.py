"""Seeded input generator for the benchmark.

Everything is a pure function of the workload seed: the seed picks the
doc-index window (which docs of the engine's deterministic doc layout
are used) and, for the skewed table, the hot 5-degree cells and which
docs land in them. Tables are built with the engine's own
``sources.synth.make_span_lists`` and ``geom.wkb.points_to_wkb_arrow``
and written to Parquet in fixed-size chunks, so the driver never holds
more than one chunk.

Schema of every doc table:
    pid:int64, doc_id:string, spans:list<struct<kind,text,media_ref,offset>>,
    lon/lat:float64, geometry:binary (WKB point), value:float64
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lib_gdal_ray.functions import derive
from lib_gdal_ray.geom import wkb
from lib_gdal_ray.sources.synth import make_span_lists

CHUNK = 50_000
N_ZONES = 25          # nation keys 0..24 -> the 25 jittered 12-gon zones
N_SITES = 1_000       # supplier keys 1..1000 (TPC-H sf0.1 supplier count)
HOT_RES = 5.0         # hot cells are cells of the 5-degree join grid
HOT_CELLS = 3
HOT_SHARE = 0.3


def doc_window(seed: int, n: int) -> np.ndarray:
    """The seed's window of doc indices into the deterministic layout."""
    start = int(np.random.default_rng(seed).integers(0, 1 << 31))
    return np.arange(start, start + n, dtype=np.int64)


def hot_cell_origins(seed: int) -> np.ndarray:
    """(HOT_CELLS, 2) lower-left corners of the seed's hot cells: the
    grid cells holding the centres of HOT_CELLS distinct zones, so the
    hot docs fall inside polygons and the PIP refine has work to do."""
    rng = np.random.default_rng([seed, 1])
    zones = rng.choice(N_ZONES, HOT_CELLS, replace=False)
    xmin, ymin, xmax, ymax = derive.zone_boxes(zones)
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    return np.stack([np.floor(cx / HOT_RES) * HOT_RES,
                     np.floor(cy / HOT_RES) * HOT_RES], axis=1)


def doc_coords(seed: int, idx: np.ndarray, skewed: bool):
    """lon/lat per doc: the `derive.event_lonlat` layout; in the skewed
    table a seeded HOT_SHARE of docs is moved into the hot cells."""
    lon, lat = derive.event_lonlat(idx + 1)
    if not skewed:
        return lon, lat
    rng = np.random.default_rng([seed, 2])
    n = len(idx)
    hot = rng.random(n) < HOT_SHARE
    which = rng.integers(0, HOT_CELLS, n)
    u, v = rng.random(n), rng.random(n)
    origin = hot_cell_origins(seed)[which]
    lon = np.where(hot, origin[:, 0] + u * HOT_RES, lon)
    lat = np.where(hot, origin[:, 1] + v * HOT_RES, lat)
    return lon, lat


def doc_table(idx: np.ndarray, lon: np.ndarray, lat: np.ndarray) -> pa.Table:
    doc_id = pc.binary_join_element_wise(
        "doc-", pc.utf8_lpad(pc.cast(pa.array(idx), pa.string()), 10, "0"), "")
    return pa.table({
        "pid": pa.array(idx),
        "doc_id": doc_id,
        "spans": make_span_lists(idx),
        "lon": pa.array(lon),
        "lat": pa.array(lat),
        "geometry": wkb.points_to_wkb_arrow(lon, lat),
        "value": pa.array(((idx * 31) % 1000) / 10.0),
    })


def stage_inputs(data_dir: str, seed: int, n_docs: int, skewed: bool) -> None:
    """Write docs.parquet (one row group per CHUNK docs) plus the
    nation/supplier key tables the engine's zone and site constructors and
    the SQL oracle fragments read."""
    os.makedirs(data_dir, exist_ok=True)
    idx = doc_window(seed, n_docs)
    lon, lat = doc_coords(seed, idx, skewed)
    path = os.path.join(data_dir, "docs.parquet")
    writer = None
    try:
        for s in range(0, n_docs, CHUNK):
            t = doc_table(idx[s:s + CHUNK], lon[s:s + CHUNK], lat[s:s + CHUNK])
            if writer is None:
                writer = pq.ParquetWriter(path, t.schema)
            writer.write_table(t)
    finally:
        if writer is not None:
            writer.close()
    pq.write_table(pa.table({"n_nationkey": pa.array(np.arange(N_ZONES, dtype=np.int64))}),
                   os.path.join(data_dir, "nation.parquet"))
    pq.write_table(pa.table({"s_suppkey": pa.array(np.arange(1, N_SITES + 1, dtype=np.int64))}),
                   os.path.join(data_dir, "supplier.parquet"))
