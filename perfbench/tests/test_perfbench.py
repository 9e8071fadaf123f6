"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The generator and oracle tests need no Ray session; the last tests run
the benchmark command (about a minute each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [ROOT, BENCH]

import gen  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402


def _declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("skewed", [False, True])
def test_generator_is_deterministic_per_seed(tmp_path, skewed):
    for d, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.stage_inputs(str(tmp_path / d), seed, 3_000, skewed)
    a, b, c = (pq.read_table(str(tmp_path / d / "docs.parquet")) for d in "abc")
    assert a.equals(b)
    assert not a.equals(c)
    assert a.column_names == ["pid", "doc_id", "spans", "lon", "lat", "geometry", "value"]


def test_skewed_table_puts_the_hot_share_in_the_hot_cells():
    idx = gen.doc_window(5, 20_000)
    lon, lat = gen.doc_coords(5, idx, skewed=True)
    origin = gen.hot_cell_origins(5)
    in_hot = np.zeros(len(lon), dtype=bool)
    for x0, y0 in origin:
        in_hot |= (lon >= x0) & (lon < x0 + gen.HOT_RES) & (lat >= y0) & (lat < y0 + gen.HOT_RES)
    assert abs(in_hot.mean() - gen.HOT_SHARE) < 0.02
    per_cell = in_hot.sum() / gen.HOT_CELLS
    assert per_cell > 4 * jobs.HOT_THRESHOLD   # the hot cells are salted


def test_duckdb_join_oracle_matches_the_pip_kernel(tmp_path):
    from lib_gdal_ray.functions import derive
    from lib_gdal_ray.geom import pip

    gen.stage_inputs(str(tmp_path), 3, 4_000, skewed=True)
    want, _knn = oracle.shuffle_oracle(str(tmp_path))
    docs = pq.read_table(str(tmp_path / "docs.parquet")).to_pandas()
    rows = []
    for z in range(gen.N_ZONES):
        inside = pip.points_in_multipolygon(docs["lon"].to_numpy(), docs["lat"].to_numpy(),
                                            [derive.zone_polygon_rings(z)])
        rows += [(p, z) for p in docs["pid"].to_numpy()[inside]]
    got = pd.DataFrame(rows, columns=["pid", "zone_id"])
    assert len(got) > 0
    assert oracle._compare("join", got, want, ["pid", "zone_id"]) == []


def _tiles():
    return pd.DataFrame({"tile_x": [1, 2, 3], "tile_y": [4, 4, 5], "z": [5, 5, 5],
                         "nonzero": [10, 3, 7], "total": [12.5, 0.3, 99.0],
                         "checksum": [11, 22, 33]})


def test_check_headline_fails_on_wrong_output():
    want = _tiles()
    assert oracle.check_headline(want.sample(frac=1, random_state=1), want) == []
    wrong = want.copy()
    wrong.loc[1, "total"] += 0.1
    assert oracle.check_headline(wrong, want)
    assert oracle.check_headline(want.iloc[:2], want)


def test_check_shuffle_fails_on_wrong_output():
    join = pd.DataFrame({"pid": [1, 2, 2], "zone_id": [0, 3, 4]})
    knn = pd.DataFrame({"pid": [1, 1, 1], "rank": [1, 2, 3], "neighbor_id": [9, 8, 7],
                        "dist2": [0.5, 1.5, 2.5], "exact": [True] * 3})
    assert oracle.check_shuffle(join, knn, join, knn.drop(columns="exact")) == []
    swapped = knn.assign(neighbor_id=[9, 7, 8])
    assert oracle.check_shuffle(join, swapped, join, knn)
    assert oracle.check_shuffle(join.iloc[1:], knn, join, knn)


def test_check_tiles_fails_on_wrong_resume_or_tile():
    want = _tiles()
    pending = list(range(jobs.FAIL_BAND, jobs.N_BANDS))
    cycle = {"raised": True, "uncommitted": pending, "ran": pending}
    assert oracle.check_tiles(cycle, want, want) == []
    assert oracle.check_tiles(dict(cycle, ran=list(range(jobs.N_BANDS))), want, want)
    assert oracle.check_tiles(dict(cycle, raised=False), want, want)
    assert oracle.check_tiles(cycle, want.assign(checksum=[11, 22, 34]), want)


def _run(cwd, *args, timeout=180):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload,trace,kind", [
    ("headline_pip_tile", "0", "end_to_end"),
    ("shuffle_join_knn", "1", "per_layer"),
])
def test_printed_metrics_are_declared(workload, trace, kind):
    p = _run(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared(kind)


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), "--workload", "headline_pip_tile", "--seed", "1",
             "--seconds", "1", "--trace", "0", timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
