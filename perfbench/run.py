"""Benchmark of the spatial-join + tiling engine.

    python3 perfbench/run.py --workload headline_pip_tile --seed 1 --seconds 10 --trace 0

Run from the repository root. Stages the seed's inputs, then runs the
workload as a closed loop (one job at a time; the next job starts only
after the previous one finished) and checks every job's output against
an oracle computed outside the timed region. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json. The run sets
  up three Ray sessions (session start + input staging + one warm-up
  job each, whose median CPU time is `setup_s`) and splits the measured
  seconds between them; jobs are pooled into `docs_per_cpu_s`. Wall
  times go to the summary line.
* ``--trace 1``: the per-layer metrics (see layers.py), from one session.

Ray runs in this process with ``num_cpus`` = the count GNU ``nproc``
prints. Exits non-zero, without a result line, if any output misses its
oracle or the engine cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SESSIONS = 3
# AF_UNIX socket paths are limited to 107 bytes; Ray appends ~62 bytes
# of session and socket names to its temp dir
_MAX_RAY_TMP = 44


def nproc() -> int:
    """The CPU count GNU `nproc` prints: the affinity mask, or
    OMP_NUM_THREADS when that is set."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def declared_units(trace: bool) -> dict:
    """{metric: unit} as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and every
    live process it started (Ray's GCS, raylet and workers, each with its
    reaped children). Unlike wall time, it does not grow when the host
    steals CPU from this machine or runs other tenants on its cores."""
    parent, ticks = {}, {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:   # the process has exited
            continue
        pid = int(name)
        parent[pid] = int(fields[1])
        ticks[pid] = sum(int(x) for x in fields[11:15])   # utime stime cutime cstime
    children = {}
    for pid, ppid in parent.items():
        children.setdefault(ppid, []).append(pid)
    # this process's own children times would include whole Ray
    # sessions reaped at shutdown: count only its own user + system
    own = os.times()
    total, todo = 0, list(children.get(os.getpid(), ()))
    while todo:
        pid = todo.pop()
        total += ticks.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return own.user + own.system + total / os.sysconf("SC_CLK_TCK")


class RaySession:
    """One local Ray session owned by this process."""

    def __enter__(self):
        import ray
        from ray.data import DataContext

        tmp = os.path.join(WORK, "ray")
        os.makedirs(tmp, exist_ok=True)
        if len(tmp) > _MAX_RAY_TMP:
            print(f"perfbench: {tmp} is too long for Ray's sockets; "
                  "using Ray's default temp dir", file=sys.stderr)
            tmp = None
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 ** 2, _temp_dir=tmp)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return self

    def __exit__(self, *exc):
        import ray

        ray.shutdown()


class PeakRSS:
    """Peak resident set of this (driver) process over a window:
    VmHWM after resetting it through /proc/self/clear_refs."""

    def __init__(self):
        self.peak_kb = 0

    @staticmethod
    def _hwm_kb() -> int:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc/self/status")

    def __enter__(self):
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return self

    def __exit__(self, *exc):
        self.peak_kb = max(self.peak_kb, self._hwm_kb())


class Runner:
    """Stages inputs, runs and checks jobs of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        import jobs

        self.w = jobs.WORKLOADS[workload]
        self.seed = seed
        self.data_dir = os.path.join(WORK, "data")
        self.oracle = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.info = {}
        self._n_out = 0

    def stage(self) -> None:
        import gen

        shutil.rmtree(self.data_dir, ignore_errors=True)
        gen.stage_inputs(self.data_dir, self.seed, self.w.n_docs, self.w.skewed)

    def compute_oracle(self) -> None:
        """Untimed; needs the staged inputs and, for the tiling
        workload, a Ray session (the reference is the engine's own
        tile_summary)."""
        import oracle

        if self.w.name == "headline_pip_tile":
            self.oracle = oracle.headline_oracle(self.data_dir)
        elif self.w.name == "shuffle_join_knn":
            self.oracle = oracle.shuffle_oracle(self.data_dir)
        else:
            import jobs
            from lib_gdal_ray.pipelines import rasterize as rast

            px = rast.rasterize_pixels(jobs.read_docs(self.data_dir, ["lon", "lat", "value"]),
                                       jobs.TILE_Z, value_col="value")
            self.oracle = rast.tile_summary(px).to_pandas()

    def run_job(self):
        """-> (wall seconds, CPU seconds, output). Only the job itself is
        measured."""
        import jobs

        if self.w.name == "tile_write_resume":
            self._n_out += 1
            out_dir = os.path.join(WORK, f"tiles-{self._n_out}")
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            lineage = f"perfbench:seed={self.seed}:n={self.w.n_docs}:z={jobs.TILE_Z}"
        c0, t0 = tree_cpu_s(), time.perf_counter()
        if self.w.name == "headline_pip_tile":
            out = jobs.headline(self.data_dir)
        elif self.w.name == "shuffle_join_knn":
            out = jobs.shuffle_join_knn(self.data_dir)
        else:
            out = jobs.tile_write_resume(
                lambda: jobs.read_docs(self.data_dir, ["lon", "lat", "value"]), out_dir, lineage)
            out["out_dir"] = out_dir
        return time.perf_counter() - t0, tree_cpu_s() - c0, out

    def check(self, out) -> None:
        """Compare one job's output with the oracle and record it."""
        import oracle

        if self.w.name == "headline_pip_tile":
            errs = oracle.check_headline(out, self.oracle)
        elif self.w.name == "shuffle_join_knn":
            errs = oracle.check_shuffle(*out, *self.oracle)
        else:
            tiles = oracle.geotiff_tiles(out["out_dir"])
            errs = oracle.check_tiles(out, tiles, self.oracle)
            self.info.setdefault("resume_s", []).append(out["resume_s"])
            self.info.setdefault("out_bytes", []).append(int(tiles["bytes"].sum()))
            shutil.rmtree(out["out_dir"], ignore_errors=True)
        self.record(errs)

    def record(self, errs: list) -> None:
        """Count one checked output; `errs` are its oracle mismatches."""
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs)

    def timed_job(self):
        """-> (wall seconds, CPU seconds) of one checked job, or None if
        it raised."""
        try:
            dt, cpu, out = self.run_job()
        except Exception as e:  # a job that raises is a failed attempt
            self.record([f"{self.w.name}: {type(e).__name__}: {e}"])
            return None
        self.check(out)
        return dt, cpu


def run_e2e(r: Runner, seconds: float) -> dict:
    setups, jobs_s, rss = [], [], PeakRSS()
    for _ in range(SESSIONS):
        c0 = tree_cpu_s()
        with RaySession():
            r.stage()
            _dt, _cpu, warm = r.run_job()
            setups.append(tree_cpu_s() - c0)
            if r.oracle is None:
                r.compute_oracle()
            r.check(warm)
            end = time.perf_counter() + seconds / SESSIONS
            with rss:
                while True:
                    job = r.timed_job()
                    if job is None:   # the run has failed; stop loading it
                        break
                    jobs_s.append(job)
                    if time.perf_counter() >= end:
                        break
    if not jobs_s:
        raise RuntimeError("no job completed")
    wall, cpu = zip(*jobs_s)
    r.info["job_wall_s"] = [round(t, 3) for t in wall]
    r.info["job_cpu_s"] = [round(t, 3) for t in cpu]
    r.info["docs_per_wall_s"] = r.w.n_docs / statistics.median(wall)
    return {
        "setup_s": statistics.median(setups),
        "docs_per_cpu_s": r.w.n_docs / statistics.median(cpu),
        "driver_rss_mb": rss.peak_kb / 1024.0,
    }


def run_traced(r: Runner, seconds: float) -> dict:
    import layers

    with RaySession():
        r.stage()
        _dt, _cpu, warm = r.run_job()
        r.compute_oracle()
        r.check(warm)
        return layers.traced_run(r, seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [ROOT, HERE]
    # Ray workers do not inherit sys.path; they import the engine from here
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    try:
        import jobs
        import lib_gdal_ray
    except ImportError as e:
        print(f"perfbench: cannot import the engine: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(lib_gdal_ray.__file__))) != ROOT:
        print(f"perfbench: the engine was imported from {lib_gdal_ray.__file__}, "
              f"not from {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(jobs.WORKLOADS)}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    r = Runner(args.workload, args.seed)
    try:
        metrics = (run_traced if trace else run_e2e)(r, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = declared_units(trace)
    if sorted(metrics) != sorted(units):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 3
    for e in r.errors:
        print(f"perfbench: MISMATCH {e}", file=sys.stderr)
    summary = {"workload": r.w.name, "seed": args.seed, "n_docs": r.w.n_docs,
               "nproc": nproc(), "num_cpus": nproc(),
               "failed_frac": r.failed / max(1, r.attempted)}
    if r.info.get("resume_s"):
        summary["resume_s"] = statistics.median(r.info["resume_s"])
        summary["out_bytes_per_doc"] = statistics.median(r.info["out_bytes"]) / r.w.n_docs
    summary.update({k: v for k, v in r.info.items()
                    if k in ("docs_per_wall_s", "job_wall_s", "job_cpu_s")})
    print("perfbench summary " + json.dumps(summary))
    if r.failed:
        return 1
    print(json.dumps({
        "correct": True, "attempted": r.attempted, "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
