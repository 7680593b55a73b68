"""Benchmark entry point for the lcftraffic pipeline.

    python3 perfbench/run.py --workload corpus-6h --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Per workload: set up its inputs (several times when one set-up is short,
reporting the median as ``setup_s``), then time the closed-loop units in a
worker process of their own (``workloads.py``). With ``--trace 1`` a second,
traced worker gives the per-module metrics, and the tracing overhead is the
traced minus the untraced ``wall_s``. Human-readable lines go first; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.
See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from checks import Ledger  # noqa: E402
from tracer import per_layer_names  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# never used while writing a change; kept to confirm a claimed gain
HELD_OUT_SEED = 9001

# a set-up is repeated while the repeats stay under this budget
SETUP_REPEATS, SETUP_BUDGET_S = 5, 5.0
CHILD_TIMEOUT_S = 170.0        # per workload; a run must end within 180 s

# metric -> unit; the first three are the gated end-to-end metrics
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "sim_hours_per_s": "h/s", "train_samples_per_s": "1/s",
    "predict_fields_per_s": "1/s", "trips_per_s": "1/s",
    "trip_ms.p50": "ms", "trip_ms.p99": "ms", "trip_ms.samples": "count",
    "speed_mae_kmh": "km/h", "mfd_speed_mae_kmh": "km/h", "trip_mae_s": "s",
    "ops_failed_ratio": "ratio",
}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"calls": "count", "busy_s": "s", "self_s": "s", "wall_s": "s",
            "overhead_s": "s", "busy_pct": "%", "self_pct": "%", "bytes": "B",
            "gflop": "GFLOP", "max": "veh"}.get(stat, "count")


def _blas_threads() -> int | None:
    """Thread count of the BLAS library numpy loaded, read through ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(), "held_out_seed": HELD_OUT_SEED}


def run_setup(workload, work: str, seed: int, ledger) -> list[float]:
    """Set the workload up, again from scratch while repeats are cheap;
    the last set-up's files stay for the timed part."""
    times: list[float] = []
    while True:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = time.perf_counter()
        workload.setup(work, seed, ledger)
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_REPEATS or sum(times) + times[-1] > SETUP_BUDGET_S:
            return times


def run_worker(name: str, work: str, seed: int, seconds: float, trace: int,
               deadline: float) -> dict:
    log = os.path.join(work, f"worker{trace}.log")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work]
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, cwd=ROOT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out (trace={trace})"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log) as fh:
            tail = fh.read()[-2000:]
        return {"error": f"worker exit {proc.returncode} (trace={trace}): {tail}"}
    return json.loads(lines[-1])


def run_workload(name: str, workload, seed: int, seconds: float, trace: int,
                 deadline: float) -> tuple[dict, dict, dict, int, list[str]]:
    """(gated metrics, end-to-end metrics, per-module metrics, attempted,
    failures) of one workload."""
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    ledger = Ledger()
    try:
        setups = run_setup(workload, work, seed, ledger)
        results = [run_worker(name, work, seed, seconds, 0, deadline)]
        if trace:
            results.append(run_worker(name, work, seed, seconds, 1, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # kept while another run uses it
            os.rmdir(WORK_ROOT)
    failures = list(ledger.failures)
    attempted = ledger.attempted
    for res in results:
        if "error" in res:
            attempted += 1
            failures.append(res["error"])
        else:
            attempted += res["attempted"]
            failures += res["failures"]
    if any("error" in res for res in results):
        return {}, {}, {}, attempted, failures

    units = results[0]["units"]
    detail = {key: statistics.median(u[key] for u in units) for key in units[0]}
    detail.update(setup_s=statistics.median(setups),
                  peak_rss_mb=results[0]["peak_rss_mb"],
                  units=len(units), setup_repeats=len(setups))
    layers: dict = {}
    if trace:
        layers = results[1]["per_layer"]
        traced_wall = results[1]["units"][0]["wall_s"]
        for key in [k for k in layers if k.endswith(("busy_s", "self_s"))]:
            layers[key[:-1] + "pct"] = 100.0 * layers[key] / traced_wall
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - detail["wall_s"]
        # a boundary this workload never crosses reads 0
        gated = {key: layers.get(key, 0) for key in per_layer_names()}
    else:
        gated = {key: detail[key] for key in END_TO_END}
    return gated, detail, layers, attempted, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus-6h", "toy-train", "large-grid", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lcftraffic", "__init__.py")):
        print(f"error: no lcftraffic sources under {ROOT}/src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    prov = provenance()
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if prov["blas_threads"] and prov["blas_threads"] > prov["nproc"]:
        print(f"warning: BLAS uses {prov['blas_threads']} threads on "
              f"{prov['nproc']} CPUs; timings will be noisy", file=sys.stderr)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failures = {}, 0, []
    for name in names:
        gated, detail, layers, n_ops, fails = run_workload(
            name, WORKLOADS[name], args.seed, args.seconds, args.trace,
            time.monotonic() + CHILD_TIMEOUT_S)
        attempted += n_ops
        failures += [f"{name}: {f}" for f in fails]
        detail["ops_failed_ratio"] = len(fails) / max(n_ops, 1)
        for key, value in detail.items():
            print(f"metric {name} {key} = {value!r} {UNITS.get(key, 'count')}")
        for key, value in sorted(layers.items()):
            print(f"layer {name} {key} = {value!r} {per_layer_unit(key)}")
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in gated.items():
            unit = per_layer_unit(key) if args.trace else UNITS[key]
            metrics[prefix + key] = {"value": value, "unit": unit}
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
