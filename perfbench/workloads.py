"""The benchmark's three workloads, and the worker that times one of them.

Each workload has a ``setup`` (builds its inputs under a work directory;
timed by ``run.py`` as ``setup_s``) and a ``unit`` (one closed-loop pass
over the timed part: every call waits for the previous one). Inputs come
only from the seed.

Run as a script, this module is the worker process: it loads the inputs a
setup left behind, repeats the unit for the requested seconds (exactly once
when traced), checks every output and prints one JSON object. ``run.py``
starts it in a process of its own so that its peak resident memory is the
workload's alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from checks import (Ledger, check_beats, check_exit_code,  # noqa: E402
                    check_losses, check_record, check_report,
                    check_speed_field, check_truth_errors, percentile,
                    read_report)
from tracer import Tracer, load_package, summarize, traced  # noqa: E402

# Calls go through module attributes, never through names copied into this
# module, so that the tracer's replacements see them.
_lcf = load_package()
cli_mod, evaluate, harness, model, network, partition, scenarios, sim = (
    _lcf[name] for name in ("cli", "evaluate", "harness", "model", "network",
                            "partition", "scenarios", "simulate"))

REFERENCE = sim.SimConfig()                 # the 6-h schedule, 120 windows
V_MIN_KMH = REFERENCE.v_min_kmh
REFERENCE_WINDOWS = REFERENCE.n_windows
REFERENCE_HOURS = REFERENCE.total_s / 3600.0

# acceptance criterion-1 network: 5x5 grid, 100 m, 3 lanes, 0.3 jitter
GRID_5X5 = ["--grid", "5x5", "--link-length", "100", "--lanes", "3",
            "--vff", "25", "--length-jitter", "0.3", "--jitter-seed", "11"]
TOY_SCHEDULE = ["--warmup", "900", "--peak", "5400", "--total", "7200"]
TOY_WINDOWS = 40
TOY_EPOCHS = 8
TOY_MODELS = ("MFD", "MFD-P", "LR", "GAT-GRU-P")
TRIPS = 1000


def cli(argv: list[str]) -> int:
    return cli_mod.main([str(a) for a in argv])


def distinct_destination_od(net, n_pairs: int, rate: float, seed: int):
    """n OD pairs with n distinct destinations, so rerouting work (one
    Dijkstra per destination) is the same for every seed."""
    rng = np.random.default_rng(seed)
    ids = net.link_ids()
    dests = rng.choice(len(ids), size=n_pairs, replace=False)
    pairs = []
    for d in dests:
        o = int(rng.integers(len(ids) - 1))
        o += int(o >= d)                             # any link but d
        pairs.append((ids[o], ids[int(d)]))
    return scenarios.ODMatrix(pairs=tuple(pairs), rates=(float(rate),) * n_pairs)


@contextlib.contextmanager
def captured_records(sink: list):
    """Collect every record ``build_dataset`` simulates, for the output
    checks; the CLI keeps no balance error on disk."""
    inner = scenarios.simulate

    def capture(*args, **kwargs):
        record = inner(*args, **kwargs)
        sink.append(record)
        return record

    scenarios.simulate = capture
    try:
        yield sink
    finally:
        scenarios.simulate = inner


def check_corpus(ledger: Ledger, records: list, n: int, net, windows: int) -> None:
    vff = [lk.vff_kmh for lk in net.links]
    for i in range(n):
        problems = (check_record(records[i], vff, V_MIN_KMH, windows)
                    if i < len(records) else ["scenario raised; excluded"])
        ledger.record(f"scenario {i}", problems)


def _timed_cli(ledger: Ledger, argv: list[str]) -> float:
    t0 = time.perf_counter()
    code = cli(argv)
    wall = time.perf_counter() - t0
    ledger.record(f"cli {argv[0]}", check_exit_code(code))
    return wall


# ---------------------------------------------------------------------------
# corpus-6h: the gen-dataset command on the reference 6-h schedule
# ---------------------------------------------------------------------------

CORPUS_SCENARIOS = 10


def corpus_setup(work: str, seed: int, ledger: Ledger) -> None:
    ledger.record("cli gen-network", check_exit_code(
        cli(["gen-network", "--out", work] + GRID_5X5)))
    net = network.load_network(os.path.join(work, "network.txt"))
    scenarios.save_od(distinct_destination_od(net, 10, 250.0, seed),
                      os.path.join(work, "od.txt"))


def corpus_unit(work: str, seed: int, ledger: Ledger) -> dict:
    net = network.load_network(os.path.join(work, "network.txt"))
    shutil.rmtree(os.path.join(work, "dataset"), ignore_errors=True)
    records: list = []
    with captured_records(records):
        wall = _timed_cli(ledger, ["gen-dataset", "--out", work,
                                   "--od", os.path.join(work, "od.txt"),
                                   "--scenarios", CORPUS_SCENARIOS,
                                   "--seed", seed])
    check_corpus(ledger, records, CORPUS_SCENARIOS, net, REFERENCE_WINDOWS)
    return {"wall_s": wall,
            "sim_hours_per_s": CORPUS_SCENARIOS * REFERENCE_HOURS / wall}


# ---------------------------------------------------------------------------
# toy-train: partition -> train -> evaluate -> travel-time -> report
# ---------------------------------------------------------------------------

def toy_setup(work: str, seed: int, ledger: Ledger) -> None:
    ledger.record("cli gen-network", check_exit_code(
        cli(["gen-network", "--out", work] + GRID_5X5)))
    records: list = []
    with captured_records(records):
        code = cli(["gen-dataset", "--out", work, "--scenarios", 20,
                    "--od-pairs", 10, "--od-rate", 150, "--seed", seed]
                   + TOY_SCHEDULE)
    ledger.record("cli gen-dataset", check_exit_code(code))
    check_corpus(ledger, records, 20, network.load_network(
        os.path.join(work, "network.txt")), TOY_WINDOWS)


def toy_unit(work: str, seed: int, ledger: Ledger) -> dict:
    for stale in ("models", "reports"):
        shutil.rmtree(os.path.join(work, stale), ignore_errors=True)
    with open(os.path.join(work, "dataset", "manifest.json")) as fh:
        n_train = len(json.load(fh)["splits"]["train"])
    n_links = network.load_network(os.path.join(work, "network.txt")).n_links
    models = ",".join(TOY_MODELS)
    common = ["--out", work, "--seed", seed]
    est = ["--epochs", TOY_EPOCHS]
    walls = {}
    for argv in (["partition", "--t-max", 20],
                 ["train", "--model", "gat-gru-p"] + est,
                 ["evaluate", "--models", models] + est,
                 ["travel-time", "--models", models, "--trips", TRIPS] + est,
                 ["report"]):
        walls[argv[0]] = _timed_cli(ledger, [argv[0]] + common + argv[1:])

    reports = os.path.join(work, "reports")
    ledger.record("train losses", check_losses(
        os.path.join(work, "models", "gat-gru-p_history.csv"), TOY_EPOCHS))
    speed = _report(ledger, os.path.join(reports, "speed", "report_table.csv"))
    trip = _report(ledger, os.path.join(reports, "travel_time", "report_table.csv"))
    ledger.record("estimator beats MFD", check_beats(speed, "GAT-GRU-P", "MFD"))
    ledger.record("merged report", [] if os.path.exists(os.path.join(
        reports, "report_table.csv")) else ["missing report_table.csv"])
    samples = n_train * TOY_WINDOWS * n_links * TOY_EPOCHS
    trips = sum(trip.get(m, {}).get("Count", 0) for m in TOY_MODELS)
    nan = float("nan")
    return {"wall_s": sum(walls.values()),
            "train_samples_per_s": samples / walls["train"],
            "trips_per_s": trips / walls["travel-time"],
            "speed_mae_kmh": speed.get("GAT-GRU-P", {}).get("MAE", nan),
            "trip_mae_s": trip.get("GAT-GRU-P", {}).get("MAE", nan),
            "mfd_speed_mae_kmh": speed.get("MFD", {}).get("MAE", nan)}


def _report(ledger: Ledger, path: str) -> dict:
    try:
        table = read_report(path)
    except OSError as exc:
        ledger.record(f"read {os.path.basename(os.path.dirname(path))}", [str(exc)])
        return {}
    ledger.record(f"{os.path.basename(os.path.dirname(path))} report",
                  check_report(table, TOY_MODELS))
    return table


# ---------------------------------------------------------------------------
# large-grid: library-driven simulate -> partition -> predict -> route
# ---------------------------------------------------------------------------

LARGE_OD_PAIRS = 20


def large_setup(work: str, seed: int, ledger: Ledger) -> None:
    os.makedirs(work, exist_ok=True)
    net = network.generate_grid_network(10, 10, 100.0, 3, vff_kmh=25.0,
                                        length_jitter=0.3, jitter_seed=seed)
    network.save_network(net, os.path.join(work, "network.txt"))
    scenarios.save_od(distinct_destination_od(net, LARGE_OD_PAIRS, 250.0, seed),
                      os.path.join(work, "od.txt"))
    ledger.record("large network", [] if net.n_links == 360
                  else [f"{net.n_links} links, expected 360"])


def large_unit(work: str, seed: int, ledger: Ledger) -> dict:
    net = network.load_network(os.path.join(work, "network.txt"))
    od = scenarios.load_od(os.path.join(work, "od.txt"))
    trips = evaluate.generate_trips(
        net, TRIPS, seed=seed,
        horizon=(REFERENCE_WINDOWS // 10, REFERENCE_WINDOWS - 1))
    vff = np.array([lk.vff_kmh for lk in net.links])

    t0 = time.perf_counter()
    record = sim.simulate(net, scenarios.Scenario(
        id=0, od=od, scale=1.0, bus_links=(), seed=seed), REFERENCE)
    t_sim = time.perf_counter()
    part = partition.partition_network(net, record,
                                       partition.PartitionParams(seed=seed))
    estimator = model.LcfModel(model.ModelConfig(seed=seed), model.Normalization(
        feat=network.fit_minmax(network.extract_features(net, part)),
        vmean_lo=float(record.mean_speed.min()),
        vmean_hi=float(record.mean_speed.max()),
        target_lo=float(record.speeds.min()),
        target_hi=float(record.speeds.max())))
    t_pred = time.perf_counter()
    predicted = estimator.predict_windows(net, part, record.mean_speed)
    t_predicted = time.perf_counter()
    fields = {"TRUTH": record.speeds,
              "MFD-P": harness.make_predictor("MFD-P", part, {})(net, record),
              "GAT-GRU-P": np.maximum(predicted, V_MIN_KMH)}
    t_routes = time.perf_counter()
    latencies, errors = [], {}
    for name, field in fields.items():
        errs = []
        for trip in trips:
            a = time.perf_counter()
            try:
                result = evaluate.travel_time_experiment(
                    net, field, record.speeds, [trip], record.window_s,
                    model=name)
            except ValueError as exc:
                ledger.record(f"trip {name}", [str(exc)])
                continue
            latencies.append(time.perf_counter() - a)
            ledger.record(f"trip {name}", [])
            errs.append(float(result.errors[0]))
        errors[name] = errs
    t_end = time.perf_counter()

    ledger.record("record", check_record(record, vff, V_MIN_KMH,
                                         REFERENCE_WINDOWS))
    for name, field in fields.items():
        ledger.record(f"{name} field", check_speed_field(field, vff, V_MIN_KMH))
    ledger.record("TRUTH trip error", check_truth_errors(errors["TRUTH"]))
    p50, n = percentile(latencies, 50)
    p99, _ = percentile(latencies, 99)
    return {"wall_s": t_end - t0,
            "sim_hours_per_s": REFERENCE_HOURS / (t_sim - t0),
            "predict_fields_per_s": predicted.shape[0] / (t_predicted - t_pred),
            "trips_per_s": len(latencies) / (t_end - t_routes),
            "trip_ms.p50": p50 * 1e3, "trip_ms.p99": p99 * 1e3,
            "trip_ms.samples": n}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: Callable[[str, int, Ledger], None]
    unit: Callable[[str, int, Ledger], dict]
    spans: tuple[str, ...]     # boundaries the traced run must see


_SIM_SPANS = ("simulate.simulate", "simulate.SimState.step",
              "simulate.update_turn_ratios", "simulate.shortest_time_to_dest")
_PREDICT_SPANS = ("model.LcfModel.predict_windows", "model.LcfModel.spatial_embed",
                  "model.LcfModel.temporal_embed", "model.LcfModel.fuse",
                  "nn.matmul", "network.extract_features",
                  "network.build_link_graph")
_ROUTE_SPANS = ("evaluate.travel_time_experiment", "evaluate.shortest_path",
                "evaluate.path_travel_time")

WORKLOADS: dict[str, Workload] = {
    "corpus-6h": Workload(corpus_setup, corpus_unit, _SIM_SPANS + (
        "cli.gen-dataset", "scenarios.build_dataset", "scenarios.save_dataset",
        "simulate.save_record")),
    "toy-train": Workload(toy_setup, toy_unit, _PREDICT_SPANS + _ROUTE_SPANS + (
        "cli.partition", "cli.train", "cli.evaluate", "cli.travel-time",
        "cli.report", "partition.partition_network", "scenarios.load_dataset",
        "simulate.load_record", "model.train", "model.build_batches",
        "model.save_model", "model.load_model", "nn.backward", "nn.AdamW.step",
        "harness.evaluate_speed_split", "harness.evaluate_travel_time_split",
        "harness.fit_lr_estimator", "evaluate.export_report")),
    "large-grid": Workload(large_setup, large_unit, _SIM_SPANS + _PREDICT_SPANS
                           + _ROUTE_SPANS + ("partition.partition_network",)),
}


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Flat ``<module>.<function>.<stat>`` metrics from one traced run."""
    out: dict[str, float] = {}
    for name, st in summarize(tracer.spans).items():
        for stat in ("calls", "busy_s", "self_s"):
            out[f"{name}.{stat}"] = st[stat]
    out.update(tracer.counters)
    out["trace.spans"] = len(tracer.spans)
    return out


def run_units(workload: Workload, work: str, seed: int, seconds: float,
              ledger: Ledger, tracer: Tracer | None) -> list[dict]:
    """Repeat the unit while another one fits in ``seconds`` (at least one;
    exactly one when traced, so traced counts are per unit)."""
    units: list[dict] = []
    start = time.perf_counter()
    with traced(tracer) if tracer else contextlib.nullcontext():
        while True:
            units.append(workload.unit(work, seed, ledger))
            elapsed = time.perf_counter() - start
            if tracer or elapsed * (len(units) + 1) / len(units) > seconds:
                return units


def worker(argv=None) -> int:
    p = argparse.ArgumentParser(description="time one workload's units")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    units = run_units(workload, args.work_dir, args.seed, args.seconds,
                      ledger, tracer)
    result = {"units": units,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              * 1024 / 1e6,
              "attempted": ledger.attempted, "failures": ledger.failures}
    if tracer:
        layers = per_layer(tracer)
        for span in workload.spans:
            ledger.record(f"span {span}", [] if layers.get(f"{span}.calls")
                          else ["no spans recorded"])
        result.update(per_layer=layers, attempted=ledger.attempted,
                      failures=ledger.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(worker())
