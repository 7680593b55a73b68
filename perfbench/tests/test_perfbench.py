"""Tests of the benchmark's own helpers: statistics, span accounting, the
output checks (each fed a deliberately wrong input) and the exact counts a
traced run reports.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from lcftraffic.evaluate import generate_trips  # noqa: E402
from lcftraffic.model import LcfModel, ModelConfig, Normalization  # noqa: E402
from lcftraffic.network import (extract_features, fit_minmax,  # noqa: E402
                                generate_grid_network)
from lcftraffic.scenarios import ODMatrix, Scenario  # noqa: E402
from lcftraffic.simulate import SimConfig, SimRecord  # noqa: E402


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_percentile_reports_value_and_sample_count():
    values = np.arange(1, 1001, dtype=float)
    assert checks.percentile(values, 50) == (500.5, 1000)
    p99, n = checks.percentile(values, 99)
    assert n == 1000 and p99 == pytest.approx(990.01)


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="100 samples"):
        checks.percentile(np.arange(100.0), 99)
    assert checks.percentile(np.arange(1000.0), 99)[1] == 1000
    with pytest.raises(ValueError):
        checks.percentile([], 50)


def test_ledger_counts_one_failure_per_operation():
    ledger = checks.Ledger()
    assert ledger.record("ok op", [])
    assert not ledger.record("bad op", ["first", "second"])
    assert ledger.attempted == 2
    assert ledger.failures == ["bad op: first; second"]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    tr = tracer.Tracer(clock=_fake_clock([0, 1, 3, 4, 7, 10]))
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", lambda: (inner(), inner()))
    outer()
    stats = tracer.summarize(tr.spans)
    assert stats["outer"] == {"calls": 1, "busy_s": 10, "self_s": 5}
    assert stats["inner"] == {"calls": 2, "busy_s": 5, "self_s": 5}
    assert [s[3] for s in tr.spans] == [-1, 0, 0]


def test_busy_time_counts_recursion_once():
    # f [0, 10] -> f [2, 6]
    tr = tracer.Tracer(clock=_fake_clock([0, 2, 6, 10]))

    def body(depth):
        if depth:
            f(depth - 1)

    f = tr.wrap("f", body)
    f(1)
    stats = tracer.summarize(tr.spans)["f"]
    assert stats == {"calls": 2, "busy_s": 10, "self_s": 10}


def test_span_closes_when_the_call_raises():
    tr = tracer.Tracer(clock=_fake_clock([0, 5]))

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tr.wrap("boom", boom)()
    assert tr.spans == [["boom", 0, 5, -1]]


# ---------------------------------------------------------------------------
# output checks, each fed a wrong input
# ---------------------------------------------------------------------------

def _record(speeds, balance=0.0):
    speeds = np.asarray(speeds, dtype=float)
    w, z = speeds.shape
    return SimRecord(link_ids=tuple(range(z)), window_s=180.0, step_s=5.0,
                     speeds=speeds, accumulation=np.zeros((w, z)),
                     outflow=np.zeros((w, z)), mean_speed=np.full(w, 10.0),
                     production=np.zeros(w), total_accumulation=np.zeros(w),
                     balance_error=balance)


def test_check_record_accepts_a_good_record():
    assert checks.check_record(_record([[5.0, 25.0]] * 3), [25.0, 25.0],
                               1.0, 3) == []


@pytest.mark.parametrize("speeds,balance,windows,message", [
    ([[5.0, 25.0]] * 3, 1e-3, 3, "balance error"),
    ([[5.0, 25.0]] * 3, 0.0, 4, "3 windows, expected 4"),
    ([[5.0, 25.5]] * 3, 0.0, 3, "3 above v_ff"),
    ([[0.5, 25.0]] * 3, 0.0, 3, "3 speeds below v_min"),
    ([[np.nan, 25.0]] * 3, 0.0, 3, "non-finite"),
])
def test_check_record_rejects(speeds, balance, windows, message):
    problems = checks.check_record(_record(speeds, balance), [25.0, 25.0],
                                   1.0, windows)
    assert any(message in p for p in problems), problems


def test_check_exit_code():
    assert checks.check_exit_code(0) == []
    assert checks.check_exit_code(2) == ["exit code 2"]


def _history(tmp_path, rows):
    path = tmp_path / "history.csv"
    path.write_text("epoch,lr,train_loss,val_loss\n" + "".join(
        f"{i},0.002,{a},{b}\n" for i, (a, b) in enumerate(rows)))
    return str(path)


def test_check_losses(tmp_path):
    assert checks.check_losses(_history(tmp_path, [(0.5, 0.4)] * 2), 2) == []
    assert "non-finite loss at epochs 1" in checks.check_losses(
        _history(tmp_path, [(0.5, 0.4), (float("nan"), 0.4)]), 2)[0]
    assert "1 epochs in history" in checks.check_losses(
        _history(tmp_path, [(0.5, 0.4)]), 2)[0]
    assert "missing" in checks.check_losses(str(tmp_path / "none.csv"), 2)[0]


def test_check_truth_errors():
    assert checks.check_truth_errors([0.0, 0.0]) == []
    assert checks.check_truth_errors([0.0, 1e-12]) != []
    assert checks.check_truth_errors([]) == ["no trip errors"]


def test_report_checks(tmp_path):
    path = tmp_path / "report_table.csv"
    path.write_text("model,scenario_class,metric,value\n"
                    "MFD,test,MAE,5.0\nMFD,test,Count,10.0\n"
                    "GAT-GRU-P,test,MAE,3.0\nGAT-GRU-P,test,Count,0.0\n")
    table = checks.read_report(str(path))
    assert table["MFD"] == {"MAE": 5.0, "Count": 10.0}
    assert checks.check_report(table, ["MFD"]) == []
    assert "no LR rows" in checks.check_report(table, ["LR"])
    assert "GAT-GRU-P: bad MAE/Count" in checks.check_report(table, ["GAT-GRU-P"])[0]
    assert checks.check_beats(table, "GAT-GRU-P", "MFD") == []
    assert "not below" in checks.check_beats(table, "MFD", "GAT-GRU-P")[0]
    assert "missing MAE" in checks.check_beats(table, "LR", "MFD")[0]


# ---------------------------------------------------------------------------
# exact counts from a traced run
# ---------------------------------------------------------------------------

def _tiny_pipeline(tmp_dir, n_trips=30):
    """A 3x3 grid on the reference 6-h schedule, routed and predicted,
    through the package's own bindings (so the tracer must patch them)."""
    import lcftraffic
    modules = tracer.load_package()
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    ids = net.link_ids()
    od = ODMatrix(pairs=((ids[0], ids[5]), (ids[3], ids[9])),
                  rates=(200.0, 200.0))
    record = lcftraffic.simulate(net, Scenario(0, od, 1.0, (), 0), SimConfig())
    modules["simulate"].save_record(record, os.path.join(tmp_dir, "rec"))
    trips = generate_trips(net, n_trips, seed=0, horizon=(12, 119))
    modules["evaluate"].travel_time_experiment(net, record.speeds,
                                               record.speeds, trips, 180.0)
    model = LcfModel(ModelConfig(use_partition=False, hidden_dim=8,
                                 fc_hidden=(8,)), Normalization(
        feat=fit_minmax(extract_features(net)), vmean_lo=0.0, vmean_hi=25.0,
        target_lo=0.0, target_hi=25.0))
    model.predict_windows(net, None, record.mean_speed, windows=[0, 1, 2])
    return net, record


def _traced_counts(tmp_dir):
    tr = tracer.Tracer()
    with tracer.traced(tr):
        net, record = _tiny_pipeline(tmp_dir)
    layers = {f"{name}.{stat}": st[stat]
              for name, st in tracer.summarize(tr.spans).items()
              for stat in ("calls",)}
    layers.update(tr.counters)
    return layers, net, record


def test_traced_counts_are_exact(tmp_path):
    layers, net, record = _traced_counts(str(tmp_path))
    assert layers["simulate.simulate.calls"] == 1
    assert layers["simulate.SimState.step.calls"] == 4320
    assert layers["simulate.shortest_time_to_dest.calls"] == 120 * 2
    assert layers["evaluate.shortest_path.calls"] == 30
    assert layers["evaluate.path_travel_time.calls"] == 2 * 30
    assert layers["evaluate.shortest_path.no_path"] == 0
    rec_dir = tmp_path / "rec"
    assert layers["simulate.save_record.bytes"] == sum(
        os.path.getsize(rec_dir / f) for f in ("links.csv", "network.csv"))
    # forward matmuls of the 3-window prediction, from their shapes:
    # two heads of (n,10)@(10,8), (n,8)@(8,1) x2, (n,n)@(n,8); five GRU
    # steps of three (3,9)@(9,8); the head (3n,16)@(16,8), (3n,8)@(8,1)
    n = net.n_links
    flop = 2 * (2 * (n * 10 * 8 + 2 * n * 8 + n * n * 8)
                + 5 * 3 * (3 * 9 * 8) + 3 * n * 16 * 8 + 3 * n * 8)
    assert layers["nn.matmul.gflop"] == pytest.approx(flop / 1e9, rel=1e-12)
    assert layers["simulate.balance_error_veh.max"] < checks.BALANCE_TOL_VEH


def test_traced_counts_repeat_exactly(tmp_path):
    first, _, _ = _traced_counts(str(tmp_path / "a"))
    second, _, _ = _traced_counts(str(tmp_path / "b"))
    assert first == second


def test_traced_restores_every_binding():
    import importlib
    import lcftraffic
    modules = tracer.load_package()
    before = {(m, k): v for m, mod in modules.items()
              for k, v in vars(mod).items() if callable(v)}
    package_simulate = lcftraffic.simulate
    step = modules["simulate"].SimState.step
    with tracer.traced(tracer.Tracer()):
        assert modules["scenarios"].simulate is not before[("scenarios", "simulate")]
        assert lcftraffic.simulate is not package_simulate
        assert modules["cli"].COMMANDS["train"] is not before[("cli", "cmd_train")]
    after = {(m, k): v for m, mod in modules.items()
             for k, v in vars(mod).items() if callable(v)}
    assert after == before
    assert lcftraffic.simulate is package_simulate
    assert modules["simulate"].SimState.step is step
    assert modules["cli"].COMMANDS["train"] is before[("cli", "cmd_train")]
    assert importlib.import_module("lcftraffic.simulate") is modules["simulate"]


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    assert [m["name"] for m in spec["per_layer"]] == tracer.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        __import__("workloads").WORKLOADS)
