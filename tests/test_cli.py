import json
import math
import os
import shutil

import numpy as np
import pytest

from lcftraffic.cli import build_parser, main
from lcftraffic.simulate import load_record

from ckptfaults import FAULTS, plant, read_checkpoint, write_checkpoint


SIM_SMALL = ["--step", "5", "--window", "60", "--warmup", "120",
             "--peak", "240", "--total", "600"]
TRAIN_SMALL = ["--epochs", "1", "--hidden", "4", "--fc-dims", "8",
               "--stride", "3"]


def run(args):
    return main([str(a) for a in args])


def build_pipeline(out, seed=5, scenarios=10):
    assert run(["gen-network", "--out", out, "--grid", "3x3", "--lanes", "2"]) == 0
    assert run(["gen-dataset", "--out", out, "--scenarios", scenarios,
                "--od-pairs", "4", "--od-rate", "400", "--seed", seed]
               + SIM_SMALL) == 0
    assert run(["partition", "--out", out, "--t-max", "5", "--clusters", "3",
                "--seed", seed]) == 0


def test_zero_demand_end_to_end(tmp_path):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3",
                "--vff", "25"]) == 0
    od_path = tmp_path / "od.txt"
    od_path.write_text("OD 0 9 0.0\n")
    assert run(["simulate", "--out", out, "--od", od_path] + SIM_SMALL) == 0
    rec = load_record(os.path.join(out, "record"), window_s=60.0, step_s=5.0)
    assert np.all(rec.speeds == 25.0)
    assert np.all(rec.production == 0.0)


def test_full_pipeline_and_report_rows(tmp_path):
    out = str(tmp_path / "run")
    build_pipeline(out)
    assert run(["train", "--out", out, "--model", "gat-gru-p", "--seed", "5"]
               + TRAIN_SMALL) == 0
    assert run(["evaluate", "--out", out, "--seed", "5"] + TRAIN_SMALL) == 0
    assert run(["travel-time", "--out", out, "--trips", "20", "--seed", "5"]
               + TRAIN_SMALL) == 0
    assert run(["report", "--out", out]) == 0

    table = (tmp_path / "run/reports/speed/report_table.csv").read_text()
    for model in ("MFD", "MFD-P", "LR", "DNN", "DNN-GRU", "GAT", "GAT-GRU",
                  "GAT-GRU-P"):
        assert f"\n{model},test-medium,MAE," in table
    merged = (tmp_path / "run/reports/report_table.csv").read_text()
    assert merged.splitlines()[0] == "section,model,scenario_class,metric,value"
    assert "speed,MFD," in merged and "travel_time,MFD," in merged


def test_pipeline_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        build_pipeline(out, seed=9)
        assert run(["train", "--out", out, "--model", "dnn", "--seed", "9"]
                   + TRAIN_SMALL) == 0
        assert run(["evaluate", "--out", out, "--models", "MFD,MFD-P,DNN",
                    "--seed", "9"] + TRAIN_SMALL) == 0
    for rel in ("dataset/manifest.json", "partition.json", "models/dnn.ckpt",
                "reports/speed/report_table.csv", "reports/speed/hist_MFD.csv"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel


def test_rerun_does_not_mutate_inputs(tmp_path):
    out = str(tmp_path / "run")
    build_pipeline(out, seed=2)
    manifest = (tmp_path / "run/dataset/manifest.json").read_bytes()
    network = (tmp_path / "run/network.txt").read_bytes()
    assert run(["gen-dataset", "--out", out, "--scenarios", "10",
                "--od-pairs", "4", "--od-rate", "400", "--seed", "2"]
               + SIM_SMALL) == 0
    assert (tmp_path / "run/dataset/manifest.json").read_bytes() == manifest
    assert (tmp_path / "run/network.txt").read_bytes() == network


def test_travel_time_routes_exactly_the_trips_asked_for(tmp_path):
    out = str(tmp_path / "run")
    build_pipeline(out, seed=3)   # 10 scenarios: 2 in the test split
    table = tmp_path / "run/reports/travel_time/report_table.csv"
    for trips in (1, 3):
        assert run(["travel-time", "--out", out, "--models", "MFD",
                    "--trips", trips, "--seed", "3"]) == 0
        assert f"\nMFD,test-medium,Count,{float(trips)}\n" in table.read_text()


def test_config_file_and_flag_precedence(tmp_path):
    out = str(tmp_path / "run")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grid = 4x4\nlanes = 2\n")
    assert run(["gen-network", "--out", out, "--config", str(cfg)]) == 0
    from lcftraffic.network import load_network
    net = load_network(os.path.join(out, "network.txt"))
    assert len(net.junctions) == 16  # config applied
    assert run(["gen-network", "--out", out, "--config", str(cfg),
                "--grid", "3x3"]) == 0
    net = load_network(os.path.join(out, "network.txt"))
    assert len(net.junctions) == 9  # flag wins


def test_validation_exit_codes(tmp_path):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "bogus"]) == 1
    assert run(["train", "--out", out]) == 1          # missing inputs
    assert run(["no-such-command"]) == 1
    assert run(["gen-network", "--out", out, "--no-such-flag", "1"]) == 1
    build_pipeline(out, seed=1)
    assert run(["evaluate", "--out", out, "--models", "XGBOOST"]
               + TRAIN_SMALL) == 1


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipeline") / "run")
    build_pipeline(out, seed=6)
    return out


@pytest.mark.parametrize("argv,expected", [
    (["train", "--epochs", "0"], "error: epochs must be > 0, got 0"),
    (["train", "--stride", "0"], "error: window_stride must be > 0, got 0"),
    (["train", "--hidden", "0"], "error: hidden_dim must be >= 1, got 0"),
    (["train", "--lr", "-1"], "error: lr must be > 0, got -1.0"),
    (["travel-time", "--trips", "0"], "error: --trips must be >= 1, got 0"),
    (["travel-time", "--trips", "-5"], "error: --trips must be >= 1, got -5"),
    (["evaluate", "--split", "nope"],
     "error: --split must be one of test, train, val, got 'nope'"),
])
def test_bad_estimator_options_exit_1_naming_the_value(small_pipeline, capsys,
                                                      argv, expected):
    # a check made after loading the models would first train the missing
    # DNN checkpoint into models/; a short run unless argv overrides it
    models = [] if argv[0] == "train" else ["--models", "MFD,DNN"]
    capsys.readouterr()
    assert run(argv[:1] + ["--out", small_pipeline] + models + TRAIN_SMALL
               + argv[1:]) == 1
    assert expected in capsys.readouterr().err
    assert not os.path.exists(os.path.join(small_pipeline, "models"))
    assert not os.path.exists(os.path.join(small_pipeline, "reports"))


def test_cached_checkpoint_of_other_options_fails_evaluate(tmp_path, capsys):
    out = str(tmp_path / "run")
    build_pipeline(out, seed=4)
    small = ["--epochs", "1", "--stride", "3"]
    assert run(["train", "--out", out, "--model", "dnn", "--hidden", "16",
                "--fc-dims", "8", "--seed", "4"] + small) == 0
    capsys.readouterr()
    assert run(["evaluate", "--out", out, "--models", "MFD,DNN",
                "--hidden", "64", "--heads", "4"] + small) == 1
    ckpt = os.path.join(out, "models", "dnn.ckpt")
    assert f"error: {ckpt} holds heads = 2, but the options give 4" in \
        capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "reports"))
    # the checkpoint's seed is the training run's, not evaluate's --seed
    assert run(["evaluate", "--out", out, "--models", "MFD,DNN", "--heads",
                "2", "--hidden", "16", "--fc-dims", "8", "--seed", "7"]
               + small) == 0


def test_lr_p_is_rejected(tmp_path, capsys):
    out = str(tmp_path / "run")
    build_pipeline(out, seed=1)
    capsys.readouterr()
    for cmd in ("evaluate", "travel-time"):
        assert run([cmd, "--out", out, "--models", "MFD,LR-P"]
                   + TRAIN_SMALL) == 1
        assert "unknown model 'LR-P'" in capsys.readouterr().err


def test_window_and_step_options_are_gone(tmp_path, capsys):
    # the dataset manifest fixes both; these commands took the flags and
    # ignored them, and could still fail on a value they never used
    out = str(tmp_path / "run")
    for cmd in ("partition", "train", "evaluate", "travel-time"):
        for flag in ("--window", "--step"):
            assert run([cmd, "--out", out, flag, "60"]) == 1
            assert f"unrecognized arguments: {flag} 60" in capsys.readouterr().err


def test_manifest_without_window_fails(tmp_path, capsys):
    out = str(tmp_path / "run")
    build_pipeline(out, seed=1)
    manifest = tmp_path / "run/dataset/manifest.json"
    data = json.loads(manifest.read_text())
    del data["window_s"]
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["train", "--out", out] + TRAIN_SMALL) == 1
    err = capsys.readouterr().err
    assert str(manifest) in err and "'window_s'" in err


MANIFEST_PROBES = {
    "no-scenarios": (lambda m: m.pop("scenarios"), "evaluate",
                     "manifest: no key 'scenarios'"),
    "no-od-rates": (lambda m: m["scenarios"][0].pop("od_rates"), "evaluate",
                    "manifest.scenarios[0]: no key 'od_rates'"),
    "unknown-test-id": (lambda m: m["splits"]["test"].append(99), "evaluate",
                        "'scenarios' hold id 99 0 times and 'splits' list it "
                        "in test;"),
    "train-id-in-test": (
        lambda m: m["splits"]["test"].append(m["splits"]["train"][0]),
        "evaluate", "1 times and 'splits' list it in test, train;"),
    "id-in-no-split": (lambda m: m["splits"]["train"].pop(), "evaluate",
                       "1 times and 'splits' list it in none;"),
    "id-held-twice": (lambda m: m["scenarios"].append(m["scenarios"][0]),
                      "evaluate", "2 times and 'splits' list it in "),
    "negative-window": (lambda m: m.update(window_s=-180.0), "travel-time",
                        "window_s must be > 0, got -180.0"),
    "nan-window": (lambda m: m.update(window_s=math.nan), "travel-time",
                   "window_s must be finite, got nan"),
    "not-json": (None, "evaluate", "Expecting value"),
    # a value of the wrong kind is refused, never coerced
    "train-not-a-list": (lambda m: m["splits"].update(train=5), "evaluate",
                         "manifest.splits: train must be a tuple[int, ...], "
                         "got 5"),
    "three-id-od-pair": (lambda m: m["scenarios"][0]["od_pairs"][0].append(0),
                         "evaluate", "manifest.scenarios[0]: od_pairs[0] must "
                         "be a tuple[int, int], got ("),
    "bus-links-text": (lambda m: m["scenarios"][0].update(bus_links="12"),
                       "evaluate", "manifest.scenarios[0]: bus_links must be a "
                       "tuple[int, ...], got '12'"),
    "fractional-id": (lambda m: m["scenarios"][0].update(id=0.5), "evaluate",
                      "manifest.scenarios[0]: id must be an int, got 0.5"),
    "window-text": (lambda m: m.update(window_s="180"), "travel-time",
                    "manifest: window_s must be a float, got '180'"),
    "fractional-seed": (lambda m: m.update(master_seed=1.9), "evaluate",
                        "manifest: master_seed must be an int, got 1.9"),
    "numeric-demand": (lambda m: m.update(demand_level=5), "evaluate",
                       "manifest: demand_level must be a str, got 5"),
    "unknown-key": (lambda m: m.update(extra=1), "evaluate",
                    "manifest: unknown key 'extra'"),
    "wrong-split": (lambda m: m["scenarios"][0].update(split="none"), "evaluate",
                    "scenario 0 names split 'none', which does not list it"),
}


@pytest.mark.parametrize("probe", MANIFEST_PROBES)
def test_bad_manifest_exits_1_naming_the_file_and_key(small_pipeline, tmp_path,
                                                      capsys, probe):
    edit, command, expected = MANIFEST_PROBES[probe]
    dataset = tmp_path / "dataset"
    shutil.copytree(os.path.join(small_pipeline, "dataset"), dataset)
    manifest = dataset / "manifest.json"
    data = json.loads(manifest.read_text())
    if edit is None:
        manifest.write_text("not json\n")
    else:
        edit(data)
        manifest.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--out", out, "--dataset-dir", dataset,
                "--network", os.path.join(small_pipeline, "network.txt"),
                "--partition-file", os.path.join(small_pipeline, "partition.json"),
                "--models", "MFD"]
               + (["--trips", "5"] if command == "travel-time" else [])) == 1
    err = capsys.readouterr().err
    assert f"error: {manifest}: " in err and expected in err
    assert not out.exists()


@pytest.mark.parametrize("flag,field", [
    ("--step", "step_s"), ("--window", "window_s"), ("--warmup", "warmup_s"),
    ("--peak", "peak_s"), ("--total", "total_s"),
    ("--saturation-flow", "saturation_flow"),
    ("--vehicle-length", "vehicle_length"),
    ("--congestion-threshold", "congestion_threshold"),
    ("--v-min", "v_min_kmh"), ("--turn-update", "turn_update_s"),
    ("--turn-smoothing", "turn_smoothing")])
def test_non_finite_simulation_option_exits_1_naming_it(tmp_path, capsys,
                                                        flag, field):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    capsys.readouterr()
    assert run(["gen-dataset", "--out", out, "--scenarios", "10"]
               + SIM_SMALL + [flag, "inf"]) == 1
    assert f"error: {field} must be finite, got inf" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "dataset"))


def test_gen_dataset_rejects_zero_step(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    assert run(["gen-dataset", "--out", out, "--scenarios", "10",
                "--step", "0"]) == 1
    assert "step" in capsys.readouterr().err


def test_gen_dataset_rejects_zero_window(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    assert run(["gen-dataset", "--out", out, "--scenarios", "10",
                "--window", "0"]) == 1
    assert "window_s must be > 0, got 0.0" in capsys.readouterr().err


def test_removed_pad_value_option_is_rejected(tmp_path, capsys):
    # and the removed --batches-per-epoch, on the command line and in a
    # config file alike
    out = str(tmp_path / "run")
    for flag, value in (("--pad-value", "-1"), ("--batches-per-epoch", "2")):
        assert run(["train", "--out", out, flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert run(["train", "--out", out, "--config", cfg]) == 1
        key = flag[2:].replace("-", "_")
        assert f"error: unknown config key {key!r} for train" in \
            capsys.readouterr().err


def test_config_values_are_typed_and_checked_like_flags(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grid = 3x3\nsignals = no\nlink-length = 50\n")
    assert run(["gen-network", "--out", out, "--config", cfg]) == 0
    from lcftraffic.network import load_network
    net = load_network(os.path.join(out, "network.txt"))
    assert len(net.junctions) == 9 and not net.signals
    assert {lk.length_m for lk in net.links} == {50.0}
    cfg.write_text("lanes = two\n")
    capsys.readouterr()
    assert run(["gen-network", "--out", out, "--config", cfg]) == 1
    assert "--lanes: invalid int value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-1", "nan"])
def test_simulate_rejects_a_demand_scale_of_zero_or_below(tmp_path, capsys,
                                                          scale):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    od_path = tmp_path / "od.txt"
    od_path.write_text("OD 0 9 100.0\n")
    capsys.readouterr()
    assert run(["simulate", "--out", out, "--od", od_path, "--scale", scale]
               + SIM_SMALL) == 1
    assert f"error: scale must be > 0, got {float(scale)!r}" in \
        capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "record"))


def test_gen_dataset_rejects_a_nan_od_rate(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    capsys.readouterr()
    assert run(["gen-dataset", "--out", out, "--scenarios", "10",
                "--od-rate", "nan"] + SIM_SMALL) == 1
    assert "error: OD rates must be finite and >= 0, got nan" in \
        capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "dataset"))


def test_bad_od_rate_in_a_file_names_the_file_and_line(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    od_path = tmp_path / "od.txt"
    od_path.write_text("OD 0 9 nan\n")
    capsys.readouterr()
    assert run(["simulate", "--out", out, "--od", od_path] + SIM_SMALL) == 1
    assert f"error: {od_path}:1: OD rates must be finite and >= 0, got nan" \
        in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "record"))


def test_malformed_od_file_fails_simulate(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    od_path = tmp_path / "od.txt"
    od_path.write_text("OD 0 9 100.0\nOD 1 2\n")
    capsys.readouterr()
    assert run(["simulate", "--out", out, "--od", od_path] + SIM_SMALL) == 1
    assert f"error: {od_path}:2: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_dnn(tmp_path_factory):
    """A pipeline with a trained DNN checkpoint, and a pristine copy of that
    checkpoint for each test to restore before planting its fault."""
    out = tmp_path_factory.mktemp("trained") / "run"
    build_pipeline(str(out), seed=4)
    assert run(["train", "--out", out, "--model", "dnn", "--seed", "4"]
               + TRAIN_SMALL) == 0
    pristine = out.parent / "dnn.ckpt"
    shutil.copyfile(out / "models/dnn.ckpt", pristine)
    return out, pristine


def evaluate_dnn(out, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = run(["evaluate", "--out", out, "--models", "MFD,DNN", "--seed", "4"]
               + TRAIN_SMALL)
    return code, capsys.readouterr().err


def test_tampered_checkpoint_fails_evaluate(trained_dnn, capsys):
    out, pristine = trained_dnn
    ckpt = out / "models/dnn.ckpt"
    shutil.copyfile(pristine, ckpt)
    meta, arrays = read_checkpoint(ckpt)
    # a 1-D bias broadcasts like the (1, 8) row it replaces, so only the
    # shape check can catch it
    assert arrays["fc.0.b"].shape == (1, 8)
    arrays["fc.0.b"] = arrays["fc.0.b"].ravel()
    write_checkpoint(ckpt, json.dumps(meta), arrays)
    code, err = evaluate_dnn(out, capsys)
    assert code == 1
    assert str(ckpt) in err and "fc.0.b" in err and "(8,)" in err \
        and "(1, 8)" in err
    assert not (out / "reports").exists()


@pytest.mark.parametrize("case", FAULTS)
def test_malformed_checkpoint_fails_evaluate(trained_dnn, capsys, case):
    out, pristine = trained_dnn
    ckpt = out / "models/dnn.ckpt"
    shutil.copyfile(pristine, ckpt)
    expected = plant(ckpt, case)
    code, err = evaluate_dnn(out, capsys)
    assert code == 1
    assert f"error: {ckpt}: {expected}" in err
    assert "Traceback" not in err
    assert not (out / "reports").exists()


def test_help_lists_reference_defaults(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["train", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for needle in ("0.002", "80", "0.85", "(default: 2)", "(default: 128)",
                   "(default: 5)", "-1.0"):
        assert needle in text
    with pytest.raises(SystemExit):
        parser.parse_args(["partition", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for needle in ("(default: 4)", "(default: 1.0)", "(default: 1.5)",
                   "(default: 2)", "(default: 40)"):
        assert needle in text


@pytest.mark.parametrize("command", ["simulate", "gen-dataset"])
@pytest.mark.parametrize("pair,expected", [
    ("0 999", "OD pair (0, 999): link 999 is not in the network"),
    ("999 0", "OD pair (999, 0): link 999 is not in the network"),
    ("3 3", "OD pair (3, 3): origin == destination")])
def test_od_pair_outside_the_network_or_looping_fails(tmp_path, capsys,
                                                      command, pair, expected):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    od_path = tmp_path / "od.txt"
    od_path.write_text(f"OD 0 9 100.0\nOD {pair} 100.0\n")
    capsys.readouterr()
    args = [command, "--out", out, "--od", od_path] + SIM_SMALL
    if command == "gen-dataset":
        args += ["--scenarios", "10"]
    assert run(args) == 1
    assert f"error: {expected}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "record"))
    assert not os.path.exists(os.path.join(out, "dataset"))


@pytest.mark.parametrize("flag,value,expected", [
    ("--link-length", "nan", "length_m must be finite and > 0, got nan"),
    ("--link-length", "inf", "length_m must be finite and > 0, got inf"),
    ("--vff", "nan", "vff_kmh must be finite and > 0, got nan"),
    ("--cycle", "0", "cycle must be finite and > 0, got 0.0"),
    ("--green-split", "2", "green 180.0 is outside 0..cycle 90.0")])
def test_bad_network_option_exits_1_naming_the_value(tmp_path, capsys, flag,
                                                      value, expected):
    out = tmp_path / "run"
    assert run(["gen-network", "--out", out, "--grid", "3x3", flag, value]) == 1
    assert expected in capsys.readouterr().err
    assert not (out / "network.txt").exists()


def test_negative_bus_lane_count_names_the_option(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    capsys.readouterr()
    assert run(["gen-dataset", "--out", out, "--scenarios", "10",
                "--bus-lanes", "-3"] + SIM_SMALL) == 1
    assert "error: --bus-lanes must be >= 0, got -3" in capsys.readouterr().err


def test_bus_lane_count_above_the_pool_names_the_option(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3"]) == 0
    capsys.readouterr()
    assert run(["gen-dataset", "--out", out, "--scenarios", "10",
                "--bus-lanes", "1000"] + SIM_SMALL) == 1
    assert ("error: --bus-lanes 1000 exceeds the network's 24 bus-lane "
            "candidates") in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "dataset"))


@pytest.mark.parametrize("command", ["partition", "evaluate"])
@pytest.mark.parametrize("network,expected", [
    ("4x4", "at position 24 its records hold no link and the network link 24"),
    ("renamed", "at position 5 its records hold link 5 and the network link ")],
    ids=["4x4", "renamed"])
def test_dataset_of_another_network_names_both_and_the_link(
        small_pipeline, tmp_path, capsys, command, network, expected):
    path = tmp_path / "network.txt"
    if network == "4x4":
        assert run(["gen-network", "--out", tmp_path, "--grid", "4x4"]) == 0
    else:
        text = open(os.path.join(small_pipeline, "network.txt")).read()
        path.write_text(text.replace("\nLINK 5 ", "\nLINK 99 "))
    capsys.readouterr()
    args = [command, "--out", small_pipeline, "--network", path]
    assert run(args + (["--models", "MFD"] if command == "evaluate" else [])) == 1
    dataset = os.path.join(small_pipeline, "dataset")
    assert (f"error: dataset {dataset} does not match network file {path}: "
            + expected) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "travel-time"])
def test_only_train_takes_model(small_pipeline, capsys, command):
    """Scoring commands score --models; a --model they would ignore is refused."""
    capsys.readouterr()
    assert run([command, "--out", small_pipeline, "--models", "MFD",
                "--model", "dnn"]) == 1
    assert "unrecognized arguments: --model dnn" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(small_pipeline, "reports"))


def test_partition_of_another_network_fails_evaluate(small_pipeline, tmp_path,
                                                     capsys):
    with open(os.path.join(small_pipeline, "partition.json")) as fh:
        part = json.load(fh)
    part["labels"][0][0] = 999
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(part))
    capsys.readouterr()
    assert run(["evaluate", "--out", small_pipeline, "--models", "MFD-P",
                "--partition-file", path]) == 1
    assert f"error: {path}: labels link 999, which is not in " in \
        capsys.readouterr().err
