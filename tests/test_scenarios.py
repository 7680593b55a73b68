import json
import re

import numpy as np
import pytest

from lcftraffic.network import generate_grid_network
from lcftraffic.scenarios import (DEMAND_LEVELS, Dataset, ODMatrix, Scenario,
                                  build_dataset, bus_lane_candidates,
                                  load_dataset, load_od, make_scenarios,
                                  perturb_od, random_base_od,
                                  sample_bus_lane_config, save_dataset, save_od,
                                  split_sizes)
from lcftraffic.simulate import SimConfig, simulate


def od2(rates=(10.0, 10.0)):
    return ODMatrix(pairs=((0, 5), (3, 8)), rates=rates)


def test_perturb_preserves_total_without_rescale():
    out = perturb_od(od2(), [0.8, 1.2])
    assert out.rates == (8.0, 12.0)
    assert out.total() == 20.0


def test_perturb_rescales_to_base_total():
    out = perturb_od(od2(), [0.8, 0.8])
    # raw (8, 8) scaled by 20/16
    assert out.rates[0] == pytest.approx(10.0, abs=1e-12)
    assert out.rates[1] == pytest.approx(10.0, abs=1e-12)


def test_perturb_total_identity_property():
    rng = np.random.default_rng(42)
    base = ODMatrix(pairs=tuple((i, i + 50) for i in range(12)),
                    rates=tuple(rng.uniform(5, 500, size=12)))
    for _ in range(120):
        factors = rng.uniform(0.8, 1.2, size=12)
        out = perturb_od(base, factors)
        assert abs(out.total() - base.total()) < 1e-9


def test_perturb_rejects_out_of_range_factor():
    with pytest.raises(ValueError):
        perturb_od(od2(), [0.5, 1.0])
    with pytest.raises(ValueError):
        perturb_od(od2(), [1.0, 1.3])


def test_scenario_scale_equals_premultiplied_rates():
    # demand scaling has one path, Scenario.scale inside the engine
    net = generate_grid_network(3, 3, 100.0, 2)
    cfg = SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0, peak_s=240.0,
                    total_s=600.0)
    base = random_base_od(net, 4, 400.0, seed=5)
    outflows = []
    for s in (0.7, 1.3):
        scaled = simulate(net, Scenario(id=0, od=base, scale=s, bus_links=(),
                                        seed=2), cfg)
        pre = ODMatrix(base.pairs, tuple(r * s for r in base.rates))
        ref = simulate(net, Scenario(id=0, od=pre, scale=1.0, bus_links=(),
                                     seed=2), cfg)
        for field in ("speeds", "accumulation", "outflow", "mean_speed",
                      "production", "total_accumulation", "completed"):
            assert getattr(scaled, field).tobytes() == \
                getattr(ref, field).tobytes(), (s, field)
        assert scaled.balance_error == ref.balance_error
        outflows.append(scaled.outflow.sum())
    assert outflows[1] > outflows[0]


def test_bus_lane_config_sampling():
    net = generate_grid_network(4, 4, 100.0, 2)
    cands = bus_lane_candidates(net)
    assert sample_bus_lane_config(net, cands, 0, seed=1) == ()
    assert set(sample_bus_lane_config(net, cands, len(cands), seed=1)) == set(cands)
    a = sample_bus_lane_config(net, cands[:20], 5, seed=7)
    b = sample_bus_lane_config(net, cands[:20], 5, seed=7)
    c = sample_bus_lane_config(net, cands[:20], 5, seed=8)
    assert a == b
    assert a != c


def test_bus_lane_config_rejects_single_lane_candidate():
    net = generate_grid_network(3, 3, 100.0, 1)
    with pytest.raises(ValueError):
        sample_bus_lane_config(net, [net.links[0].id], 1, seed=0)


def test_split_sizes():
    assert split_sizes(10) == (7, 1, 2)
    assert split_sizes(20) == (14, 2, 4)
    assert split_sizes(70) == (49, 7, 14)


def quick_cfg():
    return SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0, peak_s=240.0,
                     total_s=600.0)


def build_toy_dataset(n=10, seed=123):
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, n_pairs=4, rate_veh_h=300.0, seed=seed)
    return net, build_dataset(net, base, n=n, master_seed=seed, cfg=quick_cfg())


def test_build_dataset_splits_and_disjointness():
    _, ds = build_toy_dataset(10)
    assert len(ds.splits["train"]) == 7
    assert len(ds.splits["val"]) == 1
    assert len(ds.splits["test"]) == 2
    all_ids = ds.splits["train"] + ds.splits["val"] + ds.splits["test"]
    assert sorted(all_ids) == list(range(10))


def test_build_dataset_rejects_small_n():
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, 2, 100.0, seed=0)
    with pytest.raises(ValueError):
        build_dataset(net, base, n=5, master_seed=0, cfg=quick_cfg())


def test_demand_level_sets_every_scenario_scale():
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, 2, 100.0, seed=0)
    for level, scale in DEMAND_LEVELS.items():
        scenarios = make_scenarios(net, base, 3, 0, demand_level=level)
        assert {sc.scale for sc in scenarios} == {scale}
    with pytest.raises(ValueError, match="unknown demand level 'extreme'"):
        build_dataset(net, base, n=10, master_seed=0, cfg=quick_cfg(),
                      demand_level="extreme")


def test_dataset_manifest_reproducible(tmp_path):
    _, ds1 = build_toy_dataset(10, seed=9)
    _, ds2 = build_toy_dataset(10, seed=9)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_dataset(ds1, d1)
    save_dataset(ds2, d2)
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
    assert (d1 / "scenario_000/links.csv").read_bytes() == \
        (d2 / "scenario_000/links.csv").read_bytes()


RECORD_ARRAYS = ("speeds", "accumulation", "outflow", "mean_speed",
                 "production", "total_accumulation")


def test_dataset_round_trip(tmp_path):
    """Every scenario reads back equal, and every array the record files
    hold bit-equal (``completed`` and ``balance_error`` are not saved)."""
    _, ds = build_toy_dataset(10, seed=4)
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.scenarios == ds.scenarios
    assert loaded.splits == ds.splits
    assert (loaded.master_seed, loaded.demand_level) == \
        (ds.master_seed, ds.demand_level)
    assert list(loaded.records) == list(ds.records)
    for i, rec in ds.records.items():
        back = loaded.records[i]
        assert (back.link_ids, back.window_s, back.step_s) == \
            (rec.link_ids, rec.window_s, rec.step_s)
        for name in RECORD_ARRAYS:
            a, b = getattr(rec, name), getattr(back, name)
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), (i, name)


def test_manifest_holds_each_fact_once(tmp_path):
    """A scenario entry holds what builds its Scenario and no more: the
    split is in ``splits`` and the record directory follows from the id."""
    _, ds = build_toy_dataset(10, seed=4)
    save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds/manifest.json").read_text())
    for entry in manifest["scenarios"]:
        assert sorted(entry) == ["bus_links", "id", "od_pairs", "od_rates",
                                 "ramp_fraction", "scale", "seed"]
        assert (tmp_path / f"ds/scenario_{entry['id']:03d}/links.csv").exists()


def test_scenarios_vary_but_share_od_pairs():
    _, ds = build_toy_dataset(10, seed=5)
    pairs = {sc.od.pairs for sc in ds.scenarios}
    assert len(pairs) == 1  # same OD structure
    rates = {sc.od.rates for sc in ds.scenarios}
    assert len(rates) == 10  # perturbed volumes differ
    bus = {sc.bus_links for sc in ds.scenarios}
    assert len(bus) > 1


@pytest.mark.parametrize("od", [
    ODMatrix(pairs=((3, 17), (5, 2)), rates=(120.5, 88.25), ramp_fraction=0.75),
    ODMatrix(pairs=(), rates=()),
    ODMatrix(pairs=((0, 9),), rates=(0.0,), ramp_fraction=0.0),
    ODMatrix(pairs=((1, 2), (2, 1)), rates=(1 / 3, 250), ramp_fraction=1),
], ids=["two-pairs", "empty", "zero-rate", "int-values"])
def test_od_file_round_trip(tmp_path, od):
    save_od(od, tmp_path / "od.txt")
    loaded = load_od(tmp_path / "od.txt")
    assert loaded == od
    assert [type(v) for v in (*loaded.rates, loaded.ramp_fraction)] == \
        [type(v) for v in (*od.rates, od.ramp_fraction)]


def test_od_files_of_random_demand_round_trip(tmp_path):
    net = generate_grid_network(3, 3, 100.0, 2)
    for seed in range(20):
        base = random_base_od(net, 6, 300.0, seed=seed)
        od = perturb_od(base, np.random.default_rng(seed).uniform(0.8, 1.2, 6))
        save_od(od, tmp_path / "od.txt")
        assert load_od(tmp_path / "od.txt") == od


OD_DOC = {"pairs": [[3, 17], [5, 2]], "rates": [120.5, 88.25],
          "ramp_fraction": 1.0}


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["pairs"][1].pop(), "pairs[1] must be a tuple[int, int], got (5,)"),
    (lambda d: d["pairs"][1].append(4),
     "pairs[1] must be a tuple[int, int], got (5, 2, 4)"),
    (lambda d: d["pairs"][0].__setitem__(1, 17.0),
     "pairs[0][1] must be an int, got 17.0"),
    (lambda d: d["rates"].__setitem__(1, "fast"),
     "rates[1] must be a float, got 'fast'"),
    (lambda d: d["rates"].__setitem__(1, float("nan")),
     "rates[1] must be finite, got nan"),
    (lambda d: d["rates"].__setitem__(1, float("inf")),
     "rates[1] must be finite, got inf"),
    (lambda d: d["rates"].__setitem__(1, -3.0),
     "OD rates must be finite and >= 0, got -3.0"),
    (lambda d: d["rates"].pop(), "pairs and rates must align"),
    (lambda d: d.update(ramp_fraction=1.5),
     "ramp fraction must be in [0, 1], got 1.5"),
    (lambda d: d.pop("ramp_fraction"), "no key 'ramp_fraction'"),
    (lambda d: d.update(demand=[]), "unknown key 'demand'"),
], ids=["short-pair", "long-pair", "float-id", "text-rate", "nan-rate",
        "inf-rate", "negative-rate", "short-rates", "ramp-above-1", "no-ramp",
        "unknown-key"])
def test_load_od_names_file_and_key_of_a_bad_value(tmp_path, edit, message):
    doc = json.loads(json.dumps(OD_DOC))
    edit(doc)
    path = tmp_path / "od.txt"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_od(path)


def test_text_od_file_of_earlier_versions_asks_to_regenerate(tmp_path):
    path = tmp_path / "od.txt"
    path.write_text("# od matrix\nRAMP 1.0\nOD 3 17 120.5\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: not a JSON file (Expecting value: line 1 column 1 "
            "(char 0)); regenerate it with lcftraffic gen-dataset")):
        load_od(path)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_scenario_rejects_a_scale_of_zero_or_below(scale):
    od = ODMatrix(pairs=((3, 17),), rates=(120.5,))
    with pytest.raises(ValueError,
                       match=re.escape(f"scale must be > 0, got {scale!r}")):
        Scenario(id=0, od=od, scale=scale, bus_links=(), seed=0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
def test_od_matrix_rejects_a_rate_not_finite_and_non_negative(rate):
    with pytest.raises(ValueError, match=re.escape(
            f"OD rates must be finite and >= 0, got {rate!r}")):
        ODMatrix(pairs=((3, 17), (5, 2)), rates=(120.5, rate))


def test_random_base_od_rejects_more_pairs_than_the_network_has():
    net = generate_grid_network(2, 2, 100.0, 2)
    assert net.n_links == 8
    assert len(set(random_base_od(net, 56, 100.0, seed=0).pairs)) == 56
    with pytest.raises(ValueError, match="57 OD pairs asked for, but the "
                       "network's 8 links give only 56 distinct pairs"):
        random_base_od(net, 57, 100.0, seed=0)


def test_failed_scenario_excluded_and_logged(monkeypatch, caplog):
    import lcftraffic.scenarios as scenarios_mod
    from lcftraffic.simulate import SimulationError, simulate as real_simulate

    def flaky(net, sc, cfg):
        if sc.id == 3:
            raise SimulationError("injected failure")
        return real_simulate(net, sc, cfg)

    monkeypatch.setattr(scenarios_mod, "simulate", flaky)
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, 3, 200.0, seed=1)
    with caplog.at_level("ERROR"):
        ds = scenarios_mod.build_dataset(net, base, n=10, master_seed=1,
                                         cfg=quick_cfg())
    assert 3 not in ds.records
    assert all(3 not in ids for ids in ds.splits.values())
    assert len(ds.scenarios) == 9
    assert "scenario 3 failed" in caplog.text


def test_programming_error_in_simulate_propagates(monkeypatch):
    import lcftraffic.scenarios as scenarios_mod

    def broken(net, sc, cfg):
        raise IndexError("bug, not a failed scenario")

    monkeypatch.setattr(scenarios_mod, "simulate", broken)
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, 3, 200.0, seed=1)
    with pytest.raises(IndexError):
        scenarios_mod.build_dataset(net, base, n=10, master_seed=1,
                                    cfg=quick_cfg())


def test_manifest_carries_window_metadata(tmp_path):
    _, ds = build_toy_dataset(10, seed=21)
    save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds/manifest.json").read_text())
    assert manifest["window_s"] == 60.0
    assert manifest["step_s"] == 5.0
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.records[0].window_s == 60.0


def test_dataset_where_every_scenario_failed_is_an_error(monkeypatch):
    import lcftraffic.scenarios as scenarios_mod
    from lcftraffic.simulate import SimulationError

    def failing(net, sc, cfg):
        raise SimulationError(f"injected failure {sc.id}")

    monkeypatch.setattr(scenarios_mod, "simulate", failing)
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, 3, 200.0, seed=1)
    with pytest.raises(SimulationError,
                       match="all 10 scenarios failed; scenario 0: injected failure 0"):
        scenarios_mod.build_dataset(net, base, n=10, master_seed=1,
                                    cfg=quick_cfg())
