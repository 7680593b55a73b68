import re
import tracemalloc

import numpy as np
import pytest

from lcftraffic.baselines import LR_RIDGE, fit_lr
from lcftraffic.harness import (_lr_rows, evaluate_speed_split,
                                evaluate_travel_time_split, fit_lr_estimator,
                                make_predictor)
from lcftraffic.model import (LcfModel, ModelConfig, fit_normalization,
                              pad_history, split_features)
from lcftraffic.network import (Link, RoadNetwork, extract_features,
                                generate_grid_network)
from lcftraffic.scenarios import ODMatrix, build_dataset, random_base_od
from lcftraffic.simulate import SimConfig, simulate


@pytest.fixture(scope="module")
def corpus():
    net = generate_grid_network(3, 3, 100.0, 2)
    base = random_base_od(net, n_pairs=4, rate_veh_h=400.0, seed=8)
    cfg = SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0, peak_s=240.0,
                    total_s=600.0)
    return net, build_dataset(net, base, n=10, master_seed=8, cfg=cfg)


def hand_minmax(x, lo, hi):
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(span > 0, (x - lo) / span, 0.0)


def hand_lr(net, dataset):
    """The linear baseline written out: min-max link attributes and mean
    speeds over the training split, a 5-window padded history per window,
    least squares over every (window, link) row."""
    train = dataset.split_scenarios("train")
    feats = [extract_features(net.with_bus_lanes(sc.bus_links)) for sc in train]
    f_lo, f_hi = np.vstack(feats).min(axis=0), np.vstack(feats).max(axis=0)
    all_v = np.concatenate([dataset.records[sc.id].mean_speed for sc in train])
    v_lo, v_hi = all_v.min(), all_v.max()

    def rows(f, vmean, t):
        hist = pad_history(hand_minmax(vmean, v_lo, v_hi), 5)[t]
        return np.hstack([hand_minmax(f, f_lo, f_hi), np.tile(hist, (len(f), 1))])

    xs, ys = [], []
    for sc, f in zip(train, feats):
        rec = dataset.records[sc.id]
        for t in range(rec.n_windows):
            xs.append(rows(f, rec.mean_speed, t))
            ys.append(rec.speeds[t])
    x = np.vstack(xs)
    model = fit_lr(np.column_stack([x, np.ones(len(x))]), np.concatenate(ys))

    def predict(sub_net, vmean):
        f = extract_features(sub_net)
        vff = np.array([lk.vff_kmh for lk in sub_net.links])
        return np.array([np.clip(model.predict(rows(f, vmean, t)), 0.0, vff)
                         for t in range(len(vmean))])
    return predict


def test_lr_estimator_matches_hand_reference_to_the_bit(corpus):
    net, dataset = corpus
    est = fit_lr_estimator(net, dataset)
    reference = hand_lr(net, dataset)
    for sc in dataset.split_scenarios("test"):
        sub = net.with_bus_lanes(sc.bus_links)
        vmean = dataset.records[sc.id].mean_speed
        got = est.predict_windows(sub, None, vmean)
        assert got.shape == (len(vmean), net.n_links)
        assert got.tobytes() == reference(sub, vmean).tobytes()


def stacked_lr_coefficients(net, dataset):
    """The LR coefficients as the fit once took them: each scenario's rows
    in a list, their ``np.vstack``, then a ``column_stack`` copy with the
    ones column, solved by the same normal equations."""
    feats = split_features(net, dataset, "train")
    norm = fit_normalization(dataset, feats, "Speed")
    xs, ys = [], []
    for sc, sc_feats in zip(dataset.split_scenarios("train"), feats):
        rec = dataset.records[sc.id]
        rows = _lr_rows(norm, sc_feats, rec.mean_speed)
        xs.append(rows.reshape(-1, rows.shape[2]))
        ys.append(rec.speeds.ravel())
    x = np.vstack(xs)
    xb = np.column_stack([x, np.ones(len(x))])
    gram = xb.T @ xb + LR_RIDGE * np.eye(xb.shape[1])
    return np.linalg.solve(gram, xb.T @ np.concatenate(ys))


def test_lr_fit_on_one_design_matrix_keeps_the_stacked_coefficients(corpus):
    net, dataset = corpus
    est = fit_lr_estimator(net, dataset)
    coef = stacked_lr_coefficients(net, dataset)
    assert est.model.weights.tobytes() == coef[:-1].tobytes()
    assert np.float64(est.model.bias).tobytes() == coef[-1].tobytes()


def test_lr_fit_holds_one_copy_of_its_rows():
    """The fit's tracemalloc peak is about one design matrix, rows x 16
    float64 columns: on 14 training scenarios of 10 windows on a 5 x 5
    grid (80 links), 11,200 rows and a 1.43 MB matrix, it read 1.64 MB.
    The rows in a list, their vstack and a column_stack copy read 4.41 MB,
    three copies."""
    net = generate_grid_network(5, 5, 100.0, 2)
    base = random_base_od(net, n_pairs=6, rate_veh_h=300.0, seed=4)
    cfg = SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0, peak_s=240.0,
                    total_s=600.0)
    dataset = build_dataset(net, base, n=20, master_seed=4, cfg=cfg)
    fit_lr_estimator(net, dataset)
    tracemalloc.start()
    try:
        fit_lr_estimator(net, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    train = dataset.split_scenarios("train")
    rows = sum(dataset.records[sc.id].speeds.size for sc in train)
    design_bytes = rows * 16 * 8
    assert peak < 1.5 * design_bytes


def test_lr_is_one_more_entry_of_the_models_dict(corpus):
    net, dataset = corpus
    est = fit_lr_estimator(net, dataset)
    rec = dataset.records[dataset.splits["test"][0]]
    got = make_predictor("LR", None, {"LR": est})(net, rec)
    assert got.tobytes() == est.predict_windows(net, None,
                                                rec.mean_speed).tobytes()
    with pytest.raises(ValueError, match="no trained model available for 'LR'"):
        make_predictor("LR", None, {})


def test_lr_estimator_clips_to_zero_and_free_flow(corpus):
    net, dataset = corpus
    est = fit_lr_estimator(net, dataset)
    # mean speeds far outside the training range push the linear output
    # past both ends
    vmean = np.array([-1e4] * 6 + [1e4] * 6)
    out = est.predict_windows(net, None, vmean)
    assert out.min() == 0.0 and out.max() == 25.0
    assert np.all((out >= 0.0) & (out <= 25.0))


def test_evaluations_build_each_scenario_network_once(corpus, monkeypatch):
    net, dataset = corpus
    test_scenarios = dataset.split_scenarios("test")
    with_lanes = sum(1 for sc in test_scenarios if sc.bus_links)
    assert with_lanes > 0
    lr = fit_lr_estimator(net, dataset)
    dnn = LcfModel(ModelConfig(use_gat=False, use_partition=False,
                               hidden_dim=4, fc_hidden=(4,)),
                   fit_normalization(dataset, split_features(net, dataset,
                                                             "train"), "Speed"))
    models = ["MFD", "LR", "DNN"]
    runs = {
        "speed": lambda names: evaluate_speed_split(
            net, dataset, None, names, {"DNN": dnn, "LR": lr}),
        "travel_time": lambda names: evaluate_travel_time_split(
            net, dataset, None, names, {"DNN": dnn, "LR": lr}, n_trips=40,
            seed=3),
    }
    built = []
    init = RoadNetwork.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    for name, run in runs.items():
        # one model per call, as every model built its own networks before
        alone = [run([m]) for m in models]
        monkeypatch.setattr(RoadNetwork, "__init__", counting_init)
        built.clear()
        reports, samples = run(models)
        monkeypatch.setattr(RoadNetwork, "__init__", init)
        assert len(built) == with_lanes, name
        for m, (rep, smp) in zip(models, alone):
            assert repr(reports[models.index(m)]) == repr(rep[0]), (name, m)
            assert samples[m].tobytes() == smp[m].tobytes(), (name, m)


def test_travel_time_split_logs_horizon_overruns(corpus, caplog):
    net, dataset = corpus
    # every trip departs in the last 60-s window, so most walks run past it
    with caplog.at_level("INFO", logger="lcftraffic.harness"):
        reports, _ = evaluate_travel_time_split(net, dataset, None, ["MFD"], {},
                                                n_trips=20, seed=1,
                                                warmup_windows=9)
    found = re.search(r"travel-time MFD: 0 no-path trips excluded, (\d+) trips "
                      r"overran the horizon", caplog.text)
    assert found and int(found.group(1)) > 0
    # the report rows hold the logged counts
    assert reports[0].as_rows()[-2:] == [
        ("MFD", "test-medium", "NoPath", 0.0),
        ("MFD", "test-medium", "Overrun", float(found.group(1)))]


TWO_GRIDS_CFG = SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0,
                          peak_s=240.0, total_s=600.0)


@pytest.fixture(scope="module")
def two_grids():
    """Two 3 x 3 grids with no link between them, demand on the first: a
    trip from one grid to the other has no path."""
    a = generate_grid_network(3, 3, 100.0, 2, with_signals=False)
    n_j, n_l = len(a.junctions), a.n_links
    junctions = dict(a.junctions)
    junctions.update({j + n_j: (x + 1000.0, y) for j, (x, y) in a.junctions.items()})
    links = list(a.links) + [
        Link(lk.id + n_l, lk.from_junction + n_j, lk.to_junction + n_j,
             lk.length_m, lk.lanes_total, lk.lanes_dbl, lk.vff_kmh,
             lk.is_boundary_in, lk.is_boundary_out) for lk in a.links]
    net = RoadNetwork(junctions, links)
    od = ODMatrix(pairs=((0, 23), (1, 22)), rates=(300.0, 300.0))
    return net, build_dataset(net, od, n=10, master_seed=8, cfg=TWO_GRIDS_CFG)


def test_travel_time_split_excludes_a_scenario_whose_trips_all_fail(two_grids, caplog):
    net, dataset = two_grids
    # at seed 0 each of the two test scenarios gets one trip: the first
    # crosses between the grids, the second stays in one
    with caplog.at_level("INFO", logger="lcftraffic.harness"):
        reports, samples = evaluate_travel_time_split(
            net, dataset, None, ["MFD"], {}, n_trips=2, seed=0)
    assert reports[0].count == 1 and len(samples["MFD"]) == 1
    assert "travel-time MFD: 1 no-path trips excluded" in caplog.text
    assert reports[0].no_path == 1


def test_travel_time_split_fails_when_none_of_its_trips_routes(two_grids):
    net, dataset = two_grids
    # at seed 4 both trips cross between the grids
    with pytest.raises(ValueError, match=r"travel-time MFD: none of the 2 "
                                         r"trips of split 'test' routes"):
        evaluate_travel_time_split(net, dataset, None, ["MFD"], {}, n_trips=2,
                                   seed=4)


def test_unreachable_destinations_are_logged_once_per_run(two_grids, caplog):
    """No link of the second grid reaches either destination. Link times are
    finite, so every turn-ratio refresh finds the same links, and one line
    per destination, at the run's first solve, says all there is."""
    net, dataset = two_grids
    with caplog.at_level("WARNING", logger="lcftraffic.simulate"):
        simulate(net, dataset.scenarios[0], TWO_GRIDS_CFG)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "lcftraffic.simulate"]
    second = ", ".join(str(i) for i in range(24, 48))
    assert lines == [f"destination link {d} unreachable from 24 links "
                     f"({second}); falling back to a uniform split"
                     for d in (22, 23)]
