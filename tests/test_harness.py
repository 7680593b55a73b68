import re

import numpy as np
import pytest

from lcftraffic.baselines import fit_lr
from lcftraffic.harness import (evaluate_speed_split,
                                evaluate_travel_time_split, fit_lr_estimator,
                                make_predictor)
from lcftraffic.model import (LcfModel, ModelConfig, fit_normalization,
                              pad_history, split_features)
from lcftraffic.network import (RoadNetwork, extract_features,
                                generate_grid_network)
from lcftraffic.scenarios import build_dataset, random_base_od
from lcftraffic.simulate import SimConfig


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
    model = fit_lr(np.vstack(xs), np.concatenate(ys))

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
        evaluate_travel_time_split(net, dataset, None, ["MFD"], {}, n_trips=20,
                                   seed=1, warmup_windows=9)
    found = re.search(r"travel-time MFD: 0 no-path trips excluded, (\d+) trips "
                      r"overran the horizon", caplog.text)
    assert found and int(found.group(1)) > 0
