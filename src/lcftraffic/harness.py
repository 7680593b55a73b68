"""Glue between datasets, estimators and the metric protocols.

A *predictor* maps one scenario of a dataset to a (windows x links) speed
field. The MFD baselines read the record itself; every other model is an
entry of the models dict that the protocols take, keyed by its upper-case
name, and exposes ``predict_windows(net, partition, mean_speeds)``: the
learned estimators, the linear model under "LR", and any external
regressor wrapped to that surface.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .baselines import LinearModel, fit_lr, region_mean_speeds
from .evaluate import (MetricReport, generate_trips, metrics,
                       travel_time_experiment)
from .model import Normalization, fit_normalization, pad_history, split_features
from .network import RoadNetwork, extract_features
from .scenarios import Dataset

log = logging.getLogger(__name__)

STANDARD_MODELS = ("MFD", "MFD-P", "LR", "DNN", "DNN-GRU", "GAT", "GAT-GRU",
                   "GAT-GRU-P")
# mean-speed windows the linear model sees, as the estimators by default
LR_HISTORY_LEN = 5
# floor (km/h) on estimated speeds before trips are routed and timed on them
TRIP_SPEED_FLOOR_KMH = 1.0


def _lr_rows(norm: Normalization, feats: np.ndarray,
             vmean_kmh: np.ndarray) -> np.ndarray:
    """(windows, links, 10 + LR_HISTORY_LEN) inputs of the linear model:
    each link's normalized attributes, then the window's padded normalized
    mean-speed history."""
    feats_norm = norm.feat.apply(feats)
    hist = pad_history(norm.norm_vmean(vmean_kmh), LR_HISTORY_LEN)
    shape = (len(hist), len(feats_norm))
    return np.concatenate([
        np.broadcast_to(feats_norm, shape + feats_norm.shape[1:]),
        np.broadcast_to(hist[:, None, :], shape + hist.shape[1:])], axis=2)


@dataclass
class LrSpeedEstimator:
    """Least-squares speeds from the 10 link attributes (no sub-region)
    plus the padded mean-speed history; mirrors the learned estimators'
    predict surface."""

    model: LinearModel
    norm: Normalization

    def predict_windows(self, net, partition, vmean_kmh):
        """(windows, links) speeds for every window of the mean-speed
        series; ``partition`` is not used."""
        rows = _lr_rows(self.norm, extract_features(net), vmean_kmh)
        return np.clip(self.model.predict(rows), 0.0, net.index.vff_kmh)


def fit_lr_estimator(net: RoadNetwork, dataset: Dataset) -> LrSpeedEstimator:
    """Least squares over every (window, link) of the training split."""
    feats = split_features(net, dataset, "train")
    norm = fit_normalization(dataset, feats, "Speed")
    xs, ys = [], []
    for sc, sc_feats in zip(dataset.split_scenarios("train"), feats):
        rec = dataset.records[sc.id]
        rows = _lr_rows(norm, sc_feats, rec.mean_speed)
        xs.append(rows.reshape(-1, rows.shape[2]))
        ys.append(rec.speeds.ravel())
    return LrSpeedEstimator(fit_lr(np.vstack(xs), np.concatenate(ys)), norm)


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def make_predictor(name: str, partition, models: dict):
    """Predictor callable (net_sc, record) -> (windows, links) speeds. MFD
    gives every link the window's network mean speed; MFD-P gives each link
    its sub-region's accumulation-weighted mean speed; any other name is
    looked up in ``models``."""
    key = name.upper()
    if key == "TRUTH":
        return lambda net_sc, rec: rec.speeds.copy()
    if key == "MFD":
        return lambda net_sc, rec: np.tile(rec.mean_speed[:, None],
                                           (1, len(rec.link_ids)))
    if key == "MFD-P":
        if partition is None:
            raise ValueError("MFD-P needs a partition")
        return lambda net_sc, rec: region_mean_speeds(
            rec.speeds, rec.accumulation,
            np.array([partition[lid] for lid in rec.link_ids]), partition.params.k)
    model = models.get(key)
    if model is None:
        raise ValueError(f"no trained model available for {name!r}")
    return lambda net_sc, rec: model.predict_windows(net_sc, partition,
                                                     rec.mean_speed)


# ---------------------------------------------------------------------------
# metric protocols
# ---------------------------------------------------------------------------

def _scenario_networks(net: RoadNetwork, scenarios) -> dict[int, RoadNetwork]:
    """Each scenario's bus-lane network, built once per evaluation and shared
    by every model, so its cached index is built once too."""
    return {sc.id: net.with_bus_lanes(sc.bus_links) for sc in scenarios}


def evaluate_speed_split(net: RoadNetwork, dataset: Dataset, partition,
                         model_names, models, split: str = "test",
                         scenario_class: str = "",
                         ) -> tuple[list[MetricReport], dict[str, np.ndarray]]:
    """Pooled speed-error metrics per model over every (scenario, window,
    link) sample of the split."""
    label = scenario_class or f"{split}-{dataset.demand_level}"
    scenarios = dataset.split_scenarios(split)
    nets = _scenario_networks(net, scenarios)
    reports, samples = [], {}
    for name in model_names:
        fn = make_predictor(name, partition, models)
        preds, truths = [], []
        for sc in scenarios:
            rec = dataset.records[sc.id]
            preds.append(fn(nets[sc.id], rec).ravel())
            truths.append(rec.speeds.ravel())
        pred = np.concatenate(preds)
        truth = np.concatenate(truths)
        reports.append(metrics(pred, truth, model=name, scenario_class=label))
        samples[name] = pred - truth
    return reports, samples


def evaluate_travel_time_split(net: RoadNetwork, dataset: Dataset, partition,
                               model_names, models, n_trips: int = 1000,
                               seed: int = 0,
                               split: str = "test", scenario_class: str = "",
                               warmup_windows: int | None = None,
                               ) -> tuple[list[MetricReport], dict[str, np.ndarray]]:
    """Trip-time metrics per model: n_trips spread over the split's
    scenarios, the first ``n_trips % S`` of its S scenarios taking one more
    than the rest; a scenario given none is skipped. Each trip is routed
    on the model's estimated field at departure."""
    label = scenario_class or f"{split}-{dataset.demand_level}"
    scenarios = dataset.split_scenarios(split)
    if not scenarios:
        raise ValueError(f"split {split!r} is empty")
    if n_trips < 1:
        raise ValueError(f"n_trips must be >= 1, got {n_trips}")
    n_sc = len(scenarios)
    counts = {sc.id: n_trips // n_sc + (i < n_trips % n_sc)
              for i, sc in enumerate(scenarios)}
    scenarios = [sc for sc in scenarios if counts[sc.id]]
    nets = _scenario_networks(net, scenarios)
    trip_sets = {}
    for sc in scenarios:
        rec = dataset.records[sc.id]
        lo = warmup_windows if warmup_windows is not None \
            else max(1, rec.n_windows // 10)
        trip_sets[sc.id] = generate_trips(nets[sc.id], counts[sc.id],
                                          seed=seed + sc.id,
                                          horizon=(lo, rec.n_windows - 1))
    reports, samples = [], {}
    for name in model_names:
        fn = make_predictor(name, partition, models)
        errs = []
        excluded = overran = 0
        for sc in scenarios:
            rec = dataset.records[sc.id]
            sub = nets[sc.id]
            pred = np.maximum(fn(sub, rec), TRIP_SPEED_FLOOR_KMH)
            result = travel_time_experiment(sub, pred, rec.speeds,
                                            trip_sets[sc.id], rec.window_s,
                                            model=name, scenario_class=label)
            errs.append(result.errors)
            excluded += result.n_no_path
            overran += result.n_overrun
        if excluded or overran:
            log.info("travel-time %s: %d no-path trips excluded, %d trips "
                     "overran the horizon", name, excluded, overran)
        err = np.concatenate(errs)
        reports.append(metrics(err, np.zeros_like(err), model=name,
                               scenario_class=label, unit="s"))
        samples[name] = err
    return reports, samples
