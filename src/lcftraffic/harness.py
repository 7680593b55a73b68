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
from .evaluate import (MetricReport, NoRoutableTrips, generate_trips, metrics,
                       travel_time_experiment)
from .model import Normalization, fit_normalization, pad_history, split_features
from .network import N_FEATURES, RoadNetwork, extract_features
from .scenarios import Dataset

log = logging.getLogger(__name__)

STANDARD_MODELS = ("MFD", "MFD-P", "LR", "DNN", "DNN-GRU", "GAT", "GAT-GRU",
                   "GAT-GRU-P")
# mean-speed windows the linear model sees, as the estimators by default
LR_HISTORY_LEN = 5
# floor (km/h) on estimated speeds before trips are routed and timed on them
TRIP_SPEED_FLOOR_KMH = 1.0


def _lr_rows(norm: Normalization, feats: np.ndarray, vmean_kmh: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """(windows, links, N_FEATURES + LR_HISTORY_LEN) inputs of the linear
    model: each link's normalized attributes, then the window's padded
    normalized mean-speed history; written into ``out`` when given."""
    feats_norm = norm.feat.apply(feats)
    hist = pad_history(norm.norm_vmean(vmean_kmh), LR_HISTORY_LEN)
    shape = (len(hist), len(feats_norm))
    return np.concatenate([
        np.broadcast_to(feats_norm, shape + feats_norm.shape[1:]),
        np.broadcast_to(hist[:, None, :], shape + hist.shape[1:])], axis=2,
        out=out)


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
    """Least squares over every (window, link) of the training split. Every
    row's inputs, and the ones column of the bias, are written in place into
    one design matrix, which ``fit_lr`` solves on."""
    feats = split_features(net, dataset, "train")
    norm = fit_normalization(dataset, feats, "Speed")
    records = [dataset.records[sc.id]
               for sc in dataset.split_scenarios("train")]
    n_rows = sum(rec.speeds.size for rec in records)
    design = np.empty((n_rows, N_FEATURES + LR_HISTORY_LEN + 1))
    design[:, -1] = 1.0
    targets = np.empty(n_rows)
    start = 0
    for rec, sc_feats in zip(records, feats):
        stop = start + rec.speeds.size
        rows = design[start:stop].reshape(*rec.speeds.shape, -1)
        _lr_rows(norm, sc_feats, rec.mean_speed, out=rows[..., :-1])
        targets[start:stop] = rec.speeds.ravel()
        start = stop
    return LrSpeedEstimator(fit_lr(design, targets), norm)


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


@dataclass(frozen=True)
class TripReport(MetricReport):
    """The trip-time metrics of the timed trips, then the trips without a
    path and those that overran the record's horizon."""
    no_path: int
    overrun: int

    def as_rows(self) -> list[tuple[str, str, str, float]]:
        return super().as_rows() + [
            (self.model, self.scenario_class, metric, float(n))
            for metric, n in (("NoPath", self.no_path), ("Overrun", self.overrun))]


def evaluate_travel_time_split(net: RoadNetwork, dataset: Dataset, partition,
                               model_names, models, n_trips: int = 1000,
                               seed: int = 0,
                               split: str = "test", scenario_class: str = "",
                               warmup_windows: int | None = None,
                               ) -> tuple[list[MetricReport], dict[str, np.ndarray]]:
    """Trip-time metrics per model: n_trips spread over the split's
    scenarios, the first ``n_trips % S`` of its S scenarios taking one more
    than the rest; a scenario given none is skipped. Each trip is routed
    on the model's estimated field at departure. Trips without a path are
    excluded; a ValueError is raised only when no trip of the split routes."""
    label = scenario_class or f"{split}-{dataset.demand_level}"
    scenarios = dataset.split_scenarios(split)
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
            try:
                result = travel_time_experiment(sub, pred, rec.speeds,
                                                trip_sets[sc.id], rec.window_s,
                                                model=name)
            except NoRoutableTrips:
                excluded += len(trip_sets[sc.id])
                continue
            errs.append(result.errors)
            excluded += result.n_no_path
            overran += result.n_overrun
        if not errs:
            raise ValueError(f"travel-time {name}: none of the {excluded} "
                             f"trips of split {split!r} routes")
        if excluded or overran:
            log.info("travel-time %s: %d no-path trips excluded, %d trips "
                     "overran the horizon", name, excluded, overran)
        err = np.concatenate(errs)
        reports.append(TripReport(
            **vars(metrics(err, np.zeros_like(err), model=name,
                           scenario_class=label)),
            no_path=excluded, overrun=overran))
        samples[name] = err
    return reports, samples
