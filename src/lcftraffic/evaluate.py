"""Metric computation, the random-trip travel-time experiment, and report
emission (CSV tables, histogram data and self-contained SVG plots).

The travel-time experiment routes each random trip with Dijkstra on the
*estimated* speed field at its departure window, then walks the same path
through both the estimated and the recorded time-varying speed fields and
compares the two durations. A model that reproduces the recorded speeds
therefore scores exactly zero error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .network import RoadNetwork, dijkstra, link_travel_times


@dataclass(frozen=True)
class MetricReport:
    model: str
    scenario_class: str
    mae: float
    mse: float
    rmse: float
    err_mean: float
    err_std: float
    count: int

    def as_rows(self) -> list[tuple[str, str, str, float]]:
        return [(self.model, self.scenario_class, metric, value)
                for metric, value in (
                    ("MAE", self.mae), ("MSE", self.mse), ("RMSE", self.rmse),
                    ("ErrMean", self.err_mean), ("ErrStd", self.err_std),
                    ("Count", float(self.count)))]


def metrics(pred: np.ndarray, truth: np.ndarray, model: str = "",
            scenario_class: str = "") -> MetricReport:
    """MAE / MSE / RMSE and the error mean and population std of
    e = pred - truth. Each mean is ``np.add.reduce(x) / n``, the sum and
    division ``np.mean`` and ``np.std`` run, so the values equal theirs to
    the bit without their Python wrappers."""
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("pred and truth must be equally sized and non-empty")
    e = pred - truth
    n = e.size
    mean = np.add.reduce(e) / n
    dev = e - mean
    mse = float(np.add.reduce(e * e) / n)
    return MetricReport(
        model=model, scenario_class=scenario_class,
        mae=float(np.add.reduce(np.abs(e)) / n), mse=mse, rmse=math.sqrt(mse),
        err_mean=float(mean), err_std=math.sqrt(np.add.reduce(dev * dev) / n),
        count=n,
    )


# ---------------------------------------------------------------------------
# trips and routing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trip:
    origin: int       # link id
    destination: int  # link id
    departure: int    # window index


def generate_trips(net: RoadNetwork, n: int, seed: int,
                   horizon: tuple[int, int]) -> list[Trip]:
    """n random trips: origin/destination uniform over non-boundary links
    (all links when none qualify), departure uniform over the horizon."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    pool = [lk.id for lk in net.links
            if not (lk.is_boundary_in or lk.is_boundary_out)]
    if len(pool) < 2:
        pool = list(net.link_ids())
    lo, hi = horizon
    trips = []
    while len(trips) < n:
        o, d = rng.choice(len(pool), size=2, replace=False)
        t = int(rng.integers(lo, hi + 1))
        trips.append(Trip(pool[int(o)], pool[int(d)], t))
    return trips


def shortest_path(net: RoadNetwork, speeds_kmh: np.ndarray, origin: int,
                  destination: int) -> list[int] | None:
    """Minimum-travel-time link path (inclusive of both endpoints) on the
    static speed field; None when unreachable. A forward ``dijkstra`` runs
    until the destination is final; back from it, each link's predecessor
    is the smallest-id upstream link u with dist[u] + tau[z] == dist[z]
    exactly (``up_of`` lists ids in order), so ties resolve deterministically.

    The search is goal-directed: its bound on link v is
    ``r * |end(v) - end(dst)|``, the straight line from v's end junction to
    the destination's, at ``r``, the least seconds per chord metre over the
    links with a chord, times (1 - 1e-9). A link v continues one that ends
    where v starts, so the bound is consistent (tau[v] >= r * chord(v) by
    the choice of r, even on a link shorter than its chord), and the slack
    makes every such inequality strict: each u with dist[u] + tau[z] ==
    dist[z], for z on the path, is final before the destination, with the
    label the unbounded search gives it, and the tie rule picks the same u.
    With all junctions at one point the bound is 0.

    A speed that is not finite and > 0 is a ValueError naming the link."""
    lo, hi = speeds_kmh.min(), speeds_kmh.max()
    if not (lo > 0 and hi < math.inf):      # NaN fails it too
        bad = int(np.argmin((speeds_kmh > 0) & (speeds_kmh < math.inf)))
        raise ValueError(f"link {net.links[bad].id}: speed "
                         f"{float(speeds_kmh[bad])!r} km/h is not finite and > 0")
    idx = net.index
    tau = link_travel_times(idx.length_m, speeds_kmh)
    src, dst = net.link_index(origin), net.link_index(destination)
    with np.errstate(divide="ignore"):      # a link without a chord: inf
        r = (tau / idx.chord_m).min()
    r = r * (1.0 - 1e-9) if r < math.inf else 0.0
    lower = r * np.hypot(idx.end_x - idx.end_x[dst], idx.end_y - idx.end_y[dst])
    tau = tau.tolist()
    dist = dijkstra(idx.down_of, tau, src, stop=dst, lower=lower.tolist())
    if math.isinf(dist[dst]):
        return None
    path = [dst]
    while (z := path[-1]) != src:
        path.append(next(u for u in idx.up_of[z] if dist[u] + tau[z] == dist[z]))
    return [net.links[z].id for z in reversed(path)]


def path_travel_time(net: RoadNetwork, path: list[int],
                     speeds_by_window: np.ndarray, depart_window: int,
                     window_s: float) -> tuple[float, bool]:
    """Seconds to traverse the path, each link crossed at the speed of the
    window containing the clock at its entry. Returns (seconds, flag); the
    flag marks clock overruns past the record horizon, where the last
    window's field is extrapolated. A speed read on the walk that is not
    finite and > 0 is a ValueError naming the link and the window."""
    if not path:
        raise ValueError("path must be non-empty")
    n_windows = speeds_by_window.shape[0]
    links = [net.link_index(link_id) for link_id in path]
    lengths = net.index.length_m[links].tolist()
    clock = depart_window * window_s
    overran = False
    for link_id, z, length_m in zip(path, links, lengths):
        w = int(clock // window_s)
        if w >= n_windows:
            w = n_windows - 1
            overran = True
        v = speeds_by_window.item(w, z)
        if not 0 < v < math.inf:            # NaN fails it too
            raise ValueError(f"link {link_id}: speed {v!r} km/h in window {w} "
                             "is not finite and > 0")
        clock += link_travel_times(length_m, v)
    return clock - depart_window * window_s, overran


class NoRoutableTrips(ValueError):
    """None of a travel-time experiment's trips has a path."""


@dataclass
class TravelTimeResult:
    n_no_path: int
    errors: np.ndarray  # estimated minus recorded seconds, per timed trip
    n_overrun: int  # timed trips whose walk ran past the horizon in either field


def travel_time_experiment(net: RoadNetwork, estimated: np.ndarray,
                           recorded: np.ndarray, trips: list[Trip],
                           window_s: float, model: str = "") -> TravelTimeResult:
    """Route every trip on the estimated field at departure, then time the
    chosen path under both fields; the errors it raises name ``model``."""
    where = f"{model}: " if model else ""
    est_times, true_times = [], []
    no_path = overrun = 0
    for trip in trips:
        try:
            path = shortest_path(net, estimated[trip.departure], trip.origin,
                                 trip.destination)
        except ValueError as exc:
            raise ValueError(f"{where}departure window {trip.departure}: {exc}") from None
        if path is None:
            no_path += 1
            continue
        t_est, est_over = path_travel_time(net, path, estimated, trip.departure, window_s)
        t_true, true_over = path_travel_time(net, path, recorded, trip.departure, window_s)
        overrun += est_over or true_over
        est_times.append(t_est)
        true_times.append(t_true)
    if not est_times:
        raise NoRoutableTrips(f"{where}none of {len(trips)} trips routes")
    return TravelTimeResult(n_no_path=no_path,
                            errors=np.array(est_times) - np.array(true_times),
                            n_overrun=overrun)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _f(x: float) -> str:
    return repr(float(x))


def histogram(errors: np.ndarray, n_bins: int = 40) -> list[tuple[float, float, int]]:
    counts, edges = np.histogram(np.asarray(errors, dtype=float), bins=n_bins)
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))]


def _hist_svg(bins: list[tuple[float, float, int]], title: str) -> str:
    width, height, pad = 640, 360, 40
    peak = max((c for _, _, c in bins), default=1) or 1
    lo, hi = bins[0][0], bins[-1][1]
    span = (hi - lo) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for left, right, count in bins:
        x0 = pad + (left - lo) / span * (width - 2 * pad)
        x1 = pad + (right - lo) / span * (width - 2 * pad)
        h = (height - 2 * pad) * count / peak
        parts.append(
            f'<rect x="{x0:.2f}" y="{height - pad - h:.2f}" '
            f'width="{max(x1 - x0 - 0.5, 0.5):.2f}" height="{h:.2f}" '
            f'fill="#4878a8"/>')
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        x = pad + frac * (width - 2 * pad)
        val = lo + frac * span
        parts.append(
            f'<text x="{x:.1f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{val:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_report(reports: list[MetricReport], out_dir,
                  error_samples: dict[str, np.ndarray] | None = None,
                  n_bins: int = 40) -> list[str]:
    """Write report_table.csv plus per-model histogram CSV/SVG files;
    returns the created file names. Deterministic for identical inputs."""
    if not reports:
        raise ValueError("need at least one report")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    table = os.path.join(out_dir, "report_table.csv")
    with open(table, "w") as fh:
        fh.write("model,scenario_class,metric,value\n")
        for rep in reports:
            for model, klass, metric, value in rep.as_rows():
                fh.write(f"{model},{klass},{metric},{_f(value)}\n")
    written.append("report_table.csv")
    for name in sorted(error_samples or {}):
        bins = histogram(error_samples[name], n_bins=n_bins)
        safe = name.replace("/", "_")
        csv_name = f"hist_{safe}.csv"
        with open(os.path.join(out_dir, csv_name), "w") as fh:
            fh.write("bin_left,bin_right,count\n")
            for left, right, count in bins:
                fh.write(f"{_f(left)},{_f(right)},{count}\n")
        written.append(csv_name)
        svg_name = f"hist_{safe}.svg"
        with open(os.path.join(out_dir, svg_name), "w") as fh:
            fh.write(_hist_svg(bins, f"error distribution: {name}"))
        written.append(svg_name)
    return written
