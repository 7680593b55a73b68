"""Network partitioning into homogeneous sub-regions.

Each link becomes a 3-d point (alpha * x, alpha * y, beta * v) from its
min-max normalized midpoint and its mean speed during the peak-production
window, and the points are clustered with seeded k-means. Defaults:
K = 4, alpha = 1, beta = 1.5, window half-width 2 around window index 40.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import bounded, check, from_json, load_json, read_json
from .network import RoadNetwork, fit_minmax
from .simulate import SimRecord

KMEANS_MAX_ITER = 300    # Lloyd iterations per k-means++ start
KMEANS_N_INIT = 10       # k-means++ starts per kmeans call


@dataclass(frozen=True)
class PartitionParams:
    k: int = bounded(4, ge=1)
    alpha: float = bounded(1.0, ge=0)
    beta: float = bounded(1.5, ge=0)
    t_window: int = bounded(2, ge=0)
    t_max: int = bounded(40, ge=0)
    seed: int = bounded(0, ge=0)

    __post_init__ = check


@dataclass(frozen=True)
class PartitionAssignment:
    labels: dict[int, int]          # link id -> region label in 0..k-1
    centroids: np.ndarray           # (k, 3) in the weighted feature space
    params: PartitionParams

    def __getitem__(self, link_id: int) -> int:
        return self.labels[link_id]

    def region_sizes(self) -> list[int]:
        sizes = [0] * self.params.k
        for lab in self.labels.values():
            sizes[lab] += 1
        return sizes


def peak_window_speed(record: SimRecord, link_index: int, t_max: int,
                      t_window: int) -> float:
    """Mean link speed over windows [t_max - t_window, t_max + t_window],
    clipped to the record bounds."""
    lo = max(t_max - t_window, 0)
    hi = min(t_max + t_window, record.n_windows - 1)
    if lo > hi or hi < 0 or lo >= record.n_windows:
        raise ValueError(f"windows t_max - t_window .. t_max + t_window = "
                         f"{t_max - t_window} .. {t_max + t_window} (t_max "
                         f"{t_max}, t_window {t_window}) miss the record's "
                         f"{record.n_windows} windows")
    return float(record.speeds[lo:hi + 1, link_index].mean())


def build_cluster_points(net: RoadNetwork, record: SimRecord, alpha: float,
                         beta: float, t_window: int, t_max: int) -> np.ndarray:
    """One 3-d point per link: weighted normalized (x, y, peak speed)."""
    mids = np.array([net.midpoint(lk.id) for lk in net.links])
    speeds = np.array([
        peak_window_speed(record, zi, t_max, t_window)
        for zi in range(net.n_links)
    ])
    raw = np.column_stack([mids, speeds])
    norm = fit_minmax(raw).apply(raw)
    return norm * np.array([alpha, alpha, beta])


def _wcss(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    return float(((points - centroids[labels]) ** 2).sum())


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[i] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    centroids = _kmeanspp_init(points, k, rng)
    labels = np.full(len(points), -1, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        # re-seed any emptied cluster from the farthest point whose donor
        # cluster keeps at least one member
        own_d2 = d2[np.arange(len(points)), new_labels]
        for c in range(k):
            if np.any(new_labels == c):
                continue
            for far in np.argsort(-own_d2):
                far = int(far)
                if np.sum(new_labels == new_labels[far]) > 1:
                    new_labels[far] = c
                    own_d2[far] = 0.0
                    break
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
    return labels, centroids


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from k-means++ starts, deterministic per seed.

    Points tied between centroids go to the lowest centroid index (argmin
    tie-break). The best of ``KMEANS_N_INIT`` restarts by within-cluster
    sum of squares is returned; restart seeds are spawned from ``seed``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < k:
        raise ValueError(f"k-means needs a 2-D array of at least k = {k} "
                         f"points, got shape {points.shape}")
    best = None
    for child in np.random.SeedSequence(seed).spawn(KMEANS_N_INIT):
        labels, centroids = _lloyd(points, k, np.random.default_rng(child))
        obj = _wcss(points, labels, centroids)
        if best is None or obj < best[0]:
            best = (obj, labels, centroids)
    return best[1], best[2]


def partition_network(net: RoadNetwork, record: SimRecord,
                      params: PartitionParams | None = None) -> PartitionAssignment:
    params = params or PartitionParams()
    points = build_cluster_points(net, record, params.alpha, params.beta,
                                  params.t_window, params.t_max)
    labels, centroids = kmeans(points, params.k, seed=params.seed)
    return PartitionAssignment(
        labels={lk.id: int(lab) for lk, lab in zip(net.links, labels)},
        centroids=centroids, params=params,
    )


# ---------------------------------------------------------------------------
# partition file: JSON {"params": {...}, "centroids": [[x, y, v], ...],
# "labels": [[link_id, label], ...]}, labels sorted by link id
# ---------------------------------------------------------------------------

def save_partition(assignment: PartitionAssignment, path) -> None:
    doc = {"params": asdict(assignment.params),
           "centroids": assignment.centroids.tolist(),
           "labels": sorted(assignment.labels.items())}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


_PARTITION_KINDS = {"params": "dict", "centroids": "tuple[tuple[float, ...], ...]",
                    "labels": "tuple[tuple[int, int], ...]"}


def _assignment_of(params, centroids, labels) -> PartitionAssignment:
    p = from_json(PartitionParams, params, "params")
    if len(centroids) != p.k or {len(row) for row in centroids} - {3}:
        raise ValueError(f"centroids: expected k = {p.k} rows of 3 numbers")
    by_link: dict[int, int] = {}
    for link_id, label in labels:
        if link_id in by_link:
            raise ValueError(f"labels: link {link_id} is listed twice")
        if not 0 <= label < p.k:
            raise ValueError(f"labels: link {link_id} has region label {label}, "
                             f"outside 0..{p.k - 1}")
        by_link[link_id] = label
    return PartitionAssignment(labels=by_link, params=p,
                               centroids=np.array(centroids, dtype=float))


def load_partition(path) -> PartitionAssignment:
    """Read a ``save_partition`` file. Every key is required and no other is
    taken; anything else, a text partition of earlier versions included, is
    a ValueError naming the file and the key or link."""
    return read_json(load_json(path, "partition"), _PARTITION_KINDS, str(path),
                     _assignment_of)
