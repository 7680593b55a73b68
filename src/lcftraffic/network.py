"""Road network model: links, junctions, the links-as-nodes graph and
per-link attribute extraction.

A road network is a directed graph of links joined at junctions. For the
attention model the network is re-expressed as a *link graph* in which every
link becomes a node and an edge (i, j) exists whenever link j is directly
downstream of link i; every node also carries a self-loop so that a link
attends to itself. The graph is held as an edge list (``LinkGraph``), so its
size grows with the edges, never with the square of the link count.

Each link is summarised by 10 attributes, in this fixed column order:

    0  length_m
    1  lanes_total
    2  lanes_dbl          (dedicated bus lanes)
    3  n_up               (upstream link count)
    4  n_down             (downstream link count)
    5  n_up_boundary      (upstream links on the network boundary)
    6  n_down_boundary    (downstream links on the network boundary)
    7  n_up_dbl           (upstream links with a dedicated bus lane)
    8  n_down_dbl         (downstream links with a dedicated bus lane)
    9  sub_region         (partition label, 0 when no partition is used)

A network file is one JSON object: ``junctions`` ({"id", "x", "y"}),
``links`` (the ``Link`` fields, both boundary flags included) and
``signals`` (the ``SignalPlan`` fields), read by ``config.read_json``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .config import load_json, read_json

FEATURE_NAMES = (
    "length_m",
    "lanes_total",
    "lanes_dbl",
    "n_up",
    "n_down",
    "n_up_boundary",
    "n_down_boundary",
    "n_up_dbl",
    "n_down_dbl",
    "sub_region",
)
N_FEATURES = len(FEATURE_NAMES)

MAX_LANES = 5


class NetworkError(ValueError):
    """Malformed network description or invariant violation."""


@dataclass(frozen=True)
class SignalPlan:
    """Fixed-cycle two-phase plan for one junction.

    Approaches are split into two groups by geometric orientation
    (east-west vs north-south). Group A is green during the first
    ``green_a_s`` seconds of each cycle, group B during the remainder.
    """

    junction: int
    cycle_s: float
    offset_s: float
    green_a_s: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0 < self.cycle_s < math.inf:
            raise NetworkError(f"junction {self.junction}: cycle must be finite "
                               f"and > 0, got {self.cycle_s!r}")
        if not abs(self.offset_s) < math.inf:
            raise NetworkError(f"junction {self.junction}: offset must be "
                               f"finite, got {self.offset_s!r}")
        if not 0 <= self.green_a_s <= self.cycle_s:
            raise NetworkError(f"junction {self.junction}: green {self.green_a_s!r}"
                               f" is outside 0..cycle {self.cycle_s!r}")


@dataclass(frozen=True)
class Link:
    id: int
    from_junction: int
    to_junction: int
    length_m: float
    lanes_total: int
    lanes_dbl: int
    vff_kmh: float
    is_boundary_in: bool = False
    is_boundary_out: bool = False

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (0 < self.length_m < math.inf and 0 < self.vff_kmh < math.inf):
            name = "length_m" if not 0 < self.length_m < math.inf else "vff_kmh"
            raise NetworkError(f"link {self.id}: {name} must be finite and > 0, "
                               f"got {getattr(self, name)!r}")
        if not 1 <= self.lanes_total <= MAX_LANES:
            raise NetworkError(
                f"link {self.id}: lanes_total {self.lanes_total} outside 1..{MAX_LANES}"
            )
        if not 0 <= self.lanes_dbl < self.lanes_total:
            raise NetworkError(
                f"link {self.id}: lanes_dbl {self.lanes_dbl} must be < lanes_total"
            )
        if self.from_junction == self.to_junction:
            raise NetworkError(f"link {self.id}: from and to junction are equal")

    @property
    def car_lanes(self) -> int:
        return self.lanes_total - self.lanes_dbl


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NetworkIndex:
    """Array form of a network's links and connectivity, by link index.

    Pairs are the connectivity pairs in their sorted order, so ``pair_up``
    is non-decreasing and the pairs leaving one link form a contiguous
    segment, ordered by downstream link. The arrays are shared by every
    user of the network and are read-only.
    """

    pair_up: np.ndarray       # (P,) upstream link of each pair
    pair_dn: np.ndarray       # (P,) downstream link of each pair
    seg_start: np.ndarray     # (S,) first pair of each link with outgoing pairs
    seg_link: np.ndarray      # (S,) that link
    seg_size: np.ndarray      # (S,) its number of pairs
    seg_of_pair: np.ndarray   # (P,) segment of each pair
    down_of: tuple[tuple[int, ...], ...]  # per link, its downstream links
    up_of: tuple[tuple[int, ...], ...]    # per link, its upstream links
    length_m: np.ndarray      # (Z,)
    vff_kmh: np.ndarray       # (Z,)
    end_x: np.ndarray         # (Z,) x of each link's end junction
    end_y: np.ndarray         # (Z,) y of each link's end junction
    chord_m: np.ndarray       # (Z,) straight line from its start junction to its end

    @classmethod
    def of(cls, net: "RoadNetwork") -> "NetworkIndex":
        pair_up = _frozen([net.link_index(a) for a, _ in net.connectivity], int)
        pair_dn = _frozen([net.link_index(b) for _, b in net.connectivity], int)
        seg_start = _frozen(
            np.flatnonzero(np.r_[True, pair_up[1:] != pair_up[:-1]])
            if len(pair_up) else [], int)
        seg_size = _frozen(np.diff(np.r_[seg_start, len(pair_up)]), int)
        (x0, y0), (x1, y1) = (np.array([net.junctions[getattr(lk, end)]
                                        for lk in net.links], dtype=float).T
                              for end in ("from_junction", "to_junction"))
        down_of, up_of = ([[] for _ in net.links] for _ in range(2))
        for u, v in zip(pair_up.tolist(), pair_dn.tolist()):
            down_of[u].append(v)
            up_of[v].append(u)
        return cls(
            pair_up=pair_up, pair_dn=pair_dn, seg_start=seg_start,
            seg_link=_frozen(pair_up[seg_start], int),
            seg_size=seg_size,
            seg_of_pair=_frozen(np.repeat(np.arange(len(seg_start)), seg_size), int),
            down_of=tuple(map(tuple, down_of)), up_of=tuple(map(tuple, up_of)),
            length_m=_frozen([lk.length_m for lk in net.links], float),
            vff_kmh=_frozen([lk.vff_kmh for lk in net.links], float),
            end_x=_frozen(x1, float), end_y=_frozen(y1, float),
            chord_m=_frozen(np.hypot(x1 - x0, y1 - y0), float),
        )


class RoadNetwork:
    """Immutable directed road network.

    Connectivity is the set of ordered (upstream link, downstream link)
    pairs that share exactly one junction: the upstream link ends where the
    downstream link starts. A link and its exact reverse twin share both
    junctions, so that U-turn movement is not a connectivity pair.
    """

    def __init__(self, junctions: dict[int, tuple[float, float]],
                 links: list[Link], signals: list[SignalPlan] | None = None):
        if not links:
            raise NetworkError("network must contain at least one link")
        ids = sorted(lk.id for lk in links)
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise NetworkError(f"link {a}: duplicate link id")
        for j, (x, y) in junctions.items():
            if not (abs(x) < math.inf and abs(y) < math.inf):  # NaN fails it too
                raise NetworkError(f"junction {j}: coordinates must be finite, "
                                   f"got ({x!r}, {y!r})")
        for lk in links:
            for j in (lk.from_junction, lk.to_junction):
                if j not in junctions:
                    raise NetworkError(f"link {lk.id}: unknown junction {j}")
        self.junctions: dict[int, tuple[float, float]] = dict(sorted(junctions.items()))
        self.links: tuple[Link, ...] = tuple(sorted(links, key=lambda lk: lk.id))
        self.signals: dict[int, SignalPlan] = {}
        for plan in signals or []:
            if plan.junction not in junctions:
                raise NetworkError(f"signal references unknown junction {plan.junction}")
            if plan.junction in self.signals:
                raise NetworkError(f"junction {plan.junction} has two signal plans")
            self.signals[plan.junction] = plan

        self._by_id = {lk.id: lk for lk in self.links}
        self._index = {lk.id: i for i, lk in enumerate(self.links)}

        out_of: dict[int, list[Link]] = {j: [] for j in junctions}
        for lk in self.links:
            out_of[lk.from_junction].append(lk)
        # a link never starts where it ends, so only its reverse twin is
        # skipped; both loops run in id order, so the pairs come sorted
        self.connectivity: tuple[tuple[int, int], ...] = tuple(
            (lk.id, down.id) for lk in self.links for down in out_of[lk.to_junction]
            if down.to_junction != lk.from_junction)

    @cached_property
    def index(self) -> NetworkIndex:
        """Array index of links and connectivity, built on first use."""
        return NetworkIndex.of(self)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link(self, link_id: int) -> Link:
        return self._by_id[link_id]

    def link_index(self, link_id: int) -> int:
        return self._index[link_id]

    def link_ids(self) -> tuple[int, ...]:
        return tuple(lk.id for lk in self.links)

    def midpoint(self, link_id: int) -> tuple[float, float]:
        lk = self._by_id[link_id]
        x0, y0 = self.junctions[lk.from_junction]
        x1, y1 = self.junctions[lk.to_junction]
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)

    def with_bus_lanes(self, link_ids) -> "RoadNetwork":
        """Copy of the network with lanes_dbl = 1 on the given links (which
        ``Link`` refuses on a 1-lane link); the network itself when there
        are none."""
        chosen = set(link_ids)
        if not chosen:
            return self
        new_links = [replace(lk, lanes_dbl=1) if lk.id in chosen else lk
                     for lk in self.links]
        return RoadNetwork(self.junctions, new_links, list(self.signals.values()))


@dataclass(frozen=True, eq=False)
class LinkGraph:
    """The links-as-nodes graph as an edge list by link index: edge (i, j)
    lets link i attend to link j. The edges are sorted by (src, dst), so the
    edges of link i are the segment ``seg_start[i]`` up to the next link's
    start (or the end); each segment holds the link's self-loop, so none is
    empty. The arrays are read-only."""

    src: np.ndarray        # (E,) attending link of each edge
    dst: np.ndarray        # (E,) link it attends to
    seg_start: np.ndarray  # (N,) first edge of each link

    @classmethod
    def of_pairs(cls, n_links: int, src, dst) -> "LinkGraph":
        """Every link's self-loop plus the given (src, dst) pairs, each edge
        kept once."""
        src, dst = (np.asarray(x, dtype=np.int64) for x in (src, dst))
        loops = np.arange(n_links, dtype=np.int64)
        key = np.unique(np.concatenate([src * n_links + dst,
                                        loops * (n_links + 1)]))
        src, dst = np.divmod(key, n_links)
        return cls(src=_frozen(src, np.intp), dst=_frozen(dst, np.intp),
                   seg_start=_frozen(np.searchsorted(src, np.arange(n_links)),
                                     np.intp))

    @property
    def n_links(self) -> int:
        return len(self.seg_start)


def build_link_graph(net: RoadNetwork) -> LinkGraph:
    """The network's link graph: link j is an edge of link i when it is
    directly downstream of it (a connectivity pair), plus the self-loops."""
    idx = net.index
    return LinkGraph.of_pairs(net.n_links, idx.pair_up, idx.pair_dn)


def link_travel_times(length_m, speeds_kmh):
    """Seconds to cross links of ``length_m`` metres at ``speeds_kmh`` km/h:
    arrays, such as ``net.index.length_m`` by link index, or one link's
    numbers, so that a walk link by link runs the same formula."""
    return length_m / (speeds_kmh * 1000.0 / 3600.0)


def dijkstra(adjacent, tau, source: int, stop: int | None = None,
             lower=None) -> list[float]:
    """Per link index, the least time from entering link ``source`` to
    finishing the link along ``adjacent`` (``down_of``: forward from an
    origin; ``up_of``: backward from a destination), summed from the source
    outward as ``d + tau[v]`` over ``tau``, the links' crossing times as a
    list; inf where unreached. With ``stop`` the search ends once that link
    is final, and links farther out hold upper bounds.

    ``lower``, per link, a bound on the time left from finishing it to
    finishing ``stop``, orders the heap by ``d + lower[v]`` (A*, Hart,
    Nilsson & Raphael 1968) while every label stays ``d``; with none
    (rerouting passes none) it is 0 and the search is a plain Dijkstra. A
    consistent bound (``lower[u] <= tau[v] + lower[v]`` for each step
    u -> v, 0 at ``stop``) leaves the search exact and only skips links that
    cannot lie on a path to ``stop``; ``evaluate.shortest_path`` builds one
    whose inequalities are strict, so every label its path is rebuilt from
    equals this search's label without it."""
    if lower is None:
        lower = [0.0] * len(tau)
    dist = [math.inf] * len(tau)
    dist[source] = d = tau[source]
    pop, push = heapq.heappop, heapq.heappush
    heap = [(d + lower[source], d, source)]
    while heap:
        _, d, z = pop(heap)
        if d > dist[z]:
            continue
        if z == stop:
            break
        for v in adjacent[z]:
            cand = d + tau[v]
            if cand < dist[v]:
                dist[v] = cand
                push(heap, (cand + lower[v], cand, v))
    return dist


def generate_grid_network(rows: int, cols: int, link_length: float, lanes: int,
                          vff_kmh: float = 25.0, with_signals: bool = True,
                          cycle_s: float = 90.0, green_split: float = 0.5,
                          length_jitter: float = 0.0, jitter_seed: int = 0,
                          ) -> RoadNetwork:
    """Bidirectional rows x cols lattice.

    Junction (r, c) gets id r*cols + c at coordinates (c, r) * link_length.
    Every lattice edge yields a pair of opposed directed links with
    deterministic ids. Links whose both endpoints lie on the outer ring are
    flagged as boundary links. Signals (when enabled) run a fixed two-phase
    cycle at every junction.

    ``length_jitter`` perturbs each street's length by a seeded uniform
    factor in [1 - jitter, 1 + jitter] (both directions alike). A perfectly
    regular lattice is full of equal-cost route ties, which makes
    all-or-nothing routing flip between alternates; a little irregularity
    gives stable corridors, as in real street networks.
    """
    if rows < 2 or cols < 2:
        raise NetworkError("grid needs rows >= 2 and cols >= 2")
    if not 0.0 <= length_jitter < 1.0:
        raise NetworkError("length_jitter must be in [0, 1)")

    def jid(r: int, c: int) -> int:
        return r * cols + c

    def on_perimeter(r: int, c: int) -> bool:
        return r in (0, rows - 1) or c in (0, cols - 1)

    junctions = {
        jid(r, c): (c * link_length, r * link_length)
        for r in range(rows) for c in range(cols)
    }
    # one draw per street, in the street order below; a single call gives
    # the values of one call per street
    n_streets = rows * (cols - 1) + (rows - 1) * cols
    draws = iter(np.random.default_rng(jitter_seed).uniform(-1.0, 1.0, n_streets)
                 .tolist())
    links: list[Link] = []
    next_id = 0
    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= rows or c2 >= cols:
                    continue
                boundary = on_perimeter(r, c) and on_perimeter(r2, c2)
                factor = 1.0 + length_jitter * next(draws)
                for fj, tj in ((jid(r, c), jid(r2, c2)), (jid(r2, c2), jid(r, c))):
                    links.append(Link(
                        id=next_id, from_junction=fj, to_junction=tj,
                        length_m=float(link_length) * factor, lanes_total=lanes,
                        lanes_dbl=0, vff_kmh=float(vff_kmh),
                        is_boundary_in=boundary, is_boundary_out=boundary,
                    ))
                    next_id += 1
    signals = []
    if with_signals:
        # np.round, as round() would, takes halves to even; it passes NaN
        # and inf on to SignalPlan's checks instead of raising
        green_a = float(np.round(cycle_s * green_split))
        signals = [SignalPlan(j, float(cycle_s), 0.0, green_a)
                   for j in sorted(junctions)]
    return RoadNetwork(junctions, links, signals)


# ---------------------------------------------------------------------------
# network file (module docstring)
# ---------------------------------------------------------------------------

_NETWORK_KINDS = dict.fromkeys(("junctions", "links", "signals"), "tuple[dict, ...]")
_JUNCTION_KINDS = {"id": "int", "x": "float", "y": "float"}
_LINK_KINDS = {f.name: f.type for f in fields(Link)}
_SIGNAL_KINDS = {f.name: f.type for f in fields(SignalPlan)}


def save_network(net: RoadNetwork, path) -> None:
    # a Link's and a SignalPlan's __dict__ hold exactly their fields
    doc = {"junctions": [{"id": j, "x": x, "y": y}
                         for j, (x, y) in net.junctions.items()],
           "links": [vars(lk) for lk in net.links],
           "signals": [vars(plan) for plan in net.signals.values()]}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, allow_nan=False) + "\n")


def _network_of(junctions, links, signals) -> RoadNetwork:
    points: dict[int, tuple[float, float]] = {}
    for i, doc in enumerate(junctions):
        j = read_json(doc, _JUNCTION_KINDS, f"junctions[{i}]")
        if j["id"] in points:
            raise NetworkError(f"junctions[{i}]: junction {j['id']} is defined twice")
        points[j["id"]] = (j["x"], j["y"])
    return RoadNetwork(
        points, [read_json(doc, _LINK_KINDS, f"links[{i}]", Link)
                 for i, doc in enumerate(links)],
        [read_json(doc, _SIGNAL_KINDS, f"signals[{i}]", SignalPlan)
         for i, doc in enumerate(signals)])


def load_network(path) -> RoadNetwork:
    """Read a ``save_network`` file. Each object holds exactly the keys
    written, each value of its kind, and the ``Link``, ``SignalPlan`` and
    ``RoadNetwork`` checks run; anything else, a text network of earlier
    versions included, is a NetworkError naming the file and the key path."""
    try:
        return read_json(load_json(path, "gen-network"), _NETWORK_KINDS,
                         str(path), _network_of)
    except ValueError as exc:
        raise NetworkError(str(exc)) from exc


# ---------------------------------------------------------------------------
# feature extraction and normalization
# ---------------------------------------------------------------------------

def extract_features(net: RoadNetwork, partition=None) -> np.ndarray:
    """Per-link attribute matrix, rows ordered by link id, 10 columns.

    ``partition`` maps link id -> sub-region label; with None the
    sub-region column is 0 everywhere (the no-partition model variants).
    """
    idx = net.index
    n = net.n_links

    def count(at: np.ndarray, flags=None) -> np.ndarray:
        return np.bincount(at, weights=flags, minlength=n)

    up, dn = idx.pair_up, idx.pair_dn
    bound_in = np.array([lk.is_boundary_in for lk in net.links], dtype=float)
    bound_out = np.array([lk.is_boundary_out for lk in net.links], dtype=float)
    lanes_dbl = np.array([lk.lanes_dbl for lk in net.links], dtype=float)
    has_dbl = (lanes_dbl > 0).astype(float)
    if partition is None:
        sub = np.zeros(n)
    else:
        sub = np.empty(n)
        for i, lk in enumerate(net.links):
            try:
                sub[i] = partition[lk.id]
            except KeyError:
                raise NetworkError(f"no partition label for link {lk.id}") from None
    return np.column_stack([
        idx.length_m,
        [lk.lanes_total for lk in net.links],
        lanes_dbl,
        count(dn),                  # n_up: pairs entering the link
        count(up),                  # n_down: pairs leaving the link
        count(dn, bound_in[up]),
        count(up, bound_out[dn]),
        count(dn, has_dbl[up]),
        count(up, has_dbl[dn]),
        sub,
    ])


def minmax_scale(x, lo, hi) -> np.ndarray:
    """(x - lo) / (hi - lo), with ``lo`` and ``hi`` broadcast against ``x``;
    0 wherever hi <= lo (a constant column)."""
    x = np.asarray(x, dtype=float)
    span = np.asarray(hi - lo, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(span > 0, (x - lo) / span, 0.0)


def minmax_unscale(y, lo, hi) -> np.ndarray:
    """Inverse of ``minmax_scale`` where hi > lo."""
    return y * (hi - lo) + lo


@dataclass(frozen=True)
class MinMaxStats:
    """Column-wise min/max frozen on the training split."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        return minmax_scale(matrix, self.lo, self.hi)


def fit_minmax(matrix: np.ndarray) -> MinMaxStats:
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("need a 2-d matrix with at least one row")
    return MinMaxStats(lo=matrix.min(axis=0), hi=matrix.max(axis=0))
