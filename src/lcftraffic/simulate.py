"""Queue-based store-and-forward traffic simulation.

Every link holds, per destination, a *moving* queue (vehicles traversing
the link at free-flow speed) and a *waiting* queue (vehicles queued at the
stop line). Each time step:

  1. Vehicles whose free-flow travel is over migrate moving -> waiting;
     vehicles that reached their destination link leave the network instead.
  2. Transfer flows move waiting vehicles to the downstream link chosen by
     the turn ratios. A transfer is zero when the approach faces a red
     signal, and zero into any link already filled close to its storage
     capacity, so congestion spills back. Otherwise it is capped by the
     saturation flow of the approach and by the free space downstream.
  3. New demand enters the moving queue of its origin link, held back in a
     backlog when the origin is full.

Turn ratios are all-or-nothing per destination along current-travel-time
shortest paths, recomputed at a fixed interval and exponentially smoothed,
so drivers reroute as congestion builds. Each refresh runs one backward
``network.dijkstra`` per destination over the network's cached index
(``RoadNetwork.index``): the same search that routes the evaluation trips.

Per aggregation window, summing over its steps, link z's speed (km/h) is

    v_z = min(v_ff, sum(outflow) * L_z / sum(accumulation) / step_h) >= v_min

with outflow counting both transfers out and trips ended on the link; a
link whose mean accumulation x_z is below ``EMPTY_VEH`` vehicles (a drained
queue's float residue) runs at v_ff, in the record and to rerouting drivers.
``network_stats`` derives the network columns from the link columns:
production sum(x_z v_z) veh*km/h, accumulation sum(x_z) veh, and the mean
speed by MFD-P with one region (``baselines.region_mean_speeds``: weighted
by x_z, arithmetic under EMPTY_VEH in all, clipped into the speeds' range).

Records are reproducible to the bit because each sum has one fixed order,
which any rewrite of the step must keep: row sums over destinations
(``np.add.reduce(x, 1)``), ``scatter_sum``'s bincounts (each bin from zero
in index order: pairs in pair order, a link's ended trips before its
transfers out), the waiting queues' rank rows (the r-th pair of each link
is scattered into rank r's rows of a zeroed buffer, and the ranks' rows are
subtracted whole in rank order, so each link's transfers out go in pair
order; x - 0.0 == x where a link has no r-th pair), ``np.add.at`` for
injections (OD-pair order), and every formula left to right as written,
e.g. a step's demand ``(rates / 3600 * step_s) * factor``.

Past warmup_s + peak_s demand is zero for the rest of the run. At the first
step there whose backlog, waiting queues and pending maturations all lie in
[0, ``RESIDUE_VEH``] and whose moving queues are >= 0 (``SimState.drained``),
no vehicle would move again, so ``simulate`` stops stepping and refreshing
the turn ratios there and checks storage once: from there on each step adds
the frozen accumulation to its window and nothing else. Float residues of a
drained queue stay frozen in place and counted in the network, so
conservation stays exact. A frozen link holds at most D*(ring+1)*RESIDUE_VEH
veh, far below ``EMPTY_VEH``, so it still reads empty and runs at v_ff. With
RESIDUE_VEH = 0.0 a run stops only where a full step would move nothing at
all. ``SimState.step`` always takes the full step.

Two per-step costs are paid less often without moving a bit. ``simulate``
hands each step's end accumulation, the per-link sums its storage check
reads, to the next step as its start accumulation, since nothing writes the
queues in between (``SimState.acc_start``). Which pairs face red is
computed for a window of steps at once, by the per-step formula.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .baselines import EMPTY_VEH, region_mean_speeds
from .config import bounded, check
from .network import Link, RoadNetwork, dijkstra, link_travel_times
from .nn import scatter_sum

log = logging.getLogger(__name__)

TURN_RATIO_TOL = 1e-9    # check_turn_ratios: below 0 and off a sum of 1
RESIDUE_VEH = 1e-12      # SimState.drained: a queue entry this small is float noise


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    step_s: float = bounded(5.0, gt=0)
    window_s: float = bounded(180.0, gt=0)
    warmup_s: float = bounded(900.0, ge=0)
    peak_s: float = bounded(6300.0, ge=0)
    total_s: float = 21600.0
    saturation_flow: float = bounded(0.5, gt=0)       # veh/s per usable lane
    vehicle_length: float = bounded(7.0, gt=0)        # m of storage per vehicle
    # fraction of storage that blocks inflow
    congestion_threshold: float = bounded(0.95, gt=0, le=1)
    v_min_kmh: float = bounded(1.0, gt=0)
    turn_update_s: float = bounded(180.0, gt=0)
    turn_smoothing: float = bounded(0.5, ge=0, le=1)

    def __post_init__(self):
        check(self)
        if self.window_s % self.step_s != 0:
            raise ValueError("window_s must be an integer multiple of step_s")
        if not self.total_s >= self.warmup_s + self.peak_s:
            raise ValueError(f"total_s must cover warmup_s + peak_s "
                             f"({self.warmup_s + self.peak_s!r}), "
                             f"got {self.total_s!r}")

    @property
    def steps_per_window(self) -> int:
        return int(round(self.window_s / self.step_s))

    @property
    def n_windows(self) -> int:
        return int(self.total_s // self.window_s)


def storage_capacity(link: Link, cfg: SimConfig) -> float:
    """Vehicles the link can store: length * lanes / spacing, at least 1."""
    cap = math.floor(link.length_m * link.lanes_total / cfg.vehicle_length)
    return float(max(cap, 1))


def _capped_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``np.minimum(1.0, num / np.maximum(den, 1e-300))`` to the bit, taken
    as ``min(num, d) / d``: where ``num >= d`` that is exactly 1, so a large
    free storage over a tiny flow cannot overflow to inf."""
    den = np.maximum(den, 1e-300)
    return np.minimum(num, den) / den


def shortest_time_to_dest(net: RoadNetwork, tau: np.ndarray,
                          dest_indices: np.ndarray) -> np.ndarray:
    """(links, destinations) travel times from entering each link to
    finishing on each destination link, following downstream connectivity;
    inf where a destination cannot be reached. One backward ``dijkstra`` per
    destination, over the upstream links, sums each path from its end."""
    up_of, tau = net.index.up_of, tau.tolist()
    cols = [dijkstra(up_of, tau, int(d)) for d in dest_indices]
    return np.array(cols, dtype=float).reshape(len(cols), net.n_links).T


def check_turn_ratios(net: RoadNetwork, ratios: np.ndarray) -> None:
    """Turn ratios are a (pairs, destinations) array: ``ratios[p, d]`` is
    the probability that a vehicle bound for destination column d and
    waiting on the upstream link of connectivity pair p takes that pair.
    None may be negative, and for every (upstream link, destination) with
    outgoing pairs they sum to 1, both within ``TURN_RATIO_TOL``."""
    if np.any(ratios < -TURN_RATIO_TOL):
        raise SimulationError("negative turn ratio")
    up = net.index.pair_up
    sums = scatter_sum(up, ratios, net.n_links)[up]
    if np.any(np.abs(sums - 1.0) > TURN_RATIO_TOL):
        raise SimulationError("turn ratio vectors must sum to 1")


def update_turn_ratios(net: RoadNetwork, speeds_kmh: np.ndarray,
                       prev: np.ndarray, dest_ids: tuple[int, ...],
                       cfg: SimConfig) -> np.ndarray:
    """All-or-nothing split toward the fastest downstream continuation per
    destination, blended with the previous ratios by cfg.turn_smoothing."""
    idx = net.index
    target = _target_ratios(net, speeds_kmh, dest_ids)[0]
    s = cfg.turn_smoothing
    mixed = (1.0 - s) * prev + s * target
    denom = scatter_sum(idx.pair_up, mixed, net.n_links)[idx.pair_up]
    mixed = np.where(denom > 0, mixed / np.maximum(denom, 1e-300), mixed)
    check_turn_ratios(net, mixed)
    return mixed


def _target_ratios(net: RoadNetwork, speeds_kmh: np.ndarray,
                   dest_ids: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, destinations) all-or-nothing split: from each link, every
    vehicle takes the pair whose downstream link is fastest to the
    destination, the lowest link id on ties. The split is uniform on the
    destination link itself, where trips end and it is irrelevant, and
    toward a destination that cannot be reached. Also returns which
    (pair segment, destination) cannot reach it; every link time is finite,
    so that set is the same at every speed field."""
    idx = net.index
    n_pairs = len(idx.pair_up)
    dest_index = np.array([net.link_index(d) for d in dest_ids], dtype=int)
    dist = shortest_time_to_dest(net, link_travel_times(idx.length_m, speeds_kmh),
                                 dest_index)
    via = dist[idx.pair_dn]
    seg_best = np.minimum.reduceat(via, idx.seg_start, axis=0)
    # pairs of a segment are ordered by downstream link id, so the first
    # pair at the segment minimum is the lowest-id one
    rows = np.where(via == seg_best[idx.seg_of_pair], np.arange(n_pairs)[:, None], n_pairs)
    best_pair = np.minimum.reduceat(rows, idx.seg_start, axis=0)
    at_dest = idx.seg_link[:, None] == dest_index[None, :]
    unreachable = np.isinf(seg_best) & ~at_dest
    uniform = at_dest | unreachable
    target = np.where(uniform[idx.seg_of_pair],
                      (1.0 / idx.seg_size)[idx.seg_of_pair][:, None], 0.0)
    seg, col = np.nonzero(~uniform)
    target[best_pair[seg, col], col] = 1.0
    return target, unreachable


def initial_turn_ratios(net: RoadNetwork, dest_ids: tuple[int, ...]) -> np.ndarray:
    """The free-flow split; logs one warning per destination that some
    links cannot reach, once per run, since later refreshes find the same
    links."""
    ratios, unreachable = _target_ratios(net, net.index.vff_kmh, dest_ids)
    for col, dest in enumerate(dest_ids):
        links = net.index.seg_link[unreachable[:, col]]
        if len(links):
            log.warning("destination link %s unreachable from %d links (%s); "
                        "falling back to a uniform split", dest, len(links),
                        ", ".join(str(net.links[z].id) for z in links))
    check_turn_ratios(net, ratios)
    return ratios


# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

class SimState:
    """Mutable per-run state: queues, pending transfers, demand backlog.
    What ``step`` reads of the network is built here once; ``m`` and ``w``
    are read afresh each step, so they may be written between steps.

    ``acc_start`` is the accumulation the next step starts from when set:
    ``simulate`` hands over each step's ``end_accumulation``, the sums its
    storage check read, since nothing writes the queues before the next
    step. The step clears it, so a caller that writes ``m`` or ``w``
    between steps, and does not hand it over, gets it computed afresh.
    Which pairs face red is computed for a window of steps at a time, one
    row per step, by the same elementwise formula as for one step."""

    def __init__(self, net: RoadNetwork, cfg: SimConfig,
                 od_pairs: list[tuple[int, int]], dest_ids: tuple[int, ...]):
        self.cfg = cfg
        idx = net.index
        z = net.n_links
        self.dest_ids = dest_ids
        d = len(dest_ids)

        self.cap = np.array([storage_capacity(lk, cfg) for lk in net.links])
        self.sat = np.array([cfg.saturation_flow * lk.car_lanes * cfg.step_s
                             for lk in net.links])
        self.block_at = cfg.congestion_threshold * self.cap
        self.cap_tol = self.cap + 1e-9
        self.len_m = idx.length_m
        self.vff_ms = idx.vff_kmh * 1000.0 / 3600.0
        free_steps = np.ceil(self.len_m / self.vff_ms / cfg.step_s)
        # a vehicle delayed past the run's last step never arrives, so a
        # longer ring holds nothing: this bounds it on a very long link
        self.max_delay = int(min(free_steps.max(), cfg.total_s // cfg.step_s))
        self.ring = self.max_delay + 1

        self.m = np.zeros((z, d))
        self.w = np.zeros((z, d))
        self.pend = np.zeros((self.ring, z, d))
        self.links = np.arange(z)
        # trips end at (destination link, its column)
        self.dest_index = np.array([net.link_index(dd) for dd in dest_ids], dtype=int)
        self.dest_cols = np.arange(d)

        # demand bookkeeping: one backlog slot per OD pair
        dest_col = {dd: i for i, dd in enumerate(dest_ids)}
        self.od_origin = np.array([net.link_index(o) for o, _ in od_pairs], dtype=int)
        self.od_col = np.array([dest_col[dd] for _, dd in od_pairs], dtype=int)
        self.backlog = np.zeros(len(od_pairs))
        self.injected_total = 0.0
        self.completed_total = np.float64(0.0)
        self.step_no = 0
        self.acc_start = None

        # transfers per connectivity pair: scatter keys and signal gating
        self.pair_up, self.pair_dn = idx.pair_up, idx.pair_dn
        self.up_col, self.dn_col = self.pair_up[:, None], self.pair_dn[:, None]
        # transfers out by rank (``transfer_out``): the r-th pair of a
        # link's segment goes to row r * z + that link of a zeroed buffer
        rank = np.arange(len(self.pair_up)) - idx.seg_start[idx.seg_of_pair]
        self.rank_rows = rank * z + self.pair_up
        self.by_rank = np.zeros((idx.seg_size.max(initial=0), z, d))
        # scatter_sum's (link, destination) bincount index of pair_dn
        self.dn_flat = (self.dn_col * d + self.dest_cols).ravel()
        self.out_rows = np.concatenate([self.links, self.pair_up])
        up_links = [net.links[u] for u in self.pair_up]
        has_sig, cyc, off, green_a, group_a = [], [], [], [], []
        for lk in up_links:
            plan = net.signals.get(lk.to_junction)
            has_sig.append(plan is not None)
            cyc.append(plan.cycle_s if plan else 1.0)
            off.append(plan.offset_s if plan else 0.0)
            green_a.append(plan.green_a_s if plan else 1.0)
            x0, y0 = net.junctions[lk.from_junction]
            x1, y1 = net.junctions[lk.to_junction]
            group_a.append(abs(x1 - x0) >= abs(y1 - y0))
        self.sig_active = np.array(has_sig, dtype=bool)
        self.sig_cycle = np.array(cyc)
        self.sig_offset = np.array(off)
        self.sig_green_a = np.array(green_a)
        self.sig_group_a = np.array(group_a, dtype=bool)
        self.red_from, self.red_rows = 0, np.zeros((0, len(self.pair_up)), bool)
        # the transfers of a step, q_des -> q1 -> q, in place
        self.q = np.zeros((len(self.pair_up), d))

    def in_network(self) -> float:
        return float(self.m.sum() + self.w.sum())

    def accumulation(self) -> np.ndarray:
        """Vehicles per link, moving plus waiting, summed over destinations."""
        return np.add.reduce(self.m, 1) + np.add.reduce(self.w, 1)

    def check_storage(self, acc: np.ndarray) -> None:
        if not (acc <= self.cap_tol).all():
            raise SimulationError("storage capacity exceeded")

    def drained(self) -> bool:
        """Every waiting, pending and backlog entry lies in [0, RESIDUE_VEH]
        and no moving queue is negative; NaN fails every comparison."""
        return all(a.max(initial=0.0) <= RESIDUE_VEH and a.min(initial=0.0) >= 0.0
                   for a in (self.w, self.pend, self.backlog)) and self.m.min() >= 0

    def transfer_out(self, q: np.ndarray) -> None:
        """Subtract each pair's (pairs, destinations) transfers ``q`` from
        its upstream link's waiting queue, each link's pairs in pair order:
        ``q`` goes to its rank rows, and each rank's rows are subtracted
        whole (a link without an r-th pair subtracts 0.0, x - 0.0 == x)."""
        self.by_rank.reshape(-1, q.shape[1])[self.rank_rows] = q
        for rank in self.by_rank:
            self.w -= rank

    def _delays(self, w_sum: np.ndarray) -> np.ndarray:
        """Steps a vehicle entering now spends moving: the free-flow time of
        the stretch upstream of the queue end, the queue end located by the
        waiting occupancy fraction (``w_sum`` is the waiting queue per link)."""
        frac = np.minimum(np.maximum(w_sum / self.cap, 0.0), 1.0)
        steps = np.ceil((1.0 - frac) * self.len_m / self.vff_ms / self.cfg.step_s)
        # fmax/fmin clamp a NaN (a NaN queue, which the transfer step then
        # rejects) to 1 step instead of casting it; finite steps are the
        # same as with maximum/minimum
        return np.fmin(np.fmax(steps, 1.0), self.max_delay).astype(int)

    def _red(self, k: int) -> np.ndarray:
        """Which pairs face a red signal at step k; the rows of a window of
        ``steps_per_window`` steps from k are computed when k leaves the
        rows at hand."""
        if not 0 <= k - self.red_from < len(self.red_rows):
            t_s = np.arange(k, k + self.cfg.steps_per_window)[:, None] * self.cfg.step_s
            self.red_rows = ((((t_s - self.sig_offset) % self.sig_cycle)
                              < self.sig_green_a) != self.sig_group_a) & self.sig_active
            self.red_from = k
        return self.red_rows[k - self.red_from]

    def step(self, demand_step: np.ndarray, ratios: np.ndarray) -> dict[str, np.ndarray]:
        """Advance one time step; returns per-link outflow, start-of-step
        accumulation and completed-trip counts, the completed trips' sum
        and the end-of-step accumulation that the storage check read.

        Accumulation is sampled at the step start so that the queue state
        that produced this step's outflow is the one recorded with it; it
        is ``acc_start`` when handed over.
        """
        z, d = self.m.shape
        k = self.step_no
        m, w, pend = self.m, self.w, self.pend
        acc_start = self.accumulation() if self.acc_start is None else self.acc_start
        self.acc_start = None

        # 1. moving -> waiting maturation; destination arrivals leave
        slot = k % self.ring
        mature = pend[slot].copy()
        pend[slot] = 0.0
        m -= mature
        if not m.min() >= -1e-9:
            raise SimulationError("moving queue went negative")
        np.maximum(m, 0.0, out=m)
        completed = np.zeros(z)
        ends = (self.dest_index, self.dest_cols)
        completed[self.dest_index] = mature[ends]
        mature[ends] = 0.0
        w += mature
        done = completed.sum()
        self.completed_total += done

        w_sum = np.add.reduce(w, 1)
        delays = self._delays(w_sum)

        # 2. transfer flows across junctions. Where a gate's denominator is
        # 0, every flow it scales is 0 too, so its value there is moot.
        # q holds q_des = w[pair_up] * ratios, then q1, then q
        q = self.q
        np.take(w, self.pair_up, axis=0, out=q, mode="clip")
        q *= ratios
        q[self._red(k)] = 0.0

        out_des = scatter_sum(self.pair_up, np.add.reduce(q, 1), z)
        factor_up = _capped_ratio(self.sat, out_des)
        q *= factor_up[self.up_col]

        # occ >= block_at (<= cap) zeroes the gate, so the free space
        # cap - occ is > 0 wherever the gate is kept
        occ = np.add.reduce(m, 1) + w_sum
        inflow_des = scatter_sum(self.pair_dn, np.add.reduce(q, 1), z)
        gate = _capped_ratio(self.cap - occ, inflow_des)
        gate[occ >= self.block_at] = 0.0
        q *= gate[self.dn_col]

        # 3. apply transfers
        self.transfer_out(q)
        if not w.min() >= -1e-9:
            raise SimulationError("waiting queue went negative")
        np.maximum(w, 0.0, out=w)
        # scatter_sum(self.pair_dn, q, z), its flat index built once
        inflow_zd = np.bincount(self.dn_flat, q.ravel(), z * d).reshape(z, d)
        m += inflow_zd
        # each link's row of the pending ring, (slot, link) as one flat row
        pend_rows = pend.reshape(-1, d)
        due = (k + delays) % self.ring * z + self.links
        pend_rows[due] += inflow_zd
        # outflow: trips ended on the link, then its transfers out in pair order
        u_step = scatter_sum(self.out_rows,
                             np.concatenate([completed, np.add.reduce(q, 1)]), z)

        # 4. demand injection, capped by the space left at each origin
        backlog = self.backlog
        backlog += demand_step
        room = np.maximum(self.cap - self.accumulation(), 0.0)
        want = scatter_sum(self.od_origin, backlog, z)
        frac = _capped_ratio(room, want)
        inject = backlog * frac[self.od_origin]
        np.add.at(m, (self.od_origin, self.od_col), inject)
        np.add.at(pend_rows, (due[self.od_origin], self.od_col), inject)
        backlog -= inject
        self.injected_total += float(inject.sum())

        acc_end = self.accumulation()
        self.check_storage(acc_end)
        self.step_no += 1
        return {"outflow": u_step, "accumulation": acc_start, "completed": completed,
                "completed_sum": done, "end_accumulation": acc_end}


# ---------------------------------------------------------------------------
# records and aggregation
# ---------------------------------------------------------------------------

@dataclass
class SimRecord:
    """Window-aggregated simulation output (the training ground truth)."""

    link_ids: tuple[int, ...]
    window_s: float
    step_s: float
    speeds: np.ndarray            # (W, Z) km/h
    accumulation: np.ndarray      # (W, Z) mean vehicles per window
    outflow: np.ndarray           # (W, Z) vehicles per window
    mean_speed: np.ndarray        # (W,) km/h
    production: np.ndarray        # (W,) veh*km/h
    total_accumulation: np.ndarray  # (W,) vehicles
    completed: np.ndarray | None = None  # (W,) trips finished per window
    balance_error: float = 0.0    # |injected - in-network - completed| veh

    @property
    def n_windows(self) -> int:
        return self.speeds.shape[0]


def _window_stats(len_km: np.ndarray, vff: np.ndarray, cfg: SimConfig,
                  sum_u: np.ndarray, sum_x: np.ndarray) -> np.ndarray:
    """Link speeds of one window from its per-link outflow and accumulation
    sums over the steps (the formula in the module docstring); links of
    ``len_km`` km with free-flow speeds ``vff`` km/h."""
    raw = (sum_u * len_km / np.maximum(sum_x, 1e-300)) * (3600.0 / cfg.step_s)
    return np.where(sum_x / cfg.steps_per_window < EMPTY_VEH, vff,
                    np.clip(raw, cfg.v_min_kmh, vff))


def network_stats(speeds: np.ndarray, accumulation: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network mean speed (km/h), production (veh*km/h) and total
    accumulation (veh) per window of (W, Z) link columns, as the module
    docstring defines them."""
    one_region = np.zeros(speeds.shape[-1], dtype=int)
    # a copy, so that the record does not keep the (W, Z) estimate alive
    mean_speed = region_mean_speeds(speeds, accumulation, one_region, 1)[..., 0].copy()
    return (mean_speed, np.add.reduce(accumulation * speeds, -1),
            np.add.reduce(accumulation, -1))


def check_od_pairs(net: RoadNetwork, pairs) -> None:
    """A ValueError naming the first OD pair that leaves the network or
    ends where it starts."""
    known = set(net.link_ids())
    for o, d in pairs:
        bad = [f"link {i} is not in the network" for i in (o, d) if i not in known]
        if bad or o == d:
            raise ValueError(f"OD pair ({o}, {d}): "
                             + (bad + ["origin == destination"])[0])


def simulate(net: RoadNetwork, scenario, cfg: SimConfig | None = None) -> SimRecord:
    """Run a scenario (OD demand + bus-lane configuration) to a SimRecord.
    Each step hands its end accumulation to the next as ``acc_start``, and
    the signal mask is built a window of steps at a time (module docstring);
    the records are those of computing both per step."""
    cfg = cfg or SimConfig()
    sim_net = net.with_bus_lanes(scenario.bus_links)
    od = scenario.od
    od_pairs = list(od.pairs)
    rates = np.asarray(od.rates, dtype=float) * scenario.scale
    dest_ids = tuple(sorted({d for _, d in od_pairs}))
    check_od_pairs(sim_net, od_pairs)

    state = SimState(sim_net, cfg, od_pairs, dest_ids)
    ratios = initial_turn_ratios(sim_net, dest_ids)

    n_steps = int(cfg.total_s // cfg.step_s)
    spw = cfg.steps_per_window
    n_windows = cfg.n_windows
    z = sim_net.n_links

    speeds = np.zeros((n_windows, z))
    acc = np.zeros((n_windows, z))
    outflow = np.zeros((n_windows, z))
    completed = np.zeros(n_windows)

    sum_u = np.zeros(z)
    sum_x = np.zeros(z)
    window_completed = 0.0
    len_km, vff = sim_net.index.length_m / 1000.0, sim_net.index.vff_kmh
    last_speeds = vff
    turn_every = max(1, int(round(cfg.turn_update_s / cfg.step_s)))
    ramp_s = max(cfg.warmup_s * od.ramp_fraction, cfg.step_s)
    base = rates / 3600.0 * cfg.step_s   # a step's demand is base * factor
    peak_end = cfg.warmup_s + cfg.peak_s

    frozen = None
    for k in range(n_steps):
        t_s = k * cfg.step_s
        if frozen is None and t_s >= peak_end and state.drained():
            # no demand is left and no vehicle moves again: every step from
            # here adds this accumulation and nothing else to its window
            frozen = state.accumulation()
            state.check_storage(frozen)
        if frozen is not None:
            sum_x += frozen
        else:
            if k > 0 and k % turn_every == 0:
                ratios = update_turn_ratios(sim_net, last_speeds, ratios,
                                            dest_ids, cfg)
            if t_s < cfg.warmup_s:
                factor = min(t_s / ramp_s, 1.0)
            elif t_s < peak_end:
                factor = 1.0
            else:
                factor = 0.0
            out = state.step(base * factor, ratios)
            state.acc_start = out["end_accumulation"]
            sum_u += out["outflow"]
            sum_x += out["accumulation"]
            window_completed += float(out["completed_sum"])
        if (k + 1) % spw == 0:
            wi = k // spw
            last_speeds = speeds[wi] = _window_stats(len_km, vff, cfg, sum_u, sum_x)
            acc[wi] = sum_x / spw
            outflow[wi] = sum_u
            completed[wi] = window_completed
            sum_u[:] = 0.0
            sum_x[:] = 0.0
            window_completed = 0.0

    balance = state.injected_total - (state.in_network() + state.completed_total)
    if not abs(balance) <= 1e-6:
        raise SimulationError(f"vehicle balance violated by {balance:.3e} veh")

    mean_speed, production, total_acc = network_stats(speeds, acc)
    record = SimRecord(
        link_ids=sim_net.link_ids(), window_s=cfg.window_s, step_s=cfg.step_s,
        speeds=speeds, accumulation=acc, outflow=outflow,
        mean_speed=mean_speed, production=production,
        total_accumulation=total_acc, completed=completed,
        balance_error=abs(balance),
    )
    for name in ("speeds", "accumulation", "outflow", "mean_speed", "production",
                 "total_accumulation", "completed"):
        if not np.isfinite(getattr(record, name)).all():
            raise SimulationError(f"record array {name!r} holds a value that "
                                  "is not finite")
    return record


def network_mfd(record: SimRecord) -> np.ndarray:
    """(accumulation, production, mean speed) triplets, one per window."""
    return np.column_stack(
        [record.total_accumulation, record.production, record.mean_speed])


# ---------------------------------------------------------------------------
# persistence: links.csv, window-major then link id, and network.csv, its
# network columns, which are written for readers but never read back
# ---------------------------------------------------------------------------

def save_record(record: SimRecord, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    # whole rows as Python floats (``tolist``), one window at a time so that
    # no record-sized list is built; a float's repr reads back exactly
    with open(os.path.join(out_dir, "links.csv"), "w") as fh:
        fh.write("window,link_id,speed_kmh,accumulation,outflow\n")
        for w in range(record.n_windows):
            rows = zip(record.link_ids, record.speeds[w].tolist(),
                       record.accumulation[w].tolist(), record.outflow[w].tolist())
            fh.writelines(f"{w},{z},{v!r},{x!r},{u!r}\n" for z, v, x, u in rows)
    rows = zip(range(record.n_windows), record.mean_speed.tolist(),
               record.production.tolist(), record.total_accumulation.tolist())
    with open(os.path.join(out_dir, "network.csv"), "w") as fh:
        fh.write("window,mean_speed_kmh,production,accumulation\n")
        fh.writelines(f"{w},{v!r},{p!r},{x!r}\n" for w, v, p, x in rows)


# one links.csv row; numpy reads a decimal string to the nearest double, as
# float() does, so every repr save_record writes reads back bit for bit
_LINKS_ROW = np.dtype([("window", np.int64), ("link_id", np.int64),
                       ("speed_kmh", float), ("accumulation", float),
                       ("outflow", float)])


def _read_links(path: str) -> np.ndarray:
    """The rows below links.csv's header as a ``_LINKS_ROW`` array; a row
    that numpy does not read is a ValueError naming the file and line."""
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    if not lines:               # numpy warns on a file without rows
        return np.empty(0, _LINKS_ROW)
    error = None
    if "" not in lines:         # numpy skips a blank line; the scan names it
        try:
            return np.loadtxt(lines, _LINKS_ROW, delimiter=",", comments=None,
                              ndmin=1)
        except ValueError as exc:
            error = exc
    # numpy's row number counts from 0 for a bad value and from 1 for a
    # short row, so the line is found here
    for i, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != 5:
            raise ValueError(f"{path} line {i}: expected 5 fields, got {len(cells)}")
        for k, v in enumerate(cells):
            try:
                _LINKS_ROW[k].type(v)
            except (ValueError, OverflowError):
                raise ValueError(f"{path} line {i}: cannot read {v!r} as "
                                 f"{'int' if k < 2 else 'float'}") from None
    raise ValueError(f"{path}: {error}")


def _first_mismatch(path: str, what: str, found: np.ndarray,
                    expected: np.ndarray) -> None:
    bad = np.flatnonzero(found != expected)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path} line {i + 2}: {what} {found[i]}, "
                         f"expected {expected[i]}")


def load_record(out_dir, *, window_s: float, step_s: float) -> SimRecord:
    """Read a record saved by ``save_record`` from links.csv alone, taking
    the network columns from ``network_stats`` and the window and step
    lengths, which the file does not hold, from the caller. A layout that is
    not window-major, each window listing window 0's link ids in order, is a
    ValueError naming the file and line."""
    path = os.path.join(out_dir, "links.csv")
    table = _read_links(path)
    windows, ids = table["window"], table["link_id"]
    rows = len(windows)
    n_z = rows if (windows == 0).all() else int(np.argmin(windows == 0))
    if n_z == 0:
        raise ValueError(f"{path} line 2: expected window 0, found "
                         f"{windows[0] if rows else 'no row'}")
    link_ids = tuple(ids[:n_z].tolist())
    if len(set(link_ids)) != n_z:
        dup = next(i for i, v in enumerate(link_ids) if v in link_ids[:i])
        raise ValueError(f"{path} line {dup + 2}: link id {link_ids[dup]} "
                         "repeats within window 0")
    n_w = -(-rows // n_z)
    _first_mismatch(path, "window", windows, np.repeat(np.arange(n_w), n_z)[:rows])
    _first_mismatch(path, "link id", ids, np.tile(ids[:n_z], n_w)[:rows])
    if rows != n_w * n_z:
        raise ValueError(f"{path} line {rows + 2}: {rows} rows, but {n_w} "
                         f"windows of {n_z} links need {n_w * n_z}")
    for name in _LINKS_ROW.names[2:]:
        col = table[name]
        bad = np.flatnonzero(~((col >= 0) & (col < np.inf)))  # NaN too
        if bad.size:
            raise ValueError(f"{path} line {bad[0] + 2}: {name} "
                             f"{float(col[bad[0]])!r} is not finite and >= 0")
    # contiguous copies, so that the record does not keep the table alive
    speeds, acc, outflow = (np.ascontiguousarray(table[name]).reshape(n_w, n_z)
                            for name in _LINKS_ROW.names[2:])
    mean_speed, production, total_acc = network_stats(speeds, acc)
    return SimRecord(
        link_ids=link_ids, window_s=window_s, step_s=step_s,
        speeds=speeds, accumulation=acc, outflow=outflow,
        mean_speed=mean_speed, production=production,
        total_accumulation=total_acc,
    )
