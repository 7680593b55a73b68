import dataclasses
import hashlib
import heapq
import importlib

import numpy as np
import pytest

from lcftraffic.baselines import EMPTY_VEH
from lcftraffic.network import (Link, RoadNetwork, SignalPlan,
                                generate_grid_network, link_travel_times)
from lcftraffic.scenarios import ODMatrix, Scenario, random_base_od
from lcftraffic.simulate import (RESIDUE_VEH, SimConfig, SimRecord, SimState,
                                 SimulationError, _window_stats,
                                 check_turn_ratios, initial_turn_ratios,
                                 network_mfd, network_stats,
                                 scatter_sum,
                                 shortest_time_to_dest,
                                 simulate, storage_capacity,
                                 update_turn_ratios, save_record, load_record)
from netgen import random_network

# a NaN or overflow the engine lets through shows up as a RuntimeWarning
# before any check of its own fires
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def chain_network(n_links=3, length=200.0, vff=36.0, lanes=2, red_at=None):
    junctions = {i: (i * length, 0.0) for i in range(n_links + 1)}
    links = [Link(i, i, i + 1, length, lanes, 0, vff) for i in range(n_links)]
    signals = []
    if red_at is not None:
        # horizontal approaches are phase group A; zero green = always red
        signals = [SignalPlan(red_at, 90.0, 0.0, 0.0)]
    return RoadNetwork(junctions, links, signals)


def short_cfg(**kw):
    base = dict(step_s=5.0, window_s=20.0, warmup_s=100.0, peak_s=200.0,
                total_s=400.0)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# storage capacity
# ---------------------------------------------------------------------------

def test_sim_config_invariants():
    with pytest.raises(ValueError):
        SimConfig(step_s=7.0, window_s=180.0)
    with pytest.raises(ValueError):
        SimConfig(warmup_s=900.0, peak_s=6300.0, total_s=7000.0)
    with pytest.raises(ValueError):
        SimConfig(congestion_threshold=0.0)


@pytest.mark.parametrize("field,value", [
    ("step_s", 0.0), ("step_s", -5.0), ("turn_smoothing", -0.1),
    ("turn_smoothing", 1.5), ("saturation_flow", 0.0),
    ("vehicle_length", -7.0), ("turn_update_s", 0.0),
    ("step_s", float("nan")), ("window_s", 0.0), ("window_s", -180.0),
    ("v_min_kmh", 0.0), ("v_min_kmh", -1.0), ("warmup_s", -1.0),
    ("peak_s", -60.0), ("total_s", float("nan")),
] + [(f.name, float("inf")) for f in dataclasses.fields(SimConfig)])
def test_sim_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError) as err:
        SimConfig(**{field: value})
    assert field in str(err.value)
    assert repr(value) in str(err.value)


def test_sim_config_accepts_smoothing_bounds():
    assert SimConfig(turn_smoothing=0.0).turn_smoothing == 0.0
    assert SimConfig(turn_smoothing=1.0).turn_smoothing == 1.0


def test_storage_capacity_formula():
    cfg = SimConfig()
    assert storage_capacity(Link(0, 0, 1, 140.0, 2, 0, 25.0), cfg) == 40.0


def test_storage_capacity_floor():
    cfg = SimConfig()
    assert storage_capacity(Link(0, 0, 1, 7.0, 1, 0, 25.0), cfg) == 1.0
    assert storage_capacity(Link(0, 0, 1, 3.0, 1, 0, 25.0), cfg) == 1.0


def test_storage_capacity_linear_in_lanes():
    cfg = SimConfig()
    two = storage_capacity(Link(0, 0, 1, 140.0, 2, 0, 25.0), cfg)
    three = storage_capacity(Link(0, 0, 1, 140.0, 3, 0, 25.0), cfg)
    assert three == 1.5 * two


# ---------------------------------------------------------------------------
# transfer flow
# ---------------------------------------------------------------------------

def one_pair_transfer(waiting, down_occupancy, ratio=1.0, length=350.0,
                      lanes=2, green=True, **cfg_kw):
    """Vehicles SimState.step moves over the one pair of a two-link chain
    (link 0 into link 1, the destination) in one step: ``waiting`` queued
    on link 0, ``down_occupancy`` vehicles on link 1, whose storage is
    length * lanes / 7 m (100 at the defaults)."""
    net = chain_network(2, length=length, lanes=lanes,
                        red_at=None if green else 1)
    state = SimState(net, SimConfig(**cfg_kw), [(0, 1)], (1,))
    state.w[0, 0] = waiting
    state.m[1, 0] = down_occupancy
    out = state.step(None, np.array([[ratio]]))
    assert state.w[0, 0] == waiting - out["outflow"][0]
    return float(out["outflow"][0])


def test_transfer_flow_red_is_zero():
    assert one_pair_transfer(50.0, 0.0, lanes=3, green=False) == 0.0


def test_transfer_flow_min_rule():
    # saturation term 0.2 * 2 lanes * 5 s = 2; downstream space 5 of 10
    assert one_pair_transfer(10.0, 5.0, length=35.0,
                             saturation_flow=0.2) == 2.0


def test_transfer_flow_congested_downstream_blocks():
    assert one_pair_transfer(10.0, 96.0, lanes=2,
                             congestion_threshold=0.95) == 0.0


def test_transfer_flow_never_exceeds_waiting():
    # storage 1400 m * 5 lanes / 7 m = 1000
    assert one_pair_transfer(1.5, 0.0, length=1400.0, lanes=5) == 1.5


def test_transfer_flow_rejects_bad_ratio():
    net = chain_network(2)
    with pytest.raises(SimulationError):
        check_turn_ratios(net, np.array([[1.5]]))


def test_transfer_flow_monotone_in_space_and_queue():
    prev = -1.0
    for space in np.linspace(0, 60, 13):
        q = one_pair_transfer(30.0, 100.0 - space)
        assert q >= prev - 1e-12
        prev = q
    prev = -1.0
    for waiting in np.linspace(0, 40, 17):
        q = one_pair_transfer(waiting, 10.0, ratio=0.7)
        assert q >= prev - 1e-12
        prev = q


# ---------------------------------------------------------------------------
# single-step behaviour
# ---------------------------------------------------------------------------

def test_step_empty_network_is_fixed_point():
    net = chain_network()
    cfg = short_cfg()
    state = SimState(net, cfg, [(0, 2)], (2,))
    ratios = initial_turn_ratios(net, (2,))
    for _ in range(5):
        out = state.step(np.array([0.0]), ratios)
        assert out["outflow"].sum() == 0.0
        assert out["accumulation"].sum() == 0.0
    assert state.in_network() == 0.0


def test_step_red_signal_builds_waiting_queue():
    # 200 m at 36 km/h = 4 steps of free-flow travel, then the stop line
    net = chain_network(n_links=2, red_at=1)
    cfg = short_cfg()
    state = SimState(net, cfg, [(0, 1)], (1,))
    ratios = initial_turn_ratios(net, (1,))
    state.step(np.array([2.0]), ratios)
    for _ in range(4):
        state.step(np.array([0.0]), ratios)
    assert state.w[0].sum() == 2.0
    assert state.m[0].sum() == 0.0
    assert state.completed_total == 0.0
    # red light holds the queue indefinitely
    for _ in range(20):
        state.step(np.array([0.0]), ratios)
    assert state.w[0].sum() == 2.0


def test_step_conservation_accounting():
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    cfg = short_cfg()
    ids = net.link_ids()
    od = [(ids[0], ids[10]), (ids[5], ids[2])]
    state = SimState(net, cfg, od, tuple(sorted({d for _, d in od})))
    ratios = initial_turn_ratios(net, state.dest_ids)
    rng = np.random.default_rng(0)
    for _ in range(60):
        demand = rng.uniform(0, 0.4, size=2)
        state.step(demand, ratios)
        balance = state.injected_total - (state.in_network() + state.completed_total)
        assert abs(balance) < 1e-9


def test_step_reads_queues_written_between_steps():
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    ids = net.link_ids()
    od = [(ids[0], ids[10]), (ids[5], ids[2])]
    state = SimState(net, short_cfg(), od, (ids[2], ids[10]))
    ratios = initial_turn_ratios(net, state.dest_ids)
    rng = np.random.default_rng(3)
    demand = np.array([0.4, 0.3])
    for k in range(40):
        if k % 3 == 0:
            state.w[...] = rng.uniform(0.0, 2.0, state.w.shape)
        if k % 4 == 1:
            state.m += rng.uniform(0.0, 0.5, state.m.shape)
        start = state.m.sum(axis=1) + state.w.sum(axis=1)
        out = state.step(demand, ratios)
        assert out["accumulation"].tobytes() == start.tobytes(), f"step {k}"


def drained_chain_state():
    """A three-link chain (link 0 -> 1 -> 2, the destination, no signals)
    with no waiting, pending or backlogged vehicle, and moving-queue residues
    of the kind a drained run leaves behind."""
    net = chain_network()
    state = SimState(net, short_cfg(), [(0, 2)], (2,))
    state.m[:, 0] = [3e-17, 0.0, 1e-300]
    return state, initial_turn_ratios(net, (2,))


def queue_bytes(state):
    return [a.tobytes() for a in (state.m, state.w, state.pend, state.backlog)]


def test_drained_step_moves_nothing_and_reports_start_accumulation():
    state, ratios = drained_chain_state()
    before = queue_bytes(state)
    start = state.m.sum(axis=1) + state.w.sum(axis=1)
    for k in range(3):
        out = state.step(np.zeros(1), ratios)
        assert not out["outflow"].any() and not out["completed"].any()
        assert out["accumulation"].tobytes() == start.tobytes()
        assert queue_bytes(state) == before
        assert state.step_no == k + 1
    assert state.injected_total == 0.0 and state.completed_total == 0.0


@pytest.mark.parametrize("where", ["w", "pend", "backlog", "demand"])
def test_one_vehicle_anywhere_moves_on_the_next_step(where):
    state, ratios = drained_chain_state()
    demand = np.zeros(1)
    if where == "w":
        state.w[0, 0] = 1.0
    elif where == "pend":
        state.m[0, 0] += 1.0
        state.pend[0, 0, 0] = 1.0     # matures at step 0, then transfers
    elif where == "backlog":
        state.backlog[0] = 1.0
    else:
        demand[0] = 1.0
    m0 = state.m[0, 0]
    out = state.step(demand, ratios)
    if where in ("w", "pend"):
        assert out["outflow"][0] == 1.0
        assert state.w[0, 0] == 0.0 and state.m[1, 0] == 1.0
        assert state.m[0, 0] == m0 - (where == "pend")
    else:
        assert state.injected_total == 1.0 and state.backlog[0] == 0.0
        assert state.m[0, 0] == m0 + 1.0


@pytest.mark.parametrize("m,expected", [(-1.0, "moving queue went negative"),
                                        (1e6, "storage capacity exceeded")])
def test_drained_step_keeps_the_queue_checks(m, expected):
    state, ratios = drained_chain_state()
    state.m[1, 0] = m
    with pytest.raises(SimulationError, match=expected):
        state.step(np.zeros(1), ratios)


@pytest.mark.parametrize("where,expected", [
    ("m", "moving queue went negative"), ("w", "waiting queue went negative"),
    ("demand", "storage capacity exceeded")])
def test_queue_checks_fail_on_nan(where, expected):
    state, ratios = drained_chain_state()
    demand = np.zeros(1)
    if where == "demand":
        demand[0] = np.nan
    else:
        getattr(state, where)[1, 0] = np.nan
    with pytest.raises(SimulationError, match=expected):
        state.step(demand, ratios)


def plant(state, where, amount):
    """``amount`` veh on link 0 of a ``drained_chain_state``: waiting, due
    to mature at step 0 (pending, and so moving too) or backlogged."""
    if where == "pend":
        state.m[0, 0] += amount
        state.pend[0, 0, 0] = amount
    else:
        getattr(state, where)[0] = amount


@pytest.mark.parametrize("where", ["w", "pend", "backlog"])
@pytest.mark.parametrize("amount,frozen", [(RESIDUE_VEH / 2, True),
                                           (2 * RESIDUE_VEH, False)])
def test_residue_at_most_the_bound_stays_frozen(where, amount, frozen):
    state, ratios = drained_chain_state()
    plant(state, where, amount)
    assert state.drained() == frozen
    before = queue_bytes(state)
    out = state.step(np.zeros(1), ratios)
    assert (queue_bytes(state) == before) == frozen
    if where == "backlog":
        assert state.injected_total == (0.0 if frozen else amount)
    else:
        assert out["outflow"][0] == (0.0 if frozen else amount)
        assert state.m[1, 0] == (0.0 if frozen else amount)


@pytest.mark.parametrize("where", ["w", "pend", "backlog"])
@pytest.mark.parametrize("value,expected", [
    (np.nan, "queue went negative|storage capacity exceeded"),
    (-1.0, "moving queue went negative"), (-RESIDUE_VEH / 2, None)])
def test_nan_or_negative_entry_is_never_frozen(where, value, expected):
    state, ratios = drained_chain_state()
    plant(state, where, value)
    assert not state.drained()
    if expected is None:      # within the queue checks' -1e-9 tolerance
        state.step(np.zeros(1), ratios)
        assert state.step_no == 1
        return
    with pytest.raises(SimulationError, match=expected):
        for _ in range(2):
            state.step(np.zeros(1), ratios)


def test_conservation_check_fails_on_nan(monkeypatch):
    net = chain_network()
    monkeypatch.setattr(SimState, "in_network", lambda state: float("nan"))
    with pytest.raises(SimulationError, match="balance violated by nan veh"):
        simulate(net, make_scenario(net, [(0, 2)], [100.0]), short_cfg())


def test_record_array_not_finite_fails_simulate(monkeypatch):
    sim = importlib.import_module("lcftraffic.simulate")

    def planted(speeds, acc):
        mean_speed, production, total = network_stats(speeds, acc)
        production[-1] = np.nan
        return mean_speed, production, total

    net = chain_network()
    monkeypatch.setattr(sim, "network_stats", planted)
    with pytest.raises(SimulationError, match="record array 'production'"):
        simulate(net, make_scenario(net, [(0, 2)], [100.0]), short_cfg())


def test_three_link_chain_hand_ledger():
    """3 vehicles on a 3-link chain, stepped by hand.

    Free-flow travel is 4 steps per link; the burst is injected at step 0,
    transfers at steps 4 and 8, and completes on the destination at step 12.
    """
    net = chain_network(n_links=3)
    cfg = short_cfg()
    state = SimState(net, cfg, [(0, 2)], (2,))
    ratios = initial_turn_ratios(net, (2,))

    expected = {
        0: ([0, 0, 0], [0, 0, 0], 0.0),
        1: ([3, 0, 0], [0, 0, 0], 0.0),
        4: ([3, 0, 0], [3, 0, 0], 0.0),
        5: ([0, 3, 0], [0, 0, 0], 0.0),
        8: ([0, 3, 0], [0, 3, 0], 0.0),
        9: ([0, 0, 3], [0, 0, 0], 0.0),
        12: ([0, 0, 3], [0, 0, 3], 3.0),
        13: ([0, 0, 0], [0, 0, 0], 0.0),
    }
    for k in range(16):
        demand = np.array([3.0]) if k == 0 else np.array([0.0])
        out = state.step(demand, ratios)
        if k in expected:
            acc, outflow, completed = expected[k]
            assert out["accumulation"].tolist() == acc, f"step {k}"
            assert out["outflow"].tolist() == outflow, f"step {k}"
            assert out["completed"].sum() == completed, f"step {k}"
    assert state.injected_total == 3.0
    assert state.completed_total == 3.0
    assert state.in_network() == 0.0


# ---------------------------------------------------------------------------
# turn ratios
# ---------------------------------------------------------------------------

def fork_network(fast_len=100.0, slow_len=300.0):
    junctions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 50.0),
                 3: (200.0, -50.0), 4: (300.0, 0.0), 5: (400.0, 0.0)}
    links = [
        Link(0, 0, 1, 100.0, 2, 0, 36.0),
        Link(1, 1, 2, fast_len, 2, 0, 36.0),
        Link(2, 2, 4, fast_len, 2, 0, 36.0),
        Link(3, 1, 3, slow_len, 2, 0, 36.0),
        Link(4, 3, 4, slow_len, 2, 0, 36.0),
        Link(5, 4, 5, 100.0, 2, 0, 36.0),
    ]
    return RoadNetwork(junctions, links)


def pair_index(net, up, dn):
    idx = net.index
    for p, (u, d) in enumerate(zip(idx.pair_up, idx.pair_dn)):
        if (u, d) == (up, dn):
            return p
    raise KeyError((up, dn))


def test_all_or_nothing_prefers_faster_route():
    net = fork_network()
    ratios = initial_turn_ratios(net, (5,))
    fast = pair_index(net, 0, 1)
    slow = pair_index(net, 0, 3)
    assert ratios[fast, 0] == 1.0
    assert ratios[slow, 0] == 0.0


def test_smoothing_blend():
    net = fork_network()
    cfg = short_cfg(turn_smoothing=0.5)
    prev = initial_turn_ratios(net, (5,))
    fast = pair_index(net, 0, 1)
    slow = pair_index(net, 0, 3)
    prev[fast, 0] = 0.5
    prev[slow, 0] = 0.5
    speeds = np.full(net.n_links, 36.0)
    new = update_turn_ratios(net, speeds, prev, (5,), cfg)
    assert new[fast, 0] == pytest.approx(0.75, abs=1e-12)
    assert new[slow, 0] == pytest.approx(0.25, abs=1e-12)


def test_smoothing_one_is_pure_target():
    net = fork_network()
    cfg = short_cfg(turn_smoothing=1.0)
    prev = initial_turn_ratios(net, (5,))
    fast = pair_index(net, 0, 1)
    slow = pair_index(net, 0, 3)
    prev[fast, 0] = 0.2
    prev[slow, 0] = 0.8
    new = update_turn_ratios(net, np.full(net.n_links, 36.0), prev, (5,), cfg)
    assert new[fast, 0] == 1.0
    assert new[slow, 0] == 0.0


def test_equal_cost_tie_breaks_to_lowest_link_id():
    net = fork_network(fast_len=200.0, slow_len=200.0)
    ratios = initial_turn_ratios(net, (5,))
    assert ratios[pair_index(net, 0, 1), 0] == 1.0
    assert ratios[pair_index(net, 0, 3), 0] == 0.0


def test_unreachable_destination_falls_back_to_uniform(caplog):
    junctions = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (1, -1),
                 4: (5, 5), 5: (6, 5)}
    links = [
        Link(0, 0, 1, 100.0, 2, 0, 25.0),
        Link(1, 1, 2, 100.0, 2, 0, 25.0),
        Link(2, 1, 3, 100.0, 2, 0, 25.0),
        Link(3, 4, 5, 100.0, 2, 0, 25.0),  # disconnected destination
    ]
    net = RoadNetwork(junctions, links)
    with caplog.at_level("WARNING"):
        ratios = initial_turn_ratios(net, (3,))
    assert ratios[pair_index(net, 0, 1), 0] == 0.5
    assert ratios[pair_index(net, 0, 2), 0] == 0.5
    assert "unreachable" in caplog.text


def test_ratio_vectors_sum_to_one_after_updates():
    net = generate_grid_network(4, 4, 100.0, 2)
    ids = net.link_ids()
    dests = (ids[3], ids[17], ids[30])
    ratios = initial_turn_ratios(net, dests)
    rng = np.random.default_rng(1)
    cfg = short_cfg()
    for _ in range(5):
        speeds = rng.uniform(2.0, 25.0, size=net.n_links)
        ratios = update_turn_ratios(net, speeds, ratios, dests, cfg)
        check_turn_ratios(net, ratios)  # sums to 1 within 1e-9


# ---------------------------------------------------------------------------
# routing core and scatters on random non-grid networks
# ---------------------------------------------------------------------------

def reference_time_to_dest(net, tau, dest):
    """Per-destination Dijkstra on the reversed link graph."""
    dist = np.full(net.n_links, np.inf)
    dist[dest] = tau[dest]
    heap = [(dist[dest], dest)]
    ids = net.link_ids()
    upstream = {b: [] for b in ids}
    for a, b in net.connectivity:
        upstream[b].append(a)
    while heap:
        d, z = heapq.heappop(heap)
        if d > dist[z]:
            continue
        for up_id in upstream[ids[z]]:
            u = net.link_index(up_id)
            cand = d + tau[u]
            if cand < dist[u]:
                dist[u] = cand
                heapq.heappush(heap, (cand, u))
    return dist


def random_networks(seed, count):
    rng = np.random.default_rng(seed)
    while count:
        net = random_network(rng)
        if net is not None:
            count -= 1
            yield rng, net


def test_all_destination_times_match_per_destination_dijkstra():
    for rng, net in random_networks(11, 60):
        tau = np.array([lk.length_m for lk in net.links]) / rng.uniform(1.0, 10.0, net.n_links)
        dests = rng.permutation(net.n_links)
        got = shortest_time_to_dest(net, tau, dests)
        want = np.column_stack([reference_time_to_dest(net, tau, d) for d in dests])
        assert got.tobytes() == want.tobytes()


def test_turn_ratios_sum_to_one_on_random_networks():
    cfg = short_cfg(turn_smoothing=0.5)
    unreachable = 0
    for rng, net in random_networks(12, 60):
        dests = net.link_ids()  # every link, reachable or not
        ratios = initial_turn_ratios(net, dests)
        idx = net.index
        vff_tau = link_travel_times(idx.length_m, idx.vff_kmh)
        for col, dest_id in enumerate(dests):
            dist = reference_time_to_dest(net, vff_tau, net.link_index(dest_id))
            for lk in net.links:
                pairs = [p for p, u in enumerate(idx.pair_up) if u == net.link_index(lk.id)]
                if not pairs:
                    continue
                split = ratios[pairs, col]
                via = [dist[idx.pair_dn[p]] for p in pairs]
                if lk.id == dest_id or np.isinf(min(via)):
                    unreachable += lk.id != dest_id
                    assert np.all(split == 1.0 / len(pairs))
                else:
                    # all-or-nothing toward the first (lowest-id) fastest pair
                    assert split[int(np.argmin(via))] == 1.0
                    assert split.sum() == 1.0
        for _ in range(3):
            speeds = rng.uniform(1.0, 25.0, size=net.n_links)
            ratios = update_turn_ratios(net, speeds, ratios, dests, cfg)
            for u in set(idx.pair_up.tolist()):
                sums = ratios[idx.pair_up == u].sum(axis=0)
                assert np.abs(sums - 1.0).max() < 1e-12
    assert unreachable > 0


def test_scatters_equal_add_at_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n, k, d = int(rng.integers(1, 12)), int(rng.integers(0, 60)), int(rng.integers(1, 5))
        index = rng.integers(0, n, size=k)
        for values in (rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k),
                       rng.standard_normal((k, d)) * 1e3):
            want = np.zeros((n,) + values.shape[1:])
            np.add.at(want, index, values)
            assert scatter_sum(index, values, n).tobytes() == want.tobytes()


def test_up_passes_apply_each_links_pairs_in_pair_order():
    rng = np.random.default_rng(29)
    checked = most_passes = 0
    while checked < 40:
        net = random_network(rng)
        if net is None:
            continue
        checked += 1
        ids = net.link_ids()
        state = SimState(net, SimConfig(), [(ids[0], ids[1])], (ids[1],))
        up = net.index.pair_up
        most_passes = max(most_passes, len(state.up_passes))
        covered = np.concatenate([r for r, _ in state.up_passes] + [np.zeros(0, int)])
        assert np.array_equal(np.sort(covered), np.arange(len(up)))
        for pass_rows, links in state.up_passes:
            assert np.array_equal(links, up[pass_rows])
            assert len(set(links.tolist())) == len(links)
        # each link's rows, read pass by pass, come in pair order
        for u in set(up.tolist()):
            mine = [int(i) for rows, links in state.up_passes for i in rows[links == u]]
            assert mine == np.flatnonzero(up == u).tolist()
        d = 3
        q = rng.standard_normal((len(up), d)) * 10.0 ** rng.integers(-6, 6, (len(up), 1))
        w = rng.standard_normal((net.n_links, d))
        want = w.copy()
        np.add.at(want, up, -q)
        for pass_rows, links in state.up_passes:
            w[links] -= q[pass_rows]
        assert w.tobytes() == want.tobytes()
    assert most_passes >= 3


# ---------------------------------------------------------------------------
# link speed aggregation
# ---------------------------------------------------------------------------

def window_link_speed(outflows, accumulations, cfg):
    """_window_stats speed of one 500 m, 25 km/h link from its per-step
    outflows and accumulations over a window."""
    speeds = _window_stats(np.array([0.5]), np.array([25.0]), cfg,
                           np.array([np.sum(outflows)]),
                           np.array([np.sum(accumulations)]))
    return float(speeds[0])


def test_link_speed_clamps_to_free_flow():
    cfg = SimConfig()
    outflows = np.ones(36)
    acc = np.full(36, 10.0)
    # raw = 36 * 0.5 km / 360 * 720 = 36 km/h -> clamped to 25
    assert window_link_speed(outflows, acc, cfg) == 25.0


def test_link_speed_empty_link_is_free_flow():
    cfg = SimConfig()
    assert window_link_speed(np.zeros(36), np.zeros(36), cfg) == 25.0


def test_link_speed_gridlock_is_v_min():
    cfg = SimConfig()
    assert window_link_speed(np.zeros(36), np.full(36, 50.0), cfg) == cfg.v_min_kmh


@pytest.mark.parametrize("held,expected", [
    (1e-14, 25.0), (0.999 * EMPTY_VEH, 25.0), (1.001 * EMPTY_VEH, 1.0)])
def test_link_speed_of_a_float_residue_is_free_flow(held, expected):
    # a drained queue's residue moves nothing; below EMPTY_VEH it is empty
    cfg = SimConfig()
    assert window_link_speed(np.zeros(36), np.full(36, held), cfg) == expected


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def make_scenario(net, od_pairs, rates, scale=1.0, sid=0):
    od = ODMatrix(pairs=tuple(od_pairs), rates=tuple(rates))
    return Scenario(id=sid, od=od, scale=scale, bus_links=(), seed=sid)


def test_zero_demand_all_free_flow():
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    cfg = short_cfg(window_s=100.0)
    ids = net.link_ids()
    rec = simulate(net, make_scenario(net, [(ids[0], ids[5])], [0.0]), cfg)
    assert np.all(rec.speeds == 25.0)
    assert np.all(rec.production == 0.0)
    assert np.all(rec.mean_speed == 25.0)
    assert np.all(rec.total_accumulation == 0.0)


def test_reference_schedule_has_120_windows():
    assert SimConfig().n_windows == 120


def test_simulation_is_deterministic():
    net = generate_grid_network(3, 3, 100.0, 2)
    ids = net.link_ids()
    cfg = short_cfg(total_s=600.0)
    sc = make_scenario(net, [(ids[1], ids[20]), (ids[8], ids[3])], [400.0, 300.0])
    r1 = simulate(net, sc, cfg)
    r2 = simulate(net, sc, cfg)
    assert np.array_equal(r1.speeds, r2.speeds)
    assert np.array_equal(r1.outflow, r2.outflow)
    assert np.array_equal(r1.mean_speed, r2.mean_speed)


def test_recorded_accumulation_never_negative():
    # float residues in the moving queue must not leak into records
    net = generate_grid_network(4, 4, 100.0, 3, vff_kmh=25.0,
                                length_jitter=0.3, jitter_seed=1)
    ids = net.link_ids()
    cfg = short_cfg(total_s=3600.0, warmup_s=600.0, peak_s=2400.0,
                    window_s=120.0)
    od = [(ids[0], ids[40]), (ids[17], ids[3]), (ids[25], ids[11])]
    rec = simulate(net, make_scenario(net, od, [150.0, 150.0, 150.0]), cfg)
    assert rec.accumulation.min() >= 0.0


def test_speeds_stay_within_bounds_under_congestion():
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    ids = net.link_ids()
    cfg = short_cfg(total_s=1200.0, warmup_s=200.0, peak_s=600.0, window_s=60.0)
    od = [(ids[0], ids[22]), (ids[7], ids[2]), (ids[13], ids[5])]
    sc = make_scenario(net, od, [1500.0, 1500.0, 1500.0])
    rec = simulate(net, sc, cfg)  # also exercises the internal balance check
    assert np.all(rec.speeds <= 25.0 + 1e-12)
    assert np.all(rec.speeds >= cfg.v_min_kmh - 1e-12)
    assert rec.completed is not None and rec.completed.sum() > 0


def test_free_flow_regime_every_window_exact():
    # one-step traversal (50 m at 36 km/h with 5 s steps) keeps each
    # vehicle's accumulation and outflow in the same window
    net = generate_grid_network(3, 3, 50.0, 2, vff_kmh=36.0, with_signals=False)
    ids = net.link_ids()
    cfg = short_cfg(total_s=1500.0, warmup_s=300.0, peak_s=900.0, window_s=100.0)
    # saturation flow is 1 veh/s per approach; 0.1 veh/s demand = 10%
    od = [(ids[0], ids[15]), (ids[9], ids[4])]
    sc = make_scenario(net, od, [360.0, 360.0])
    rec = simulate(net, sc, cfg)
    assert np.abs(rec.speeds - 36.0).max() < 1e-9


def test_network_mfd_single_link_identity():
    # with one link (500 m, 25 km/h) the network mean speed is that link's
    # speed, and production is its speed times its accumulation
    cfg = short_cfg(window_s=100.0, total_s=400.0, warmup_s=100.0, peak_s=200.0)
    steps = cfg.steps_per_window
    sum_x = np.array([8.0 * steps])
    sum_u = np.array([12.0 * sum_x[0] / (720.0 * 0.5)])  # raw speed 12 km/h
    speeds = _window_stats(np.array([0.5]), np.array([25.0]), cfg, sum_u, sum_x)
    mean_speed, production, total_acc = network_stats(speeds[None], sum_x[None] / steps)
    assert speeds[0] == pytest.approx(12.0)
    assert mean_speed.tolist() == [speeds[0]]
    assert production.tolist() == [8.0 * speeds[0]]
    assert total_acc.tolist() == [8.0]


def test_network_mfd_shape_and_zero_demand_convention():
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    cfg = short_cfg(window_s=100.0)
    ids = net.link_ids()
    rec = simulate(net, make_scenario(net, [(ids[0], ids[5])], [0.0]), cfg)
    mfd = network_mfd(rec)
    assert mfd.shape == (rec.n_windows, 3)
    assert np.all(mfd[:, 0] == 0.0)   # accumulation
    assert np.all(mfd[:, 1] == 0.0)   # production
    assert np.all(mfd[:, 2] == 25.0)  # mean speed convention


def test_mean_speed_is_accumulation_weighted():
    # two 1 km, 50 km/h links at 10 and 30 km/h: equal accumulations give
    # the midpoint, 3:1 gives 15, and a network holding less than EMPTY_VEH
    # the arithmetic mean
    cfg = short_cfg(window_s=100.0, total_s=400.0, warmup_s=100.0, peak_s=200.0)
    steps = cfg.steps_per_window
    # per-step outflow u makes raw speed u*L/x * 720; choose u for 10 and 30
    sum_x = np.array([10.0 * steps, 10.0 * steps])
    sum_u = np.array([10.0 * sum_x[0] / (720.0 * 1.0), 30.0 * sum_x[1] / (720.0 * 1.0)])
    speeds = _window_stats(np.array([1.0, 1.0]), np.array([50.0, 50.0]), cfg,
                           sum_u, sum_x)
    assert speeds == pytest.approx([10.0, 30.0])
    acc = np.array([[10.0, 10.0], [3.0, 1.0], [3e-7, 1e-7]])
    mean_speed, production, total_acc = network_stats(np.tile(speeds, (3, 1)), acc)
    assert mean_speed == pytest.approx([20.0, 15.0, 20.0])
    assert production == pytest.approx(acc @ speeds)
    assert total_acc.tolist() == [20.0, 4.0, 4e-7]


def test_recorded_speeds_are_the_sums_rule_but_residues_run_free():
    """Without a turn-ratio refresh no speed feeds back into the queues, so
    the recorded speeds are the rule without ``EMPTY_VEH`` (v_ff only where
    the window held nothing) recomputed from the record's outflow and
    accumulation, except link-windows holding 0 < x < EMPTY_VEH: that rule
    labels them jammed, and they run at v_ff."""
    net = generate_grid_network(5, 5, 100.0, 3, vff_kmh=25.0,
                                length_jitter=0.3, jitter_seed=11)
    cfg = SimConfig(warmup_s=900.0, peak_s=5400.0, total_s=7200.0,
                    turn_update_s=7200.0)
    sc = Scenario(id=0, od=random_base_od(net, 10, 150.0, seed=42), scale=1.0,
                  bus_links=(), seed=0)
    rec = simulate(net, sc, cfg)
    vff = np.broadcast_to(net.index.vff_kmh, rec.speeds.shape)
    sum_x = rec.accumulation * cfg.steps_per_window
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = rec.outflow * (net.index.length_m / 1000.0) / sum_x * (3600.0 / cfg.step_s)
    sums_rule = np.where(sum_x > 0, np.clip(raw, cfg.v_min_kmh, vff), vff)
    residue = (rec.accumulation > 0) & (rec.accumulation < EMPTY_VEH)
    assert residue.sum() > 50
    assert np.all(sums_rule[residue] == cfg.v_min_kmh)
    assert np.array_equal(rec.speeds[residue], vff[residue])
    np.testing.assert_allclose(rec.speeds[~residue], sums_rule[~residue],
                               rtol=1e-12, atol=0.0)


def test_conservation_and_speed_bounds_per_window_on_random_networks():
    cfg = short_cfg(window_s=60.0, warmup_s=200.0, peak_s=600.0, total_s=1200.0)
    spw = cfg.steps_per_window
    for rng, net in random_networks(21, 20):
        ids = net.link_ids()
        od = [tuple(ids[i] for i in rng.choice(len(ids), 2, replace=False))
              for _ in range(3)]
        rates = rng.uniform(200.0, 2000.0, size=3)
        rec = simulate(net, make_scenario(net, od, rates), cfg)
        vff = net.index.vff_kmh
        assert np.all(rec.speeds >= cfg.v_min_kmh)
        assert np.all(rec.speeds <= vff)
        assert np.all(rec.mean_speed >= cfg.v_min_kmh)
        assert np.all(rec.mean_speed <= vff.max())
        empty = rec.accumulation < EMPTY_VEH
        assert np.array_equal(rec.speeds[empty],
                              np.broadcast_to(vff, rec.speeds.shape)[empty])
        assert np.array_equal(rec.production,
                              np.add.reduce(rec.accumulation * rec.speeds, 1))
        dests = tuple(sorted({d for _, d in od}))
        state = SimState(net, cfg, od, dests)
        ratios = initial_turn_ratios(net, dests)
        for k in range(cfg.n_windows * spw):
            state.step(rates / 3600.0 * cfg.step_s, ratios)
            if (k + 1) % spw == 0:
                held = state.in_network() + state.completed_total
                assert abs(state.injected_total - held) <= 1e-6, f"window {k // spw}"


def test_record_round_trip(tmp_path):
    net = generate_grid_network(3, 3, 100.0, 2)
    ids = net.link_ids()
    cfg = short_cfg(total_s=400.0)
    sc = make_scenario(net, [(ids[0], ids[10])], [500.0])
    rec = simulate(net, sc, cfg)
    save_record(rec, tmp_path / "rec")
    rec2 = load_record(tmp_path / "rec", window_s=cfg.window_s, step_s=cfg.step_s)
    assert rec2.link_ids == rec.link_ids
    assert np.array_equal(rec2.speeds, rec.speeds)
    assert np.array_equal(rec2.mean_speed, rec.mean_speed)
    # saving again is byte-identical
    save_record(rec2, tmp_path / "rec2")
    assert (tmp_path / "rec/links.csv").read_bytes() == \
        (tmp_path / "rec2/links.csv").read_bytes()
    assert (tmp_path / "rec/network.csv").read_bytes() == \
        (tmp_path / "rec2/network.csv").read_bytes()


def test_record_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2**63, size=(4, 3 * 5 + 3), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 0.0
    values[0, :3] = [5e-324, 1e-14, 0.1]
    rec = SimRecord(link_ids=(7, 3, 11, 40, 2), window_s=60.0, step_s=5.0,
                    speeds=values[:, 0:5], accumulation=values[:, 5:10],
                    outflow=values[:, 10:15], mean_speed=values[:, 15],
                    production=values[:, 16], total_accumulation=values[:, 17])
    save_record(rec, tmp_path)
    with np.errstate(all="ignore"):
        back = load_record(tmp_path, window_s=60.0, step_s=5.0)
    assert back.link_ids == rec.link_ids
    for name in ("speeds", "accumulation", "outflow"):
        assert getattr(back, name).tobytes() == \
            np.ascontiguousarray(getattr(rec, name)).tobytes()
    # the network columns are derived from the link columns, not read
    with np.errstate(all="ignore"):
        derived = network_stats(np.ascontiguousarray(rec.speeds),
                                np.ascontiguousarray(rec.accumulation))
    for name, column in zip(("mean_speed", "production", "total_accumulation"),
                            derived):
        assert getattr(back, name).tobytes() == column.tobytes()


def test_load_record_reads_links_csv_alone(tmp_path):
    net = generate_grid_network(3, 3, 100.0, 2)
    ids = net.link_ids()
    rec = simulate(net, make_scenario(net, [(ids[0], ids[10])], [500.0]),
                   short_cfg(total_s=400.0))
    save_record(rec, tmp_path)
    (tmp_path / "network.csv").unlink()
    back = load_record(tmp_path, window_s=20.0, step_s=5.0)
    for name in ("speeds", "mean_speed", "production", "total_accumulation"):
        assert getattr(back, name).tobytes() == getattr(rec, name).tobytes()


def _set_field(row: str, k: int, value: str) -> str:
    fields = row.split(",")
    fields[k] = value
    return ",".join(fields)


# a saved 3x3 record: 24 links x 20 windows, so links.csv holds rows 2-481;
# each case edits the rows below the header
@pytest.mark.parametrize("case", [
    "truncated", "partial line", "foreign link id", "rows swapped",
    "window out of order", "bad number", "no rows", "blank line",
    "value not finite", "negative value"])
def test_load_record_names_file_and_line_of_a_broken_layout(tmp_path, case):
    net = generate_grid_network(3, 3, 100.0, 2)
    ids = net.link_ids()
    save_record(simulate(net, make_scenario(net, [(ids[0], ids[10])], [500.0]),
                         short_cfg(total_s=400.0)), tmp_path)
    head_l, *links = (tmp_path / "links.csv").read_text().splitlines()
    assert len(links) == 480
    if case == "truncated":
        # a ragged last window
        links, expected = links[:-2], "links.csv line 480: 478 rows.*need 480"
    elif case == "partial line":
        links[-1] = links[-1][:5]
        expected = "links.csv line 481: expected 5 fields, got 2"
    elif case == "foreign link id":
        links[3 * 24 + 6] = _set_field(links[3 * 24 + 6], 1, "999")
        expected = f"links.csv line 80: link id 999, expected {ids[6]}"
    elif case == "rows swapped":
        links[24], links[25] = links[25], links[24]
        expected = f"links.csv line 26: link id {ids[1]}, expected {ids[0]}"
    elif case == "window out of order":
        links[30] = _set_field(links[30], 0, "2")
        expected = "links.csv line 32: window 2, expected 1"
    elif case == "no rows":
        links, expected = [], "links.csv line 2: expected window 0, found no row"
    elif case == "blank line":    # which numpy alone would skip
        links[40] = ""
        expected = "links.csv line 42: expected 5 fields, got 1"
    elif case in ("value not finite", "negative value"):
        value = "nan" if case == "value not finite" else "-1.0"
        links[8] = _set_field(links[8], 4, value)
        expected = f"links.csv line 10: outflow {value} is not finite and >= 0"
    else:
        links[5] = _set_field(links[5], 3, "1.5x")
        expected = "links.csv line 7: cannot read '1.5x' as float"
    (tmp_path / "links.csv").write_text("\n".join([head_l] + links) + "\n")
    with pytest.raises(ValueError, match=expected):
        load_record(tmp_path, window_s=20.0, step_s=5.0)


def record_digest(rec, out_dir) -> str:
    """SHA-256 of a record's saved files, completed trips and balance error."""
    save_record(rec, out_dir)
    digest = hashlib.sha256()
    for name in ("links.csv", "network.csv"):
        digest.update((out_dir / name).read_bytes())
    digest.update(rec.completed.tobytes())
    digest.update(repr(rec.balance_error).encode())
    return digest.hexdigest()


def grid_run() -> SimRecord:
    """A congested 2-h run with bus lanes and a repeated OD pair."""
    net = generate_grid_network(5, 5, 100.0, 3, vff_kmh=25.0,
                                length_jitter=0.3, jitter_seed=11)
    ids = net.link_ids()
    od = ODMatrix(pairs=((ids[0], ids[40]), (ids[7], ids[62]), (ids[21], ids[3]),
                         (ids[55], ids[18]), (ids[33], ids[70]), (ids[0], ids[40])),
                  rates=(500.0, 400.0, 450.0, 400.0, 350.0, 150.0))
    sc = Scenario(id=0, od=od, scale=0.5, bus_links=(ids[12], ids[44]), seed=0)
    return simulate(net, sc, SimConfig(warmup_s=900.0, peak_s=5400.0, total_s=7200.0))


def random_network_run() -> SimRecord:
    """A congested 1-h run on a 15-link ``netgen`` network with out-degrees
    0 to 4, two dead ends (links 1 and 2) and destinations that some links
    cannot reach, so the uniform fallback split is used."""
    net = random_network(np.random.default_rng(10))
    assert net.n_links == 15
    out_degree = np.bincount(net.index.pair_up, minlength=net.n_links)
    assert sorted(set(out_degree.tolist())) == [0, 1, 2, 3, 4]
    od = ODMatrix(pairs=((8, 13), (7, 3), (7, 9), (3, 14)), rates=(900.0,) * 4)
    sc = Scenario(id=0, od=od, scale=1.0, bus_links=(), seed=0)
    return simulate(net, sc, SimConfig(warmup_s=600.0, peak_s=2400.0,
                                       total_s=3600.0))


def reference_run() -> SimRecord:
    """Acceptance criterion 1's run: 5x5 grid, 10 OD pairs at 250 veh/h,
    the reference 6-h schedule."""
    net = generate_grid_network(5, 5, 100.0, 3, vff_kmh=25.0,
                                length_jitter=0.3, jitter_seed=11)
    sc = Scenario(id=0, od=random_base_od(net, 10, 250.0, seed=1), scale=1.0,
                  bus_links=(), seed=1)
    return simulate(net, sc, SimConfig())


def test_golden_record_is_bit_identical(tmp_path):
    """``grid_run``; the digest covers the saved record, completed trips and
    the balance error. It was last retaken when residues of at most
    ``RESIDUE_VEH`` began to stay frozen in drained steps; a rewrite of the
    engine must leave every bit as it is."""
    assert record_digest(grid_run(), tmp_path) == \
        "38f3de945211c07b88203d9e83ed9c618c0bf58027e1af9faed785146cac66fc"


def test_golden_record_on_a_random_network_is_bit_identical(tmp_path, caplog):
    """``random_network_run``; the digest covers what
    ``test_golden_record_is_bit_identical`` covers."""
    rec = random_network_run()
    assert "falling back to a uniform split" in caplog.text
    assert (rec.speeds == 1.0).mean() > 0.2
    assert record_digest(rec, tmp_path) == \
        "a7033f4b6172ea59418df9f2c74c96220e58d79d90df9781b8774a9aa870a153"


@pytest.mark.parametrize("run,digest", [
    (grid_run, "bb095faad45c7a1793c099dc8191d08bf0e8261142657556a88e48268dc24b28"),
    (random_network_run,
     "a7033f4b6172ea59418df9f2c74c96220e58d79d90df9781b8774a9aa870a153"),
    (reference_run,
     "86e4241a64787a5be5c716d9432ea54b57ca71214eb0aca842263fe514009594")],
    ids=["grid", "random_network", "reference"])
def test_exact_zero_residue_bound_gives_the_earlier_golden_records(
        tmp_path, monkeypatch, run, digest):
    """With ``RESIDUE_VEH`` = 0.0 a step is drained only when every queue
    entry is exactly zero, and the three golden runs give the digests they
    had before residues froze: the residue bound is the only change."""
    sim = importlib.import_module("lcftraffic.simulate")
    monkeypatch.setattr(sim, "RESIDUE_VEH", 0.0)
    assert record_digest(run(), tmp_path) == digest


def drained_at_each_step(monkeypatch) -> list[bool]:
    """Patches ``SimState.step`` to append, at each step's entry, whether
    the step is drained (no demand and ``SimState.drained``)."""
    drained = []
    step = SimState.step

    def counted(state, demand_step, ratios):
        drained.append(not np.any(demand_step) and state.drained())
        return step(state, demand_step, ratios)

    monkeypatch.setattr(SimState, "step", counted)
    return drained


def test_golden_reference_schedule_with_a_drained_tail(tmp_path, monkeypatch):
    """``reference_run``: after the queues drain, more than three fifths of
    its steps are drained, steps that ``SimState.step`` skips with their
    residues frozen. The digest was retaken with the grid one's."""
    drained = drained_at_each_step(monkeypatch)
    rec = reference_run()
    assert len(drained) == 4320
    assert sum(drained) >= 4320 * 3 // 5
    assert record_digest(rec, tmp_path) == \
        "5dcb0c5b28acad9499c9a085f369c12ae6b5463d9a8397c0684635e9fd0d7fef"


def test_no_rerouting_once_drained_past_the_peak(monkeypatch):
    """Every turn-ratio refresh due before the first drained step past
    warmup_s + peak_s runs, and none after it: from there on no vehicle
    moves, so the ratios are never read again."""
    sim = importlib.import_module("lcftraffic.simulate")
    drained = drained_at_each_step(monkeypatch)
    refreshed_at = []
    update = sim.update_turn_ratios

    def counted(*args):
        refreshed_at.append(len(drained))
        return update(*args)

    monkeypatch.setattr(sim, "update_turn_ratios", counted)
    reference_run()
    cfg = SimConfig()
    turn_every = int(cfg.turn_update_s / cfg.step_s)
    peak_end = int((cfg.warmup_s + cfg.peak_s) / cfg.step_s)
    first = drained.index(True, peak_end)
    assert all(drained[first:])
    assert refreshed_at == list(range(turn_every, first, turn_every))


def test_rerouting_runs_to_the_peak_end_while_demand_lasts(monkeypatch):
    """Demand of 5e-14 veh per step keeps every queue entry within
    ``RESIDUE_VEH``, so the network is drained at every refresh; the ratios
    are still refreshed while demand lasts, up to warmup_s + peak_s."""
    sim = importlib.import_module("lcftraffic.simulate")
    drained, refreshed_at = [], []
    step, update = SimState.step, sim.update_turn_ratios

    def counted_step(state, demand_step, ratios):
        drained.append(state.drained())
        return step(state, demand_step, ratios)

    def counted_update(*args):
        refreshed_at.append(len(drained))
        return update(*args)

    monkeypatch.setattr(SimState, "step", counted_step)
    monkeypatch.setattr(sim, "update_turn_ratios", counted_update)
    net = chain_network()
    cfg = short_cfg(turn_update_s=20.0)     # a refresh every 4 steps
    simulate(net, make_scenario(net, [(0, 2)], [3.6e-11]), cfg)
    assert all(drained)
    assert refreshed_at == list(range(4, 60, 4))    # 60 steps: 300 s
