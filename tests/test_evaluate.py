import itertools
import math
import re

import numpy as np
import pytest

from lcftraffic import evaluate
from lcftraffic.evaluate import (Trip, export_report, generate_trips, histogram,
                                 metrics, path_travel_time, shortest_path,
                                 travel_time_experiment)
from lcftraffic.network import (Link, RoadNetwork, dijkstra,
                                generate_grid_network)
from netgen import random_network
from routing_oracle import oracle_shortest_path


def test_metrics_hand_case():
    rep = metrics(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
    assert rep.mae == 1.0
    assert rep.rmse == pytest.approx(math.sqrt(2.0))
    assert rep.err_mean == -1.0
    assert rep.err_std == 1.0
    assert rep.count == 2


def test_metrics_zero_for_perfect_prediction():
    rep = metrics(np.array([3.0, 4.0]), np.array([3.0, 4.0]))
    assert (rep.mae, rep.mse, rep.rmse, rep.err_mean, rep.err_std) == \
        (0.0, 0.0, 0.0, 0.0, 0.0)


def test_metrics_rmse_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        rep = metrics(rng.normal(size=300), rng.normal(size=300))
        assert rep.rmse ** 2 == pytest.approx(
            rep.err_mean ** 2 + rep.err_std ** 2, abs=1e-9)
        assert rep.rmse >= abs(rep.err_mean)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=50)
    truth = rng.normal(size=50)
    a = metrics(pred, truth)
    perm = rng.permutation(50)
    b = metrics(pred[perm], truth[perm])
    assert a.mae == pytest.approx(b.mae, abs=1e-12)
    assert a.rmse == pytest.approx(b.rmse, abs=1e-12)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 1000])
def test_metrics_equal_numpy_mean_and_std_to_the_bit(n):
    # sizes on both sides of numpy's pairwise-summation blocks (8 and 128)
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e6):
        pred, truth = rng.normal(size=(2, n)) * scale + [[5.0], [4.0]]
        e = pred - truth
        rep = metrics(pred, truth)
        assert (rep.mae, rep.mse, rep.rmse, rep.err_mean, rep.err_std) == (
            float(np.mean(np.abs(e))), float(np.mean(e * e)),
            math.sqrt(float(np.mean(e * e))), float(np.mean(e)),
            float(np.std(e)))


def test_metrics_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        metrics(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        metrics(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# trips
# ---------------------------------------------------------------------------

def test_generate_trips_contract():
    net = generate_grid_network(5, 5, 100.0, 2)
    trips = generate_trips(net, 1000, seed=3, horizon=(5, 119))
    assert len(trips) == 1000
    assert all(t.origin != t.destination for t in trips)
    assert all(5 <= t.departure <= 119 for t in trips)
    boundary = {lk.id for lk in net.links if lk.is_boundary_in or lk.is_boundary_out}
    assert all(t.origin not in boundary and t.destination not in boundary
               for t in trips)
    again = generate_trips(net, 1000, seed=3, horizon=(5, 119))
    assert trips == again


# ---------------------------------------------------------------------------
# shortest path vs brute force
# ---------------------------------------------------------------------------

def triangle_net():
    junctions = {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)}
    # A: 0->1, B: 1->2, C also 0->... build parallel: A->B vs direct slow D
    links = [
        Link(0, 0, 1, 100.0, 2, 0, 36.0),   # A
        Link(1, 1, 2, 100.0, 2, 0, 36.0),   # B
        Link(2, 0, 2, 100.0, 2, 0, 12.0),   # C: slow direct alternative
        Link(3, 2, 3, 100.0, 2, 0, 36.0),   # D: shared tail
    ]
    return RoadNetwork(junctions, links)


def brute_force_cost(net, tau, origin, dest):
    """Enumerate all simple link paths; None when unreachable."""
    best = None
    src, dst = net.link_index(origin), net.link_index(dest)
    ids = net.link_ids()
    downstream = {lid: [] for lid in ids}
    for a, b in net.connectivity:
        downstream[a].append(b)
    stack = [(src, frozenset([src]), tau[src])]
    while stack:
        node, seen, cost = stack.pop()
        if node == dst:
            if best is None or cost < best:
                best = cost
            continue
        for d in downstream[ids[node]]:
            di = net.link_index(d)
            if di not in seen:
                stack.append((di, seen | {di}, cost + tau[di]))
    return best


def test_shortest_path_triangle():
    net = triangle_net()
    speeds = np.array([lk.vff_kmh for lk in net.links])
    path = shortest_path(net, speeds, 0, 3)
    # A(10s) + B(10s) + D = 20s before tail vs C(30s) + D
    assert path == [0, 1, 3]


def test_shortest_path_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for trial in range(100):
        net = random_network(rng)
        if net is None:
            continue
        speeds = rng.uniform(5.0, 25.0, size=net.n_links)
        tau = np.array([lk.length_m for lk in net.links]) / (speeds / 3.6)
        ids = net.link_ids()
        o, d = rng.choice(net.n_links, size=2, replace=False)
        path = shortest_path(net, speeds, ids[int(o)], ids[int(d)])
        oracle = brute_force_cost(net, tau, ids[int(o)], ids[int(d)])
        if path is None:
            assert oracle is None
        else:
            cost = sum(tau[net.link_index(z)] for z in path)
            assert cost == pytest.approx(oracle, rel=1e-12)


def test_shortest_path_disconnected_returns_none():
    junctions = {0: (0, 0), 1: (1, 0), 2: (5, 5), 3: (6, 5)}
    links = [Link(0, 0, 1, 100.0, 2, 0, 25.0), Link(1, 2, 3, 100.0, 2, 0, 25.0)]
    net = RoadNetwork(junctions, links)
    assert shortest_path(net, np.array([25.0, 25.0]), 0, 1) is None


def test_shortest_path_equals_the_oracle_on_uniform_lattices():
    # one speed and one length everywhere: every route of k links costs the
    # same k additions of one tau, so a pair apart in both rows and columns
    # has several exactly equal-cost routes and the tie rule picks the path
    for rows, cols in ((2, 2), (3, 4), (5, 5)):
        net = generate_grid_network(rows, cols, 200.0, 2, with_signals=False)
        speeds = np.full(net.n_links, 25.0)
        for o, d in itertools.permutations(net.link_ids(), 2):
            path = shortest_path(net, speeds, o, d)
            assert path == oracle_shortest_path(net, speeds, o, d)


def test_shortest_path_equals_the_oracle_on_random_networks():
    rng = np.random.default_rng(23)
    unreachable = 0
    for trial in range(60):
        net = random_network(rng)
        if net is None:
            continue
        speeds = rng.choice([10.0, 25.0], size=net.n_links)
        for o, d in itertools.permutations(net.link_ids(), 2):
            path = shortest_path(net, speeds, o, d)
            assert path == oracle_shortest_path(net, speeds, o, d)
            unreachable += path is None
    assert unreachable > 0


def assert_oracle_paths(net, speeds, pairs):
    for o, d in pairs:
        assert shortest_path(net, speeds, o, d) == \
            oracle_shortest_path(net, speeds, o, d), (o, d)


def test_shortest_path_equals_the_oracle_on_links_shorter_than_their_chords():
    # a jittered street may be shorter than the straight line between its
    # junctions, so the bound rests on the least seconds per chord metre
    for seed in range(2):
        net = generate_grid_network(5, 5, 100.0, 2, length_jitter=0.3,
                                    jitter_seed=seed, with_signals=False)
        assert np.any(net.index.length_m < net.index.chord_m)
        rng = np.random.default_rng(seed)
        for speeds in (np.full(net.n_links, 25.0),
                       rng.uniform(2.0, 25.0, size=net.n_links)):
            assert_oracle_paths(net, speeds,
                                itertools.permutations(net.link_ids(), 2))


def test_shortest_path_equals_the_oracle_with_one_link_50_times_faster():
    # that link alone sets the seconds per chord metre: the weakest bound,
    # on a uniform lattice full of equal-cost ties
    net = generate_grid_network(5, 5, 100.0, 2, with_signals=False)
    for fast in (0, 37, net.n_links - 1):
        speeds = np.full(net.n_links, 25.0)
        speeds[fast] = 1250.0
        assert_oracle_paths(net, speeds, itertools.permutations(net.link_ids(), 2))


def test_shortest_path_equals_the_oracle_with_every_junction_at_one_point():
    grid = generate_grid_network(4, 4, 100.0, 2, length_jitter=0.3,
                                 jitter_seed=2, with_signals=False)
    net = RoadNetwork({j: (3.0, -1.0) for j in grid.junctions}, list(grid.links))
    assert not net.index.chord_m.any()
    speeds = np.random.default_rng(4).uniform(5.0, 25.0, size=net.n_links)
    assert_oracle_paths(net, speeds, itertools.permutations(net.link_ids(), 2))


@pytest.mark.parametrize("seed", range(20))
def test_shortest_path_equals_the_oracle_on_netgen_networks(seed):
    rng = np.random.default_rng(seed)
    net = None
    while net is None:
        net = random_network(rng)
    speeds = rng.uniform(2.0, 25.0, size=net.n_links)
    assert_oracle_paths(net, speeds, itertools.permutations(net.link_ids(), 2))


def test_the_bounded_search_labels_fewer_links_on_a_10x10_grid(monkeypatch):
    """Each trip's search, rerun without the bound, labels more links and
    reaches the destination at the same time."""
    labelled = []

    def both(adjacent, tau, source, stop=None, lower=None):
        dist = dijkstra(adjacent, tau, source, stop=stop, lower=lower)
        plain = dijkstra(adjacent, tau, source, stop=stop)
        assert lower is not None and dist[stop] == plain[stop]
        labelled.append((sum(map(math.isfinite, dist)),
                         sum(map(math.isfinite, plain))))
        return dist

    monkeypatch.setattr(evaluate, "dijkstra", both)
    net = generate_grid_network(10, 10, 100.0, 3, length_jitter=0.3, jitter_seed=1)
    speeds = np.random.default_rng(1).uniform(5.0, 25.0, size=(3, net.n_links))
    for trip in generate_trips(net, 200, seed=2, horizon=(0, 2)):
        shortest_path(net, speeds[trip.departure], trip.origin, trip.destination)
    bounded, plain = np.array(labelled).sum(axis=0)
    assert len(labelled) == 200 and bounded < 0.8 * plain


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -3.0])
def test_shortest_path_rejects_a_speed_not_finite_and_positive(bad):
    net = generate_grid_network(3, 3, 100.0, 2)
    speeds = np.full(net.n_links, 25.0)
    speeds[5] = bad
    with pytest.raises(ValueError, match=re.escape(
            f"link {net.links[5].id}: speed {bad!r} km/h is not finite and > 0")):
        shortest_path(net, speeds, 0, 7)


# ---------------------------------------------------------------------------
# path travel time
# ---------------------------------------------------------------------------

def two_link_net(length=500.0):
    junctions = {0: (0, 0), 1: (length, 0), 2: (2 * length, 0)}
    return RoadNetwork(junctions, [Link(0, 0, 1, length, 2, 0, 50.0),
                                   Link(1, 1, 2, length, 2, 0, 50.0)])


def test_path_time_constant_speed():
    net = two_link_net(500.0)
    speeds = np.full((10, 2), 30.0)
    t, flag = path_travel_time(net, [0, 1], speeds, 0, window_s=180.0)
    assert t == pytest.approx(120.0)  # 1 km at 30 km/h
    assert not flag


def test_path_time_single_link_formula():
    net = two_link_net(750.0)
    speeds = np.full((5, 2), 15.0)
    t, _ = path_travel_time(net, [0], speeds, 2, window_s=180.0)
    assert t == pytest.approx(3600.0 * 0.75 / 15.0)


def test_path_time_halves_when_speed_doubles():
    net = two_link_net()
    s1 = np.full((10, 2), 20.0)
    t1, _ = path_travel_time(net, [0, 1], s1, 1, window_s=180.0)
    t2, _ = path_travel_time(net, [0, 1], 2 * s1, 1, window_s=180.0)
    assert t1 == pytest.approx(2 * t2)


def test_path_time_uses_window_at_entry():
    net = two_link_net(500.0)
    speeds = np.zeros((2, 2))
    speeds[0] = [36.0, 36.0]   # 10 m/s: first link takes exactly 50 s
    speeds[1] = [18.0, 18.0]   # window 1 reached when entering link 2
    t, _ = path_travel_time(net, [0, 1], speeds, 0, window_s=50.0)
    assert t == pytest.approx(50.0 + 100.0)


def test_path_time_flags_horizon_overrun():
    net = two_link_net(500.0)
    speeds = np.full((2, 2), 1.0)
    t, flag = path_travel_time(net, [0, 1], speeds, 1, window_s=60.0)
    assert flag


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_path_time_rejects_a_walked_speed_not_finite_and_positive(bad):
    net = two_link_net(500.0)
    speeds = np.full((3, 2), 30.0)      # 60 s a link: link 1 in window 1
    speeds[0, 1] = speeds[1, 1] = bad   # the walk reads only the second
    with pytest.raises(ValueError, match=re.escape(
            f"link 1: speed {bad!r} km/h in window 1 is not finite and > 0")):
        path_travel_time(net, [0, 1], speeds, 0, window_s=50.0)


def test_a_speed_field_with_nan_at_departure_names_the_window_and_link():
    net = generate_grid_network(3, 3, 100.0, 2)
    speeds = np.full((6, net.n_links), 20.0)
    estimated = speeds.copy()
    estimated[4, 9] = math.nan
    trips = [Trip(net.links[0].id, net.links[11].id, 2),
             Trip(net.links[1].id, net.links[10].id, 4)]
    with pytest.raises(ValueError, match=re.escape(
            f"departure window 4: link {net.links[9].id}: speed nan km/h")):
        travel_time_experiment(net, estimated, speeds, trips, 60.0)


def test_path_time_equals_a_link_by_link_walk_to_the_bit():
    # the scalar crossing-time formula, one link at a time
    def walk(net, path, speeds, depart, window_s):
        clock = depart * window_s
        for link_id in path:
            z = net.link_index(link_id)
            w = min(int(clock // window_s), speeds.shape[0] - 1)
            clock += net.links[z].length_m / (float(speeds[w, z]) * 1000.0 / 3600.0)
        return clock - depart * window_s

    net = generate_grid_network(5, 5, 100.0, 2, length_jitter=0.3, jitter_seed=3)
    rng = np.random.default_rng(8)
    speeds = rng.uniform(1.0, 25.0, size=(12, net.n_links))
    for trip in generate_trips(net, 60, seed=4, horizon=(0, 11)):
        path = shortest_path(net, speeds[trip.departure], trip.origin,
                             trip.destination)
        t, _ = path_travel_time(net, path, speeds, trip.departure, 60.0)
        assert t == walk(net, path, speeds, trip.departure, 60.0)


# ---------------------------------------------------------------------------
# travel-time experiment
# ---------------------------------------------------------------------------

def test_truth_as_prediction_is_exactly_zero():
    net = generate_grid_network(4, 4, 100.0, 2)
    rng = np.random.default_rng(2)
    speeds = rng.uniform(5.0, 25.0, size=(20, net.n_links))
    trips = generate_trips(net, 40, seed=1, horizon=(2, 15))
    result = travel_time_experiment(net, speeds, speeds, trips, window_s=180.0)
    assert result.report.mae == 0.0
    assert result.report.rmse == 0.0


def test_mfd_field_has_positive_error_on_heterogeneous_record():
    net = generate_grid_network(4, 4, 100.0, 2)
    rng = np.random.default_rng(4)
    truth = rng.uniform(5.0, 25.0, size=(20, net.n_links))
    mfd = np.tile(truth.mean(axis=1, keepdims=True), (1, net.n_links))
    trips = generate_trips(net, 40, seed=2, horizon=(2, 15))
    result = travel_time_experiment(net, mfd, truth, trips, window_s=180.0)
    assert result.report.mae > 0.0


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_export_report_layout(tmp_path):
    rep = metrics(np.array([1.0, 2.0]), np.array([1.5, 1.5]), model="MFD",
                  scenario_class="test-medium")
    files = export_report([rep], tmp_path, {"MFD": np.array([-0.5, 0.5])},
                          n_bins=4)
    table = (tmp_path / "report_table.csv").read_text().splitlines()
    assert table[0] == "model,scenario_class,metric,value"
    assert len([l for l in table[1:] if l.startswith("MFD,")]) == 6
    hist = (tmp_path / "hist_MFD.csv").read_text().splitlines()
    counts = [int(l.split(",")[2]) for l in hist[1:]]
    assert sum(counts) == 2
    svg = (tmp_path / "hist_MFD.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_export_report_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    rep = metrics(rng.normal(size=100), rng.normal(size=100), model="LR",
                  scenario_class="test-low")
    errors = {"LR": rng.normal(size=100)}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    export_report([rep], d1, errors)
    export_report([rep], d2, errors)
    for name in ("report_table.csv", "hist_LR.csv", "hist_LR.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_histogram_counts_conserved():
    rng = np.random.default_rng(13)
    errs = rng.normal(size=531)
    bins = histogram(errs, n_bins=17)
    assert sum(c for _, _, c in bins) == 531


def test_trips_that_overrun_the_horizon_are_counted():
    net = generate_grid_network(4, 4, 100.0, 2)
    ids = net.link_ids()
    fast = np.full((6, net.n_links), 20.0)
    slow = np.full((6, net.n_links), 5.0)
    # 100 m links take 72 s at 5 km/h, so a trip of more than one link that
    # departs in the last 60-s window walks past it on the slow field
    last, early = Trip(ids[0], ids[20], departure=5), Trip(ids[0], ids[20], 1)
    assert len(shortest_path(net, fast[5], last.origin, last.destination)) > 1
    for estimated, recorded in ((slow, fast), (fast, slow)):
        result = travel_time_experiment(net, estimated, recorded, [last, early],
                                        window_s=60.0)
        assert (result.n_no_path, result.n_overrun) == (0, 1)
    result = travel_time_experiment(net, fast, fast, [last, early], window_s=60.0)
    assert result.n_overrun == 0
