import json
import re
from dataclasses import replace

import numpy as np
import pytest

from lcftraffic.network import (Link, LinkGraph, NetworkError, RoadNetwork,
                                SignalPlan, build_link_graph,
                                extract_features, fit_minmax,
                                generate_grid_network, load_network,
                                minmax_unscale, save_network)
from netgen import random_network


def two_link_chain():
    junctions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 0.0)}
    links = [
        Link(0, 0, 1, 100.0, 2, 0, 25.0),
        Link(1, 1, 2, 100.0, 2, 0, 25.0),
    ]
    return RoadNetwork(junctions, links)


def chain_doc() -> dict:
    """The JSON of ``two_link_chain`` as ``save_network`` writes it."""
    link = {"from_junction": 0, "to_junction": 1, "length_m": 100.0,
            "lanes_total": 2, "lanes_dbl": 0, "vff_kmh": 25.0,
            "is_boundary_in": False, "is_boundary_out": False}
    return {"junctions": [{"id": j, "x": 100.0 * j, "y": 0.0} for j in range(3)],
            "links": [dict(link, id=0),
                      dict(link, id=1, from_junction=1, to_junction=2)],
            "signals": [{"junction": 1, "cycle_s": 90.0, "offset_s": 0.0,
                         "green_a_s": 45.0}]}


def write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def assert_same_network(a: RoadNetwork, b: RoadNetwork) -> None:
    """Equal field by field, each value of the same type."""
    assert a.junctions == b.junctions and a.links == b.links \
        and a.signals == b.signals and a.connectivity == b.connectivity
    for x, y in zip(a.links + tuple(a.signals.values()),
                    b.links + tuple(b.signals.values())):
        assert [type(v) for v in vars(x).values()] == \
            [type(v) for v in vars(y).values()]


def test_two_links_one_connectivity_pair(tmp_path):
    net = load_network(write(tmp_path / "net.txt", chain_doc()))
    assert net.connectivity == ((0, 1),)
    assert_same_network(net, RoadNetwork(two_link_chain().junctions,
                                         list(two_link_chain().links),
                                         [SignalPlan(1, 90.0, 0.0, 45.0)]))


def test_load_rejects_dbl_equal_lanes(tmp_path):
    doc = chain_doc()
    doc["links"][1]["lanes_dbl"] = 2
    path = write(tmp_path / "bad.txt", doc)
    with pytest.raises(NetworkError, match=re.escape(
            f"{path}: links[1]: link 1: lanes_dbl 2 must be < lanes_total")):
        load_network(path)


def test_load_rejects_dangling_junction(tmp_path):
    doc = chain_doc()
    doc["links"][0]["to_junction"] = 9
    path = write(tmp_path / "bad.txt", doc)
    with pytest.raises(NetworkError, match=re.escape(
            f"{path}: link 0: unknown junction 9")):
        load_network(path)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["links"][1].update(id="one"),
     "links[1]: id must be an int, got 'one'"),
    (lambda d: d["links"][0].update(lanes_total=2.0),
     "links[0]: lanes_total must be an int, got 2.0"),
    (lambda d: d["links"][0].update(is_boundary_in=1),
     "links[0]: is_boundary_in must be a bool, got 1"),
    (lambda d: d["junctions"][2].update(x="200"),
     "junctions[2]: x must be a float, got '200'"),
    (lambda d: d["signals"][0].update(junction=True),
     "signals[0]: junction must be an int, got True"),
    (lambda d: d["links"][0].pop("is_boundary_out"),
     "links[0]: no key 'is_boundary_out'"),
    (lambda d: d["links"][0].update(bus_lanes=0),
     "links[0]: unknown key 'bus_lanes'"),
    (lambda d: d.pop("signals"), "no key 'signals'"),
    (lambda d: d.update(links={}), "links must be a tuple[dict, ...], got {}"),
    (lambda d: d["links"].append([2, 0, 1]),
     "links[2] must be a JSON object, got (2, 0, 1)"),
    (lambda d: d["junctions"].append({"id": 1, "x": 5.0, "y": 5.0}),
     "junctions[3]: junction 1 is defined twice"),
    (lambda d: d["links"].append(dict(d["links"][0], from_junction=2,
                                      to_junction=0)),
     "link 0: duplicate link id"),
    (lambda d: d["signals"].append(d["signals"][0]),
     "junction 1 has two signal plans"),
    (lambda d: d["signals"][0].update(green_a_s=91.0),
     "signals[0]: junction 1: green 91.0 is outside 0..cycle 90.0"),
], ids=["text-id", "float-lanes", "int-flag", "text-x", "bool-junction",
        "no-flag", "unknown-key", "no-signals", "links-object", "link-list",
        "junction-twice", "link-twice", "signal-twice", "green-past-cycle"])
def test_bad_value_names_the_file_and_key(tmp_path, edit, message):
    doc = chain_doc()
    edit(doc)
    path = write(tmp_path / "net.txt", doc)
    with pytest.raises(NetworkError, match=re.escape(f"{path}: {message}")):
        load_network(path)


@pytest.mark.parametrize("section,key", [
    ("junctions", "x"), ("junctions", "y"), ("links", "length_m"),
    ("links", "vff_kmh"), ("signals", "cycle_s"), ("signals", "offset_s"),
    ("signals", "green_a_s")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_field_not_finite_names_the_file_and_key(tmp_path, section, key, value):
    doc = chain_doc()
    doc[section][0][key] = value
    path = write(tmp_path / "net.txt", doc)
    with pytest.raises(NetworkError, match=re.escape(
            f"{path}: {section}[0]: {key} must be finite, got {value!r}")):
        load_network(path)


def test_writer_refuses_a_value_json_cannot_hold(tmp_path):
    # Link refuses NaN, so only a junction built past the checks can hold one
    net = two_link_chain()
    net.junctions[2] = (float("nan"), 0.0)
    with pytest.raises(ValueError, match="Out of range float values"):
        save_network(net, tmp_path / "net.txt")


def test_text_network_of_earlier_versions_asks_to_regenerate(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("JUNCTION 0 0 0\nJUNCTION 1 100 0\nLINK 0 0 1 100 2 0 25\n")
    with pytest.raises(NetworkError, match=re.escape(
            f"{path}: not a JSON file (Expecting value: line 1 column 1 "
            "(char 0)); regenerate it with lcftraffic gen-network")):
        load_network(path)


@pytest.mark.parametrize("green", [-1.0, 91.0, float("nan")])
def test_signal_green_must_lie_within_the_cycle(green):
    with pytest.raises(NetworkError, match="junction 3: green"):
        SignalPlan(3, 90.0, 0.0, green)


def test_grid_round_trip_is_byte_identical(tmp_path):
    net = generate_grid_network(5, 5, 100.0, 3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_network(net, p1)
    save_network(load_network(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("rows,cols,signals", [(2, 2, True), (3, 4, True),
                                               (5, 5, False)])
def test_grid_round_trip_keeps_every_field(tmp_path, rows, cols, signals):
    """Signals with offsets and uneven greens, bus lanes and jittered
    lengths: ``load(save(x))`` equals ``x`` field by field."""
    grid = generate_grid_network(rows, cols, 100.0, 3, cycle_s=75.0,
                                 with_signals=signals, length_jitter=0.3,
                                 jitter_seed=rows * cols)
    plans = [SignalPlan(j, 75.0 + j, 7.5 * j - 20.0, 30.0 + j % 4)
             for j in grid.signals]
    net = RoadNetwork(grid.junctions, list(grid.links), plans)
    net = net.with_bus_lanes(lk.id for lk in net.links if lk.id % 3 == 0)
    assert any(lk.lanes_dbl for lk in net.links)
    assert all(plan.offset_s for plan in net.signals.values())
    save_network(net, tmp_path / "net.txt")
    assert_same_network(load_network(tmp_path / "net.txt"), net)


def test_random_networks_round_trip_field_by_field(tmp_path):
    """Scattered junctions, dead ends and boundary flags set at random."""
    rng = np.random.default_rng(31)
    path = tmp_path / "net.txt"
    checked = 0
    while checked < 24:
        net = random_network(rng)
        if net is None:
            continue
        checked += 1
        net = RoadNetwork(net.junctions, [
            replace(lk, is_boundary_in=bool(rng.random() < 0.5),
                    is_boundary_out=bool(rng.random() < 0.5))
            for lk in net.links])
        save_network(net, path)
        assert_same_network(load_network(path), net)


def test_grid_2x2_all_links_boundary():
    net = generate_grid_network(2, 2, 100.0, 2)
    assert net.n_links == 8
    assert all(lk.is_boundary_in and lk.is_boundary_out for lk in net.links)


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (5, 5), (4, 7)])
def test_grid_link_count_closed_form(rows, cols):
    net = generate_grid_network(rows, cols, 100.0, 2)
    assert net.n_links == 2 * (2 * rows * cols - rows - cols)
    assert len(net.junctions) == rows * cols


def test_grid_rejects_single_row():
    with pytest.raises(NetworkError):
        generate_grid_network(1, 5, 100.0, 2)


def edges(graph: LinkGraph) -> list[tuple[int, int]]:
    return list(zip(graph.src.tolist(), graph.dst.tolist()))


def test_link_graph_single_link():
    junctions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    net = RoadNetwork(junctions, [Link(0, 0, 1, 50.0, 1, 0, 25.0)])
    graph = build_link_graph(net)
    assert edges(graph) == [(0, 0)]
    assert graph.seg_start.tolist() == [0]
    assert graph.n_links == 1


def test_link_graph_chain():
    graph = build_link_graph(two_link_chain())
    assert edges(graph) == [(0, 0), (0, 1), (1, 1)]
    assert graph.seg_start.tolist() == [0, 2]


def test_link_graph_matches_junction_scan_oracle():
    net = generate_grid_network(5, 5, 100.0, 3)
    graph = build_link_graph(net)
    # oracle: pairwise scan over links sharing exactly one junction
    # head-to-tail (a reverse twin shares both, so it is no movement)
    expect = []
    for i, a in enumerate(net.links):
        for j, b in enumerate(net.links):
            shared_one = a.to_junction == b.from_junction and not (
                b.to_junction == a.from_junction
                and b.from_junction == a.to_junction)
            if i == j or shared_one:
                expect.append((i, j))
    assert edges(graph) == expect    # the scan's order is (src, dst)
    starts = [next(e for e, (i, _) in enumerate(expect) if i == link)
              for link in range(net.n_links)]
    assert graph.seg_start.tolist() == starts


def test_connectivity_pairs_share_exactly_one_junction():
    net = generate_grid_network(4, 4, 100.0, 2)
    for a_id, b_id in net.connectivity:
        a, b = net.link(a_id), net.link(b_id)
        shared = {a.from_junction, a.to_junction} & \
            {b.from_junction, b.to_junction}
        assert len(shared) == 1


def test_adjacency_lists_hold_each_pair_once_in_id_order():
    # shortest_path's tie rule reads up_of in ascending link-id order
    rng = np.random.default_rng(17)
    for _ in range(30):
        net = random_network(rng)
        if net is None:
            continue
        idx, ids = net.index, net.link_ids()
        down = [(ids[u], ids[v]) for u, vs in enumerate(idx.down_of) for v in vs]
        up = [(ids[u], ids[v]) for v, us in enumerate(idx.up_of) for u in us]
        assert down == list(net.connectivity)
        assert up == sorted(net.connectivity, key=lambda p: (p[1], p[0]))


def test_link_graph_keeps_each_edge_once_and_is_read_only():
    # pairs given twice, out of order and with self-loops of their own
    graph = LinkGraph.of_pairs(4, [3, 0, 2, 0, 1, 3], [0, 2, 2, 2, 1, 0])
    assert edges(graph) == [(0, 0), (0, 2), (1, 1), (2, 2), (3, 0), (3, 3)]
    assert graph.seg_start.tolist() == [0, 2, 3, 4]
    for arr in (graph.src, graph.dst, graph.seg_start):
        assert not arr.flags.writeable


def test_extract_features_direct_mapping():
    # star: two links into 0->1 junction geometry built explicitly
    junctions = {i: (float(i), 0.0) for i in range(6)}
    links = [
        Link(0, 0, 2, 100.0, 3, 1, 25.0),                      # the probe link
        Link(1, 1, 0, 80.0, 2, 1, 25.0),                       # upstream, has DBL
        Link(2, 3, 0, 80.0, 2, 0, 25.0),                       # upstream
        Link(3, 2, 4, 80.0, 2, 0, 25.0),                       # downstream
        Link(4, 2, 5, 80.0, 2, 0, 25.0),                       # downstream
    ]
    # junction layout: link 0 runs 0 -> 2; feeders end at 0; receivers leave 2
    net = RoadNetwork(junctions, links)
    feats = extract_features(net, partition={0: 2, 1: 0, 2: 0, 3: 0, 4: 0})
    assert feats[0].tolist() == [100.0, 3, 1, 2, 2, 0, 0, 1, 0, 2]


def test_extract_features_isolated_link():
    junctions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    net = RoadNetwork(junctions, [Link(0, 0, 1, 50.0, 2, 1, 25.0)])
    feats = extract_features(net, None)
    assert feats[0].tolist() == [50.0, 2, 1, 0, 0, 0, 0, 0, 0, 0]


def test_extract_features_missing_label_names_link():
    net = two_link_chain()
    with pytest.raises(NetworkError, match="link 1"):
        extract_features(net, partition={0: 0})


def test_feature_counts_match_recount_oracle():
    net = generate_grid_network(5, 5, 100.0, 3)
    part = {lk.id: lk.id % 4 for lk in net.links}
    feats = extract_features(net, part)
    for zi, lk in enumerate(net.links):
        ups = [b for (b, c) in net.connectivity if c == lk.id]
        downs = [c for (b, c) in net.connectivity if b == lk.id]
        assert feats[zi, 3] == len(ups)
        assert feats[zi, 4] == len(downs)
        assert feats[zi, 5] == sum(net.link(u).is_boundary_in for u in ups)
        assert feats[zi, 6] == sum(net.link(d).is_boundary_out for d in downs)
        assert feats[zi, 9] == part[lk.id]


def test_feature_extraction_is_stable(tmp_path):
    net = generate_grid_network(4, 5, 120.0, 2)
    part = {lk.id: (lk.id * 7) % 4 for lk in net.links}
    f1 = extract_features(net, part)
    save_network(net, tmp_path / "n.txt")
    f2 = extract_features(load_network(tmp_path / "n.txt"), part)
    assert np.array_equal(f1, f2)


def test_minmax_endpoints():
    m = np.array([[2.0], [4.0], [6.0]])
    out = fit_minmax(m).apply(m)
    assert out.ravel().tolist() == [0.0, 0.5, 1.0]


def test_minmax_constant_column_maps_to_zero():
    m = np.array([[5.0], [5.0]])
    out = fit_minmax(m).apply(m)
    assert out.ravel().tolist() == [0.0, 0.0]


def test_minmax_round_trip_inversion():
    rng = np.random.default_rng(7)
    m = rng.uniform(-5, 9, size=(20, 10))
    stats = fit_minmax(m)
    out = stats.apply(m)
    assert np.max(np.abs(minmax_unscale(out, stats.lo, stats.hi) - m)) < 1e-12


def test_minmax_training_columns_hit_exact_bounds():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(50, 6))
    out = fit_minmax(m).apply(m)
    assert np.allclose(out.min(axis=0), 0.0)
    assert np.allclose(out.max(axis=0), 1.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_frozen_stats_apply_to_new_data():
    train = np.array([[0.0, 10.0], [10.0, 20.0]])
    stats = fit_minmax(train)
    applied = stats.apply(np.array([[5.0, 15.0]]))
    assert applied.tolist() == [[0.5, 0.5]]


def test_with_bus_lanes_respects_lane_invariant():
    net = generate_grid_network(3, 3, 100.0, 2)
    first = net.links[0].id
    mod = net.with_bus_lanes([first])
    assert mod.link(first).lanes_dbl == 1
    assert net.with_bus_lanes(()) is net
    one_lane = RoadNetwork({0: (0, 0), 1: (1, 0)}, [Link(0, 0, 1, 50.0, 1, 0, 25.0)])
    with pytest.raises(NetworkError):
        one_lane.with_bus_lanes([0])
