import re

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


def test_two_links_one_connectivity_pair(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(
        "JUNCTION 0 0 0\nJUNCTION 1 100 0\nJUNCTION 2 200 0\n"
        "LINK 0 0 1 100 2 0 25\nLINK 1 1 2 100 2 0 25\n"
    )
    net = load_network(path)
    assert net.connectivity == ((0, 1),)
    # inferred boundary flags: no upstream -> boundary-in, no downstream -> out
    assert net.link(0).is_boundary_in and not net.link(0).is_boundary_out
    assert net.link(1).is_boundary_out and not net.link(1).is_boundary_in


def test_load_rejects_dbl_equal_lanes(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("JUNCTION 0 0 0\nJUNCTION 1 1 0\nLINK 0 0 1 100 2 2 25\n")
    with pytest.raises(NetworkError):
        load_network(path)


def test_load_rejects_dangling_junction(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("JUNCTION 0 0 0\nLINK 0 0 9 100 2 0 25\n")
    with pytest.raises(NetworkError):
        load_network(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("JUNCTION 0 0 0\nLINK zero 0 1 100\n")
    with pytest.raises(NetworkError, match=":2"):
        load_network(path)


@pytest.mark.parametrize("kind,field", [
    ("JUNCTION", 2), ("JUNCTION", 3), ("LINK", 4), ("LINK", 7),
    ("SIGNAL", 2), ("SIGNAL", 3), ("SIGNAL", 4)])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_field_not_finite_names_the_file_and_line(tmp_path, kind, field, value):
    path = tmp_path / "net.txt"
    save_network(generate_grid_network(3, 3, 100.0, 2), path)
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(kind))
    parts = lines[i].split()
    parts[field] = value
    lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NetworkError,
                       match=f"{re.escape(str(path))}:{i + 1}: .*{value}"):
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


def test_random_networks_without_flags_reload_with_inferred_flags(tmp_path):
    # a LINK line without flags gets boundary-in = no upstream links and
    # boundary-out = no downstream links; a line with flags keeps its own
    rng = np.random.default_rng(31)
    path, again = tmp_path / "net.txt", tmp_path / "again.txt"
    checked = 0
    while checked < 40:
        net = random_network(rng)
        if net is None:
            continue
        checked += 1
        save_network(net, path)
        lines = path.read_text().splitlines()
        links = [ln for ln in lines if ln.startswith("LINK")]
        rng.shuffle(links)  # file order is not link-id order
        explicit = {int(ln.split()[1]) for ln in links[::3]}
        links = [ln[:-4] + " 1 1" if int(ln.split()[1]) in explicit
                 else ln[:-4] for ln in links]
        path.write_text("\n".join(
            [ln for ln in lines if not ln.startswith("LINK")] + links) + "\n")
        loaded = load_network(path)
        has_up = {b for _, b in net.connectivity}
        has_down = {a for a, _ in net.connectivity}
        for lk in loaded.links:
            assert lk.is_boundary_in == (lk.id in explicit or lk.id not in has_up)
            assert lk.is_boundary_out == (lk.id in explicit
                                          or lk.id not in has_down)
        save_network(loaded, path)
        save_network(load_network(path), again)
        assert path.read_bytes() == again.read_bytes()


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
