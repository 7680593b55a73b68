import itertools
import json
import re

import numpy as np
import pytest

from lcftraffic.network import generate_grid_network
from lcftraffic.partition import (PartitionParams, build_cluster_points, kmeans,
                                  load_partition, partition_network,
                                  peak_window_speed, save_partition)
from lcftraffic.simulate import SimRecord


def fake_record(speeds: np.ndarray) -> SimRecord:
    w, z = speeds.shape
    return SimRecord(link_ids=tuple(range(z)), window_s=180.0, step_s=5.0,
                     speeds=speeds, accumulation=np.ones_like(speeds),
                     outflow=np.ones_like(speeds),
                     mean_speed=speeds.mean(axis=1),
                     production=np.ones(w), total_accumulation=np.ones(w))


def test_peak_window_speed_degenerate_window():
    rec = fake_record(np.arange(50, dtype=float).reshape(10, 5))
    assert peak_window_speed(rec, 2, t_max=4, t_window=0) == rec.speeds[4, 2]


def test_peak_window_speed_mean():
    speeds = np.zeros((5, 1))
    speeds[:, 0] = [5.0, 10.0, 20.0, 30.0, 40.0]
    rec = fake_record(speeds)
    assert peak_window_speed(rec, 0, t_max=2, t_window=1) == 20.0


def test_peak_window_speed_clips_to_bounds():
    rec = fake_record(np.tile(np.array([[7.0]]), (6, 1)))
    assert peak_window_speed(rec, 0, t_max=0, t_window=3) == 7.0
    with pytest.raises(ValueError):
        peak_window_speed(rec, 0, t_max=50, t_window=2)


def test_reference_defaults_cover_windows_38_to_42():
    speeds = np.zeros((120, 1))
    speeds[38:43, 0] = [10.0, 20.0, 30.0, 40.0, 50.0]
    rec = fake_record(speeds)
    assert peak_window_speed(rec, 0, t_max=40, t_window=2) == 30.0


def test_cluster_points_weighting():
    net = generate_grid_network(3, 3, 100.0, 2)
    rec = fake_record(np.tile(np.linspace(5, 25, net.n_links), (45, 1)))
    pts = build_cluster_points(net, rec, alpha=1.0, beta=1.5, t_window=2, t_max=40)
    assert pts.shape == (net.n_links, 3)
    assert pts[:, :2].max() <= 1.0 and pts[:, :2].min() >= 0.0
    assert pts[:, 2].max() == pytest.approx(1.5)
    # weight-zero ablations
    geo = build_cluster_points(net, rec, 1.0, 0.0, 2, 40)
    assert np.all(geo[:, 2] == 0.0)
    spd = build_cluster_points(net, rec, 0.0, 1.0, 2, 40)
    assert np.all(spd[:, :2] == 0.0)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def wcss(points, labels, centroids):
    return float(((points - centroids[labels]) ** 2).sum())


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    points = np.vstack([c + rng.normal(scale=0.3, size=(20, 2)) for c in centers])
    labels, _ = kmeans(points, 4, seed=3)
    blocks = [set(labels[i * 20:(i + 1) * 20]) for i in range(4)]
    assert all(len(b) == 1 for b in blocks)
    assert len(set.union(*blocks)) == 4


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(30, 3))
    labels, centroids = kmeans(points, 1, seed=0)
    assert np.all(labels == 0)
    assert np.allclose(centroids[0], points.mean(axis=0))


def test_kmeans_beats_or_matches_exhaustive_two_partition():
    """Brute-force oracle: enumerate all 2-cluster assignments of 8 points."""
    rng = np.random.default_rng(7)
    for trial in range(10):
        points = rng.uniform(0, 1, size=(8, 2))
        best = np.inf
        for bits in itertools.product([0, 1], repeat=8):
            labels = np.array(bits)
            if labels.min() == labels.max():
                continue
            cents = np.array([points[labels == c].mean(axis=0) for c in (0, 1)])
            best = min(best, wcss(points, labels, cents))
        labels, centroids = kmeans(points, 2, seed=trial)
        assert wcss(points, labels, centroids) <= best + 1e-9


def test_kmeans_rejects_too_few_points():
    with pytest.raises(ValueError,
                       match=r"at least k = 3 points, got shape \(2, 2\)"):
        kmeans(np.zeros((2, 2)), 3, seed=0)


def test_kmeans_deterministic_and_objective_monotone():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(60, 3))
    l1, c1 = kmeans(points, 5, seed=42)
    l2, c2 = kmeans(points, 5, seed=42)
    assert np.array_equal(l1, l2)
    assert np.array_equal(c1, c2)


def test_kmeans_objective_never_increases():
    # re-run Lloyd manually from the same init and assert monotonicity
    from lcftraffic.partition import _kmeanspp_init
    rng_points = np.random.default_rng(2)
    points = rng_points.normal(size=(40, 2))
    centroids = _kmeanspp_init(points, 4, np.random.default_rng(5))
    prev = np.inf
    labels = np.zeros(len(points), dtype=int)
    for _ in range(25):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for c in range(4):
            if np.any(labels == c):
                centroids[c] = points[labels == c].mean(axis=0)
        obj = wcss(points, labels, centroids)
        assert obj <= prev + 1e-9
        prev = obj


def test_kmeans_every_cluster_non_empty():
    # adversarial: many duplicated points force empty-cluster repair
    points = np.vstack([np.zeros((20, 2)), np.ones((2, 2)) * 5])
    labels, _ = kmeans(points, 4, seed=0)
    assert len(set(labels.tolist())) == 4


def test_relabeling_permutation_invariance():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(25, 2))
    labels, centroids = kmeans(points, 3, seed=9)
    base = wcss(points, labels, centroids)
    perm = np.array([2, 0, 1])
    assert wcss(points, perm[labels], centroids[np.argsort(perm)]) == \
        pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# end-to-end partitioning
# ---------------------------------------------------------------------------

def test_partition_defaults_recorded():
    net = generate_grid_network(4, 4, 100.0, 2)
    rng = np.random.default_rng(0)
    rec = fake_record(rng.uniform(5, 25, size=(120, net.n_links)))
    part = partition_network(net, rec)
    p = part.params
    assert (p.k, p.alpha, p.beta, p.t_window, p.t_max) == (4, 1.0, 1.5, 2, 40)
    assert len(part.labels) == net.n_links
    assert all(c > 0 for c in part.region_sizes())


def test_partition_symmetric_halves_split_on_axis():
    # uniform geometry, two clear speed groups left/right of the grid
    net = generate_grid_network(4, 4, 100.0, 2)
    mids = np.array([net.midpoint(lk.id) for lk in net.links])
    fast = mids[:, 0] < 150.0
    speeds = np.where(fast, 25.0, 5.0)
    rec = fake_record(np.tile(speeds, (60, 1)))
    part = partition_network(net, rec, PartitionParams(k=2, t_max=30, seed=1))
    labels = np.array([part[lk.id] for lk in net.links])
    # all fast links share one label, all slow links the other
    assert len(set(labels[fast].tolist())) == 1
    assert len(set(labels[~fast].tolist())) == 1
    assert labels[fast][0] != labels[~fast][0]


def test_partition_k_equals_links():
    net = generate_grid_network(2, 2, 100.0, 2)
    rng = np.random.default_rng(8)
    rec = fake_record(rng.uniform(5, 25, size=(60, net.n_links)))
    part = partition_network(net, rec, PartitionParams(k=net.n_links, t_max=30))
    assert sorted(part.labels.values()) == list(range(net.n_links))


def test_partition_same_seed_identical_labels():
    net = generate_grid_network(4, 4, 100.0, 2)
    rng = np.random.default_rng(2)
    rec = fake_record(rng.uniform(5, 25, size=(90, net.n_links)))
    p1 = partition_network(net, rec, PartitionParams(seed=5))
    p2 = partition_network(net, rec, PartitionParams(seed=5))
    assert p1.labels == p2.labels


def test_partition_file_round_trip(tmp_path):
    net = generate_grid_network(3, 3, 100.0, 2)
    rng = np.random.default_rng(6)
    rec = fake_record(rng.uniform(5, 25, size=(60, net.n_links)))
    part = partition_network(net, rec, PartitionParams(k=3, t_max=20, seed=2))
    path = tmp_path / "part.json"
    save_partition(part, path)
    loaded = load_partition(path)
    assert loaded.labels == part.labels
    assert loaded.params == part.params
    assert loaded.centroids.tobytes() == part.centroids.tobytes()
    save_partition(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("field,value,rule", [
    ("k", 0, ">= 1"), ("k", 2.0, "an int"), ("alpha", float("nan"), "finite"),
    ("beta", float("inf"), "finite"), ("t_max", -1, ">= 0"),
    ("seed", True, "an int")],
    ids=["k-0", "k-2.0", "alpha-nan", "beta-inf", "t_max--1", "seed-True"])
def test_partition_params_reject_out_of_range_values(field, value, rule):
    expected = f"{field} must be {rule}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        PartitionParams(**{field: value})


@pytest.mark.parametrize("case", ["region without label", "missing param",
                                  "bad param value", "bad centroid",
                                  "unknown record", "label of no region",
                                  "negative label", "text partition",
                                  "cut-off file"])
def test_load_partition_names_file_and_line_or_key(tmp_path, case):
    net = generate_grid_network(3, 3, 100.0, 2)
    rec = fake_record(np.random.default_rng(6).uniform(5, 25, size=(60, net.n_links)))
    path = tmp_path / "part.json"
    save_partition(partition_network(net, rec, PartitionParams(k=3, t_max=20)),
                   path)
    doc = json.loads(path.read_text())
    region = next(i for i, (link_id, _) in enumerate(doc["labels"]) if link_id == 5)
    text = None
    if case == "region without label":
        doc["labels"][region] = [5]
        expected = f"{path}: labels[{region}] must be a tuple[int, int], got (5,)"
    elif case == "missing param":
        del doc["params"]["k"]
        expected = f"{path}: params: no key 'k'"
    elif case == "bad param value":
        doc["params"]["alpha"] = "one"
        expected = f"{path}: params: alpha must be a float, got 'one'"
    elif case == "bad centroid":
        doc["centroids"][1][2] = "y"
        expected = f"{path}: centroids[1][2] must be a float, got 'y'"
    elif case in ("label of no region", "negative label"):
        # MFD-P would leave such a link at 0 km/h
        label = 7 if case == "label of no region" else -1
        doc["labels"][region][1] = label
        expected = f"{path}: labels: link 5 has region label {label}, outside 0..2"
    elif case == "text partition":    # the format of earlier versions
        text = "# network partition\nPARAM k 3\nREGION 5 1\n"
        expected = (f"{path}: not a JSON file (Expecting value: line 1 column 1 "
                    "(char 0)); regenerate it with lcftraffic partition")
    elif case == "cut-off file":
        text = path.read_text()[:40]
        expected = f"{path}: not a JSON file (Expecting"
    else:
        doc["boundary"] = [5]
        expected = f"{path}: unknown key 'boundary'"
    path.write_text(json.dumps(doc) if text is None else text)
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_partition(path)
