"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The scaled-down comparison criteria share one fixed-seed toy corpus
(5x5 grid, 20 scenarios, 7:1:2 split) built once per session.
"""

import itertools
import time

import numpy as np
import pytest

from lcftraffic import nn
from lcftraffic.baselines import region_mean_speeds
from lcftraffic.cli import main as cli_main
from lcftraffic.evaluate import shortest_path
from lcftraffic.harness import (evaluate_speed_split,
                                evaluate_travel_time_split)
from lcftraffic.model import LcfModel, ModelConfig, TrainConfig, train
from lcftraffic.network import (Link, RoadNetwork, build_link_graph,
                                extract_features, generate_grid_network)
from lcftraffic.partition import PartitionParams, kmeans, partition_network
from lcftraffic.scenarios import ODMatrix, Scenario, build_dataset, random_base_od
from lcftraffic.simulate import SimConfig, _window_stats, simulate

from dense_gat import graph_of
from gradcheck import grad_check


def announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS  {text}")


# ---------------------------------------------------------------------------
# shared toy corpus for the scaled-down comparisons (criteria 7-9)
# ---------------------------------------------------------------------------

TOY_SEED = 42
TOY_CFG = SimConfig(warmup_s=900.0, peak_s=5400.0, total_s=7200.0)


@pytest.fixture(scope="session")
def toy_corpus():
    net = generate_grid_network(5, 5, 100.0, 3, vff_kmh=25.0,
                                length_jitter=0.3, jitter_seed=11)
    base = random_base_od(net, 10, 150.0, seed=TOY_SEED)
    dataset = build_dataset(net, base, n=20, master_seed=TOY_SEED, cfg=TOY_CFG)
    part = partition_network(net, dataset.records[dataset.splits["train"][0]],
                             PartitionParams(seed=TOY_SEED, t_max=20))
    t0 = time.perf_counter()
    model, _history = train(net, dataset, part,
                            ModelConfig(output_type="Speed", seed=TOY_SEED),
                            TrainConfig(epochs=80, window_stride=1))
    reports, _ = evaluate_speed_split(net, dataset, part,
                                      ["MFD", "GAT-GRU-P"],
                                      {"GAT-GRU-P": model})
    train_eval_s = time.perf_counter() - t0
    return {"net": net, "dataset": dataset, "partition": part, "model": model,
            "speed_reports": reports, "train_eval_s": train_eval_s}


# ---------------------------------------------------------------------------
# 1. conservation on the reference schedule
# ---------------------------------------------------------------------------

def test_01_conservation_full_schedule():
    net = generate_grid_network(5, 5, 100.0, 3, vff_kmh=25.0,
                                length_jitter=0.3, jitter_seed=11)
    base = random_base_od(net, 10, 250.0, seed=1)
    sc = Scenario(id=0, od=base, scale=1.0, bus_links=(), seed=1)
    cfg = SimConfig()  # 900 s warmup, 6300 s peak, 21600 s total
    t0 = time.perf_counter()
    record = simulate(net, sc, cfg)
    elapsed = time.perf_counter() - t0
    assert record.balance_error < 1e-6
    assert record.n_windows == 120
    assert elapsed < 10.0
    announce(1, f"balance error {record.balance_error:.2e} veh over 120 "
                f"windows in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. free-flow regime
# ---------------------------------------------------------------------------

def test_02_free_flow_every_window():
    # one-step link traversal (50 m at 36 km/h, 5 s steps), no signals
    net = generate_grid_network(5, 5, 50.0, 2, vff_kmh=36.0,
                                with_signals=False)
    ids = net.link_ids()
    # saturation is 1 veh/s per approach; two 180 veh/h pairs = 0.1 veh/s
    od = ODMatrix(pairs=((ids[0], ids[45]), (ids[33], ids[8])),
                  rates=(180.0, 180.0))
    sc = Scenario(id=0, od=od, scale=1.0, bus_links=(), seed=0)
    cfg = SimConfig(total_s=3600.0, warmup_s=600.0, peak_s=2400.0)
    record = simulate(net, sc, cfg)
    worst = float(np.abs(record.speeds - 36.0).max())
    assert worst < 1e-9
    assert record.completed.sum() > 0
    announce(2, f"all {record.n_windows} windows at v_ff, max deviation "
                f"{worst:.2e} km/h")


# ---------------------------------------------------------------------------
# 3. window-speed formula unit test
# ---------------------------------------------------------------------------

def test_03_window_speed_hand_example():
    cfg = SimConfig()  # 5 s steps
    # one 500 m, 25 km/h link; 36 steps of 1 veh outflow, 10 veh present
    speeds = _window_stats(np.array([0.5]), np.array([25.0]), cfg,
                           np.array([np.ones(36).sum()]),
                           np.array([np.full(36, 10.0).sum()]))
    v = speeds[0]
    # raw value: 36 veh * 0.5 km / 360 veh-steps * 720 steps/h = 36 km/h
    assert v == 25.0
    announce(3, "36 veh * 0.5 km / 360 -> raw 36 km/h, clamped to 25 km/h")


# ---------------------------------------------------------------------------
# 4. gradient fidelity
# ---------------------------------------------------------------------------

def test_04_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)

    def primitive_error(name, fn, shape=(5, 4)):
        p = nn.Tensor(rng.normal(size=shape), requires_grad=True)
        target = nn.constant(rng.normal(size=fn(p).data.shape))
        return grad_check(lambda: nn.mse_loss(fn(p), target), [p], eps=1e-6)

    w = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    other = nn.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    primitives = {
        "matmul": lambda p: nn.matmul(p, w),
        "add": lambda p: nn.add(p, other),
        "mul": lambda p: nn.mul(p, other),
        "concat": lambda p: nn.concat([p, other], axis=1),
        "relu": nn.relu,
        "leaky_relu": lambda p: nn.leaky_relu(p, 0.2),
        "sigmoid": nn.sigmoid,
        "tanh": nn.tanh,
        # edge-list attention: rows 0 and 2 read twice, row 3 never
        "gather": lambda p: nn.gather(p, np.array([0, 2, 2, 4, 1, 0])),
        "segment_softmax": lambda p: nn.segment_softmax(p, np.array([0, 2])),
        "segment_sum": lambda p: nn.segment_sum(p, np.array([0, 1, 3])),
    }
    worst_primitive = 0.0
    for name, fn in primitives.items():
        err = primitive_error(name, fn)
        assert err < 1e-6, f"{name}: {err}"
        worst_primitive = max(worst_primitive, err)

    # end-to-end estimator on a 4-node toy
    model = LcfModel(ModelConfig(heads=2, hidden_dim=3, fc_hidden=(6,), seed=4,
                                 dtype="float64"))
    n = 4
    graph = graph_of(rng.random((n, n)) < 0.5)
    feats = rng.uniform(0, 1, size=(n, 10))
    hist = rng.uniform(0, 1, size=(2, 5))
    target = nn.constant(rng.uniform(0, 1, size=(2 * n, 1)))

    def closure():
        return nn.mse_loss(model.forward(feats, graph, hist), target)

    err_model = grad_check(closure, model.parameters(), eps=1e-6)
    elapsed = time.perf_counter() - t0
    assert err_model < 1e-4
    assert elapsed < 30.0
    announce(4, f"primitives max rel err {worst_primitive:.2e} (< 1e-6), "
                f"end-to-end {err_model:.2e} (< 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. attention normalization
# ---------------------------------------------------------------------------

def test_05_attention_rows_sum_to_one():
    net = generate_grid_network(3, 3, 100.0, 2)
    graph = build_link_graph(net)
    feats = extract_features(net, None)
    feats = feats / np.maximum(feats.max(axis=0), 1.0)
    worst = 0.0
    for seed in range(1000):
        model = LcfModel(ModelConfig(heads=1, hidden_dim=4, fc_hidden=(4,),
                                     seed=seed))
        # each link's coefficients, one per edge, summed over its segment
        edge_att = model.attention_matrix(feats, graph)[graph.src, graph.dst]
        sums = np.add.reduceat(edge_att, graph.seg_start)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    assert worst < 1e-12
    announce(5, f"1000 random draws, worst row-sum deviation {worst:.2e} "
                f"over {len(graph.src)} edges")


# ---------------------------------------------------------------------------
# 6. oracle equivalence
# ---------------------------------------------------------------------------

def brute_force_cost(net, tau, origin, dest):
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


def test_06_routing_and_clustering_oracles():
    rng = np.random.default_rng(6)
    checked = 0
    for _trial in range(100):
        n_junc = int(rng.integers(4, 8))
        junctions = {i: (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
                     for i in range(n_junc)}
        links, lid = [], 0
        for a in range(n_junc):
            for b in range(n_junc):
                if a != b and rng.random() < 0.35:
                    links.append(Link(lid, a, b, float(rng.uniform(50, 400)),
                                      2, 0, 25.0))
                    lid += 1
        if len(links) < 2:
            continue
        net = RoadNetwork(junctions, links)
        speeds = rng.uniform(5.0, 25.0, size=net.n_links)
        tau = np.array([lk.length_m for lk in net.links]) / (speeds / 3.6)
        ids = net.link_ids()
        o, d = rng.choice(net.n_links, size=2, replace=False)
        path = shortest_path(net, speeds, ids[int(o)], ids[int(d)])
        oracle = brute_force_cost(net, tau, ids[int(o)], ids[int(d)])
        if path is None:
            assert oracle is None
        else:
            cost = 0.0
            for z in path:
                cost += tau[net.link_index(z)]
            assert cost == oracle  # identical accumulation order: exact
        checked += 1

    def wcss(points, labels, cents):
        return float(((points - cents[labels]) ** 2).sum())

    for trial in range(20):
        points = rng.uniform(0, 1, size=(8, 2))
        best = np.inf
        for bits in itertools.product([0, 1], repeat=8):
            labels = np.array(bits)
            if labels.min() == labels.max():
                continue
            cents = np.array([points[labels == c].mean(axis=0) for c in (0, 1)])
            best = min(best, wcss(points, labels, cents))
        labels, cents = kmeans(points, 2, seed=trial)
        assert wcss(points, labels, cents) <= best + 1e-9
    announce(6, f"routing equals exhaustive enumeration on {checked} graphs; "
                f"k-means matches the exhaustive 2-partition optimum")


# ---------------------------------------------------------------------------
# 7. scaled-down estimator-vs-MFD comparison
# ---------------------------------------------------------------------------

def test_07_estimator_beats_mfd_baseline(toy_corpus):
    mfd, ggp = toy_corpus["speed_reports"]
    assert mfd.model == "MFD" and ggp.model == "GAT-GRU-P"
    assert ggp.mae <= 0.6 * mfd.mae
    assert toy_corpus["train_eval_s"] < 900.0
    announce(7, f"test MAE {ggp.mae:.3f} vs MFD {mfd.mae:.3f} km/h "
                f"(ratio {ggp.mae / mfd.mae:.3f} <= 0.6), train+eval "
                f"{toy_corpus['train_eval_s']:.0f}s")


# ---------------------------------------------------------------------------
# 8. partition refinement property
# ---------------------------------------------------------------------------

def test_08_partition_refinement(toy_corpus):
    dataset = toy_corpus["dataset"]
    part = toy_corpus["partition"]
    for sid, rec in dataset.records.items():
        labels = np.array([part[lid] for lid in rec.link_ids])
        sse_region = 0.0
        sse_global = 0.0
        for t in range(rec.n_windows):
            speeds = rec.speeds[t]
            # unit accumulations: the regions' arithmetic means
            regional = region_mean_speeds(speeds, np.ones_like(speeds), labels,
                                          part.params.k)
            sse_region += float(((speeds - regional) ** 2).sum())
            sse_global += float(((speeds - speeds.mean()) ** 2).sum())
        assert sse_region <= sse_global * (1 + 1e-12) + 1e-9, sid
    announce(8, f"regional arithmetic means never worse than the global mean "
                f"on all {len(dataset.records)} records")


# ---------------------------------------------------------------------------
# 9. scaled-down travel-time comparison
# ---------------------------------------------------------------------------

def test_09_travel_time_experiment(toy_corpus):
    net = toy_corpus["net"]
    dataset = toy_corpus["dataset"]
    part = toy_corpus["partition"]
    model = toy_corpus["model"]
    reports, _ = evaluate_travel_time_split(
        net, dataset, part, ["TRUTH", "MFD", "GAT-GRU-P"],
        {"GAT-GRU-P": model}, n_trips=200, seed=7, warmup_windows=5)
    truth, mfd, ggp = reports
    assert truth.mae == 0.0
    assert ggp.mae < mfd.mae
    announce(9, f"truth-as-prediction MAE 0 exactly; trip MAE "
                f"{ggp.mae:.1f}s < MFD {mfd.mae:.1f}s over 200 trips")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------

def test_10_pipeline_determinism(tmp_path):
    sim = ["--step", "5", "--window", "60", "--warmup", "120", "--peak",
           "240", "--total", "600"]
    train_args = ["--epochs", "2", "--hidden", "8", "--fc-dims", "16,8",
                  "--stride", "2"]
    for out in (str(tmp_path / "a"), str(tmp_path / "b")):
        assert cli_main(["gen-network", "--out", out, "--grid", "3x3",
                         "--lanes", "2"]) == 0
        assert cli_main(["gen-dataset", "--out", out, "--scenarios", "10",
                         "--od-pairs", "4", "--od-rate", "400", "--seed", "3"]
                        + sim) == 0
        assert cli_main(["partition", "--out", out, "--t-max", "5",
                         "--seed", "3"]) == 0
        assert cli_main(["train", "--out", out, "--model", "gat-gru-p",
                         "--seed", "3"] + train_args) == 0
        assert cli_main(["evaluate", "--out", out, "--seed", "3",
                         "--models", "MFD,MFD-P,LR,GAT-GRU-P"]
                        + train_args) == 0
        assert cli_main(["travel-time", "--out", out, "--trips", "30",
                         "--seed", "3", "--models", "MFD,GAT-GRU-P"]
                        + train_args) == 0
        assert cli_main(["report", "--out", out]) == 0
    compared = 0
    for rel in ("network.txt", "od.txt", "dataset/manifest.json",
                "dataset/scenario_000/links.csv", "partition.json",
                "models/gat-gru-p.ckpt", "reports/speed/report_table.csv",
                "reports/speed/hist_MFD.csv", "reports/speed/hist_MFD.svg",
                "reports/travel_time/report_table.csv",
                "reports/report_table.csv"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel
        compared += 1
    announce(10, f"two pipeline runs byte-identical across {compared} "
                 f"artifacts (manifest, checkpoint, reports)")
