import gc
import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lcftraffic import model as model_module
from lcftraffic import nn
from lcftraffic.model import (LcfModel, ModelConfig, Normalization, TrainConfig,
                              config_from_name, decode_output, encode_targets,
                              load_model, pad_history, save_model, train)
from lcftraffic.network import (MinMaxStats, RoadNetwork, build_link_graph,
                                extract_features, fit_minmax,
                                generate_grid_network)
from lcftraffic.partition import PartitionParams, partition_network
from lcftraffic.scenarios import build_dataset, random_base_od
from lcftraffic.simulate import SimConfig

import taped_ops as tape
from ckptfaults import FAULTS, plant, read_checkpoint, write_checkpoint
from dense_gat import dense_spatial_embed, graph_of, mask_of
from gradcheck import fd_error
from taped_ops import Tensor, backward, constant


def tiny_config(**kw):
    base = dict(heads=1, hidden_dim=2, fc_hidden=(4,), seed=0)
    base.update(kw)
    return ModelConfig(**base)


def gat_oracle(feats, adj, w, a_src, a_dst, slope=0.2):
    """Independent attention-layer evaluation with explicit loops."""
    n = feats.shape[0]
    wh = feats @ w
    out = np.zeros_like(wh)
    for i in range(n):
        neigh = [j for j in range(n) if adj[i, j]]
        scores = []
        for j in neigh:
            e = float(a_src.ravel() @ wh[i] + a_dst.ravel() @ wh[j])
            scores.append(e if e > 0 else slope * e)
        scores = np.array(scores)
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        agg = sum(al * wh[j] for al, j in zip(alpha, neigh))
        out[i] = np.maximum(agg, 0.0)
    return out


# ---------------------------------------------------------------------------
# attention layer
# ---------------------------------------------------------------------------

def test_gat_two_node_hand_values():
    model = LcfModel(tiny_config(dtype="float64"))
    w = np.zeros((10, 2))
    w[0] = [1.0, 2.0]
    w[1] = [3.0, 4.0]
    model.params["gat.h0.W"] = w
    model.params["gat.h0.a_src"] = np.array([[1.0], [-1.0]])
    model.params["gat.h0.a_dst"] = np.array([[0.5], [0.5]])
    feats = np.zeros((2, 10))
    feats[0, 0] = 1.0
    feats[1, 1] = 1.0
    adj = np.ones((2, 2), dtype=bool)
    out = model.spatial_embed(feats, graph_of(adj))
    frozen = np.array([[2.7615941559557644, 3.7615941559557644],
                       [2.7615941559557644, 3.7615941559557644]])
    assert np.max(np.abs(out - frozen)) < 1e-12
    oracle = gat_oracle(feats, adj, w, model.params["gat.h0.a_src"],
                        model.params["gat.h0.a_dst"])
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_gat_single_node_self_loop():
    model = LcfModel(tiny_config())
    model.params["gat.h0.a_src"][:] = 0.0
    model.params["gat.h0.a_dst"][:] = 0.0
    feats = np.zeros((1, 10))
    feats[0, :3] = [0.5, 1.0, -2.0]
    adj = np.ones((1, 1), dtype=bool)
    att = model.attention_matrix(feats, graph_of(adj))
    assert att[0, 0] == 1.0
    wh = feats @ model.params["gat.h0.W"]
    out = model.spatial_embed(feats, graph_of(adj))
    assert np.allclose(out, np.maximum(wh, 0.0))


def test_gat_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(12)
    for trial in range(5):
        model = LcfModel(tiny_config(hidden_dim=3, seed=trial, dtype="float64"))
        n = 6
        adj = rng.random((n, n)) < 0.4
        np.fill_diagonal(adj, True)
        feats = rng.normal(size=(n, 10))
        out = model.spatial_embed(feats, graph_of(adj))
        oracle = gat_oracle(feats, adj, model.params["gat.h0.W"],
                            model.params["gat.h0.a_src"],
                            model.params["gat.h0.a_dst"])
        assert np.max(np.abs(out - oracle)) < 1e-10


def test_attention_rows_sum_to_one_for_random_parameters():
    net = generate_grid_network(3, 3, 100.0, 2)
    graph = build_link_graph(net)
    feats = extract_features(net, None)
    feats = feats / np.maximum(feats.max(axis=0), 1.0)
    for seed in range(50):
        model = LcfModel(tiny_config(hidden_dim=4, seed=seed))
        att = model.attention_matrix(feats, graph)
        sums = np.add.reduceat(att[graph.src, graph.dst], graph.seg_start)
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert np.all(att[~mask_of(graph)] == 0.0)


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_float32_spatial_embed_is_the_dense_oracle_rounded(heads):
    """The mean over 1 to 3 heads on a random graph, computed in float64
    and cast to the float32 model dtype once."""
    rng = np.random.default_rng(40 + heads)
    model = LcfModel(tiny_config(heads=heads, hidden_dim=5, seed=heads))
    graph = graph_of(rng.random((9, 9)) < 0.3)
    feats = rng.uniform(0, 1, size=(9, 10)).astype(np.float32)
    out = model.spatial_embed(feats, graph)
    want = dense_spatial_embed(model, feats.astype(np.float64), graph)
    assert out.dtype == np.float32 and (want > 0).mean() > 0.3
    assert np.allclose(out, want, rtol=1e-6, atol=0.0)


def test_attention_matrix_rejects_a_head_the_model_lacks():
    feats = np.zeros((2, 10))
    graph = graph_of(np.ones((2, 2), dtype=bool))
    model = LcfModel(tiny_config(heads=2))
    for head in (2, -1):
        with pytest.raises(ValueError, match=rf"head {head} .* 2 heads"):
            model.attention_matrix(feats, graph, head=head)
    with pytest.raises(ValueError, match="dnn-gru-p model has no attention"):
        LcfModel(tiny_config(use_gat=False)).attention_matrix(feats, graph)


@pytest.mark.parametrize("heads", [1, 3])
def test_spatial_embed_is_one_attention_op_after_the_projections(heads):
    """Each head's projection feats @ W is one op on the chain, and the rest
    of the layer, every head and the mean, is one ``nn.gat`` after them,
    reading the projections and each head's a_src and a_dst."""
    model = LcfModel(tiny_config(heads=heads))
    chain = []
    model.spatial_embed(np.zeros((3, 10), np.float32),
                        graph_of(np.eye(3, dtype=bool)), chain)
    whs = [f"wh{k}" for k in range(heads)]
    assert [(out, list(ins)) for _, out, ins in chain] == [
        (wh, [None, f"gat.h{k}.W"]) for k, wh in enumerate(whs)] + [
        ("spatial", whs + [f"gat.h{k}.{name}" for name in ("a_src", "a_dst")
                           for k in range(heads)])]


# ---------------------------------------------------------------------------
# recurrent encoder
# ---------------------------------------------------------------------------

def test_gru_zero_weights_fixed_point():
    model = LcfModel(tiny_config(hidden_dim=3))
    for name in ("gru.Wz", "gru.Wr", "gru.Wc", "gru.bz", "gru.br", "gru.bc"):
        model.params[name][:] = 0.0
    hist = np.array([[0.3, -1.0, 0.8, 0.1, 0.9]])
    out = model.temporal_embed(hist)
    assert np.all(out == 0.0)


def test_gru_hand_recurrence_one_dim():
    model = LcfModel(tiny_config(hidden_dim=1, dtype="float64"))
    model.params["gru.Wz"] = np.array([[0.5], [1.0]])
    model.params["gru.bz"] = np.array([[0.1]])
    model.params["gru.Wr"] = np.array([[-0.3], [0.8]])
    model.params["gru.br"] = np.array([[-0.2]])
    model.params["gru.Wc"] = np.array([[0.7], [1.2]])
    model.params["gru.bc"] = np.array([[0.05]])
    hist = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
    out = model.temporal_embed(hist)
    # frozen value from the explicit gate-by-gate recurrence
    assert abs(out[0, 0] - 0.6287698233981815) < 1e-15

    sig = lambda v: 1 / (1 + math.exp(-v))
    h = 0.0
    for x in hist[0]:
        z = sig(0.5 * h + 1.0 * x + 0.1)
        r = sig(-0.3 * h + 0.8 * x - 0.2)
        hc = math.tanh(0.7 * (r * h) + 1.2 * x + 0.05)
        h = (1 - z) * h + z * hc
    assert abs(out[0, 0] - h) < 1e-15


def test_gru_saturated_update_gate_tracks_candidate():
    rng = np.random.default_rng(4)
    model = LcfModel(tiny_config(hidden_dim=3, seed=4, dtype="float64"))
    model.params["gru.bz"][:] = 50.0  # update gate pinned at 1
    hist = rng.uniform(0, 1, size=(2, 5))
    out = model.temporal_embed(hist)
    # oracle: with z == 1 the state is exactly the candidate each step
    wr = model.params["gru.Wr"]
    br = model.params["gru.br"]
    wc = model.params["gru.Wc"]
    bc = model.params["gru.bc"]
    h = np.zeros((2, 3))
    for t in range(5):
        x = hist[:, t:t + 1]
        r = 1 / (1 + np.exp(-(np.hstack([h, x]) @ wr + br)))
        h = np.tanh(np.hstack([r * h, x]) @ wc + bc)
    assert np.array_equal(out, h)


def test_gru_rejects_wrong_history_length():
    model = LcfModel(tiny_config())
    with pytest.raises(ValueError):
        model.temporal_embed(np.zeros((1, 4)))


def test_pad_history_sentinel():
    vn = np.array([0.25, 0.5, 0.75])
    assert pad_history(vn, 5)[0].tolist() == [-1, -1, -1, -1, 0.25]
    assert pad_history(vn, 5)[2].tolist() == [-1, -1, 0.25, 0.5, 0.75]


# ---------------------------------------------------------------------------
# fully connected head
# ---------------------------------------------------------------------------

def test_default_layer_widths():
    model = LcfModel(ModelConfig())
    dims = [model.params[f"fc.{i}.W"].shape for i in range(6)]
    assert dims == [(256, 384), (384, 256), (256, 128), (128, 64), (64, 32),
                    (32, 1)]
    assert model.params["gru.Wz"].shape == (129, 128)
    assert model.params["gat.h0.W"].shape == (10, 128)
    assert model.params["gat.h0.a_src"].shape == (128, 1)


def fuse_pairs(model, spatial, temporal):
    """The head over every (window, link) pair of these embeddings: ``fuse``
    on their ``nn.pair_halves``, as ``LcfModel.forward`` runs it."""
    return model.fuse(*nn.pair_halves(spatial, temporal, model.params["fc.0.W"],
                                      model.params["fc.0.b"]))


def test_zero_fc_weights_output_final_bias():
    model = LcfModel(tiny_config())
    for i in range(2):
        model.params[f"fc.{i}.W"][:] = 0.0
        model.params[f"fc.{i}.b"][:] = 0.0
    model.params["fc.1.b"][:] = 3.25
    spatial = np.random.default_rng(0).normal(size=(4, 2))
    temporal = np.zeros((2, 2))
    out = fuse_pairs(model, spatial, temporal)
    assert out.shape == (8, 1)
    assert np.all(out == 3.25)


def test_fuse_matches_independent_matrix_chain():
    rng = np.random.default_rng(3)
    model = LcfModel(tiny_config(hidden_dim=2, fc_hidden=(3,), seed=3))
    spatial = rng.normal(size=(3, 2))
    temporal = rng.normal(size=(2, 2))
    out = fuse_pairs(model, spatial, temporal)
    w0 = model.params["fc.0.W"]
    b0 = model.params["fc.0.b"]
    w1 = model.params["fc.1.W"]
    b1 = model.params["fc.1.b"]
    rows = []
    for b in range(2):
        for i in range(3):
            x = np.concatenate([spatial[i], temporal[b]])
            hidden = np.maximum(x @ w0 + b0, 0.0)
            rows.append(hidden @ w1 + b1)
    assert np.max(np.abs(out - np.vstack(rows))) < 1e-12


def test_fuse_without_gru_matches_independent_matrix_chain():
    # the no-GRU head's temporal input is the width-1 normalized mean speed
    rng = np.random.default_rng(4)
    model = LcfModel(tiny_config(hidden_dim=2, fc_hidden=(3,), seed=4,
                                 use_gru=False))
    spatial = rng.normal(size=(3, 2))
    vmean = rng.uniform(0, 1, size=(2, 1))
    out = fuse_pairs(model, spatial, vmean)
    w0 = model.params["fc.0.W"]
    b0 = model.params["fc.0.b"]
    w1 = model.params["fc.1.W"]
    b1 = model.params["fc.1.b"]
    assert w0.shape == (3, 3)
    rows = []
    for b in range(2):
        for i in range(3):
            x = np.concatenate([spatial[i], vmean[b]])
            hidden = np.maximum(x @ w0 + b0, 0.0)
            rows.append(hidden @ w1 + b1)
    assert np.max(np.abs(out - np.vstack(rows))) < 1e-12


def test_fuse_rejects_width_mismatch():
    """Halves that do not fit each other, or the head's second layer."""
    model = LcfModel(tiny_config())
    with pytest.raises(ValueError, match=r"\(2, 4\), \(1, 3\)"):
        model.fuse(np.zeros((2, 4)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"\(2, 5\), \(1, 5\)"):
        model.fuse(np.zeros((2, 5)), np.zeros((1, 5)))


# ---------------------------------------------------------------------------
# output coding
# ---------------------------------------------------------------------------

def test_decode_definitions():
    vff = np.full(1, 30.0)
    assert decode_output(np.array([1.1]), 20.0, "Ratio", vff)[0] == pytest.approx(22.0)
    assert decode_output(np.array([2.0]), 20.0, "Diff", vff)[0] == pytest.approx(22.0)
    assert decode_output(np.array([22.0]), 20.0, "Speed", vff)[0] == 22.0


def test_decode_clamps_to_physical_range():
    vff = np.full(2, 25.0)
    out = decode_output(np.array([40.0, -3.0]), 20.0, "Speed", vff)
    assert out.tolist() == [25.0, 0.0]


@pytest.mark.parametrize("output_type", ["Ratio", "Diff", "Speed"])
def test_encode_decode_inverse_on_truth(output_type):
    rng = np.random.default_rng(8)
    vff = np.full(40, 25.0)
    truth = rng.uniform(1.0, 25.0, size=40)
    v_mean = 17.3
    coded = encode_targets(truth, v_mean, output_type)
    back = decode_output(coded, v_mean, output_type, vff)
    assert np.max(np.abs(back - truth)) < 1e-12


@pytest.mark.parametrize("history_len", [0, -1])
def test_config_rejects_an_empty_history(history_len):
    # the head without a GRU reads the current mean speed from the history
    with pytest.raises(ValueError,
                       match=f"history_len must be >= 1, got {history_len}"):
        ModelConfig(history_len=history_len)


@pytest.mark.parametrize("field,value,expected", [
    ("heads", 0, "heads must be >= 1, got 0"),
    ("hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
    ("fc_hidden", (8, 0), r"fc_hidden\[1\] must be >= 1, got 0"),
])
def test_config_rejects_empty_layers(field, value, expected):
    with pytest.raises(ValueError, match=expected):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("field,value,expected", [
    ("epochs", 0, "epochs must be > 0, got 0"),
    ("window_stride", 0, "window_stride must be > 0, got 0"),
    ("lr", -1.0, r"lr must be > 0, got -1\.0"),
    ("lr", math.nan, "lr must be finite, got nan"),
    ("lr_step", 0, "lr_step must be > 0, got 0"),
    ("lr_gamma", 0.0, r"lr_gamma must be > 0, got 0\.0"),
    ("weight_decay", -0.1, r"weight_decay must be >= 0, got -0\.1"),
])
def test_train_config_rejects_out_of_range_values(field, value, expected):
    with pytest.raises(ValueError, match=expected):
        TrainConfig(**{field: value})


def test_config_names():
    assert config_from_name("gat-gru-p").name == "gat-gru-p"
    assert config_from_name("dnn").name == "dnn"
    assert config_from_name("dnn-gru-p").name == "dnn-gru-p"
    cfg = config_from_name("gat")
    assert cfg.use_gat and not cfg.use_gru and not cfg.use_partition
    with pytest.raises(ValueError):
        config_from_name("xgboost")


def test_variant_interface_and_parameter_counts():
    kw = dict(hidden_dim=16, fc_hidden=(8,))
    full = LcfModel(config_from_name("gat-gru", **kw))
    dnn_gru = LcfModel(config_from_name("dnn-gru", **kw))
    dnn = LcfModel(config_from_name("dnn", **kw))
    assert dnn_gru.parameter_count() < full.parameter_count()
    # identical predict surface across variants
    assert hasattr(dnn, "predict_windows") and hasattr(full, "predict_windows")
    assert not any(n.startswith("gru") for n in dnn.params)
    assert not any(n.startswith("gat") for n in dnn.params)


# ---------------------------------------------------------------------------
# equivariance and end-to-end gradients
# ---------------------------------------------------------------------------

def test_forward_is_permutation_equivariant():
    rng = np.random.default_rng(21)
    model = LcfModel(tiny_config(hidden_dim=3, seed=2))
    n = 7
    adj = rng.random((n, n)) < 0.4
    np.fill_diagonal(adj, True)
    feats = rng.normal(size=(n, 10))
    hist = rng.uniform(0, 1, size=(2, 5))
    out = model.forward(feats, graph_of(adj), hist).reshape(2, n)
    perm = rng.permutation(n)
    out_p = model.forward(feats[perm], graph_of(adj[np.ix_(perm, perm)]),
                          hist).reshape(2, n)
    assert np.max(np.abs(out_p - out[:, perm])) < 1e-12


def test_end_to_end_gradcheck_small():
    rng = np.random.default_rng(5)
    model = LcfModel(tiny_config(hidden_dim=2, fc_hidden=(3,), seed=7,
                                 dtype="float64"))
    n = 4
    adj = rng.random((n, n)) < 0.5
    np.fill_diagonal(adj, True)
    feats = rng.uniform(0, 1, size=(n, 10))
    hist = rng.uniform(0, 1, size=(2, 5))
    target = rng.uniform(0, 1, size=(2 * n, 1))
    batch = model_module.SampleBatch(feats, graph_of(adj), hist, target)
    _, grads = model.loss_and_grads(batch)

    def loss():
        return float(nn.mse_loss(model.forward(feats, graph_of(adj), hist),
                                 target))

    err = fd_error(loss, model.params.values(), [grads[k] for k in model.params])
    assert err < 1e-4


# ---------------------------------------------------------------------------
# training on a toy corpus
# ---------------------------------------------------------------------------

def toy_training_setup(seed=77):
    net = generate_grid_network(3, 3, 100.0, 2)
    cfg = SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0, peak_s=240.0,
                    total_s=600.0)
    base = random_base_od(net, 4, 400.0, seed=seed)
    ds = build_dataset(net, base, n=10, master_seed=seed, cfg=cfg)
    train_id = ds.splits["train"][0]
    part = partition_network(net, ds.records[train_id],
                             PartitionParams(k=3, t_max=5, t_window=2))
    return net, ds, part


@pytest.mark.parametrize("output_type", ["Ratio", "Diff"])
def test_batches_and_normalization_equal_a_per_window_loop(output_type):
    net, ds, part = toy_training_setup(seed=29)
    mc = ModelConfig(history_len=4, output_type=output_type, dtype="float64")
    feats = model_module.split_features(net, ds, "train", part)
    norm = model_module.fit_normalization(ds, feats, output_type)
    coded = [encode_targets(ds.records[sc.id].speeds[t],
                            float(ds.records[sc.id].mean_speed[t]), output_type)
             for sc in ds.split_scenarios("train")
             for t in range(ds.records[sc.id].n_windows)]
    assert (norm.target_lo, norm.target_hi) == \
        (min(c.min() for c in coded), max(c.max() for c in coded))
    batches = model_module.build_batches(net, ds, "train", feats, mc, norm,
                                         stride=3)
    for sc, batch in zip(ds.split_scenarios("train"), batches):
        rec = ds.records[sc.id]
        vn = norm.norm_vmean(rec.mean_speed)
        windows = range(0, rec.n_windows, 3)
        hist = [[-1.0] * max(3 - t, 0) + list(vn[max(t - 3, 0):t + 1])
                for t in windows]
        targets = np.concatenate([norm.norm_target(encode_targets(
            rec.speeds[t], float(rec.mean_speed[t]), output_type))
            for t in windows])
        assert batch.hist.tolist() == hist
        assert batch.targets.ravel().tobytes() == targets.tobytes()


def test_history_holds_the_mean_gradient_norm_of_each_epoch(monkeypatch):
    """Each history row's ``grad_norm`` is the mean over the epoch's steps of
    the global L2 norm of the step's gradients."""
    net, ds, part = toy_training_setup(seed=31)
    norms = []
    step = LcfModel.loss_and_grads

    def loss_and_grads(model, batch):
        loss, grads = step(model, batch)
        norms.append(math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                                   for g in grads.values())))
        return loss, grads

    monkeypatch.setattr(LcfModel, "loss_and_grads", loss_and_grads)
    _, history = train(net, ds, part, tiny_config(), TrainConfig(epochs=2))
    steps = len(ds.splits["train"])
    assert len(norms) == 2 * steps
    for epoch, row in enumerate(history):
        want = np.mean(norms[epoch * steps:(epoch + 1) * steps])
        assert row["grad_norm"] == pytest.approx(want, rel=1e-12)
    assert history[0]["grad_norm"] > 0


def test_training_reduces_loss_and_is_deterministic(tmp_path):
    net, ds, part = toy_training_setup()
    mc = ModelConfig(hidden_dim=8, fc_hidden=(16, 8), heads=2,
                     output_type="Speed", seed=1)
    tc = TrainConfig(epochs=5, window_stride=2)
    model, history = train(net, ds, part, mc, tc)
    assert model.config == mc
    assert history[-1]["train_loss"] < history[0]["train_loss"]

    model2, history2 = train(net, ds, part, mc, tc)
    for name in model.params:
        assert np.array_equal(model.params[name],
                              model2.params[name])
    assert history == history2

    p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    save_model(model, p1)
    save_model(model2, p2)
    assert p1.read_bytes() == p2.read_bytes()


# (window, link) rows of a block in the training-memory tests: 4 of the toy
# set-up's 10 windows of 24 links, so each batch runs as blocks of 4, 4 and
# 2 windows
TOY_BLOCK_ROWS = 96


def test_a_training_step_leaves_only_the_head_buffers(monkeypatch):
    """What a training step leaves for the next one is the head's buffers,
    block rows x 864 x 4 B of activations and block rows x 384 B of mask at
    the default widths in float32: its chain of backwards and its gradients
    are freed before the next step starts."""
    net, ds, part = toy_training_setup(seed=31)
    monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", TOY_BLOCK_ROWS)
    held, chains = [], []
    step, walk = LcfModel.loss_and_grads, nn.backward

    def loss_and_grads(model, batch):
        gc.collect()    # no garbage of the set-up's lazy imports
        held.append(tracemalloc.get_traced_memory()[0])
        return step(model, batch)

    def backward(chain, seed):
        # what the forward keeps for the backward
        chains.append(tracemalloc.get_traced_memory()[0] - held[-1])
        return walk(chain, seed)

    monkeypatch.setattr(LcfModel, "loss_and_grads", loss_and_grads)
    monkeypatch.setattr(nn, "backward", backward)
    tracemalloc.start()
    try:
        train(net, ds, part, ModelConfig(), TrainConfig(epochs=2))
    finally:
        tracemalloc.stop()
    n = TOY_BLOCK_ROWS
    # a later step's chain and head gradients read 0.92 MB; each step began
    # with 5-7 KB held beyond the buffers
    assert chains[1] > 1e5
    assert max(held[1:]) - held[0] - (n * 864 * 4 + n * 384) < 50e3


def test_steps_after_the_first_reuse_the_head_buffers(monkeypatch):
    """The head's hidden activations and relu mask live in buffers the model
    builds for the first block of the first training step and keeps while
    they fit: every later block, the shorter last block of a batch, every
    training step and validation included, runs on the same arrays."""
    net, ds, part = toy_training_setup(seed=31)
    monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", TOY_BLOCK_ROWS)
    seen = []
    fuse = LcfModel.fuse

    def watched(model, *args, **kwargs):
        out = fuse(model, *args, **kwargs)
        head = model._head
        seen.append((len(args[1]), head, list(head.acts), head.mask))
        return out

    monkeypatch.setattr(LcfModel, "fuse", watched)
    config = ModelConfig()
    train(net, ds, part, config, TrainConfig(epochs=1))
    assert {windows for windows, *_ in seen} == {4, 2}
    _, head, acts, mask = seen[0]
    assert [a.shape for a in acts] == [(TOY_BLOCK_ROWS, k)
                                       for k in config.fc_hidden]
    for _, later_head, later_acts, later_mask in seen[1:]:
        assert later_head is head and later_mask is mask
        assert all(a is b for a, b in zip(later_acts, acts, strict=True))


def test_a_training_step_holds_only_the_head_activations(monkeypatch):
    """After a training step's backward the model's head buffers hold the
    hidden activations of one block, which the backward overwrote with the
    gradients between the layers, and the relu mask: block rows x 864
    hidden units x 4 B plus block rows x 384 B at the default widths in
    float32, and no other array (a second array per layer held those
    gradients before, and one block held every row of the batch)."""
    net, ds, part = toy_training_setup(seed=31)
    monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", TOY_BLOCK_ROWS)
    config = ModelConfig()
    feats = model_module.split_features(net, ds, "train", part)
    norm = model_module.fit_normalization(ds, feats, config.output_type)
    batch = model_module.build_batches(net, ds, "train", feats, config, norm)[0]
    model = LcfModel(config, norm)
    _, grads = model.loss_and_grads(batch)
    nn.AdamW(model.params).step(grads)
    rows = TOY_BLOCK_ROWS
    held = [a for value in vars(model._head).values()
            for a in (value if isinstance(value, list) else [value])
            if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in held) == rows * 864 * 4 + rows * 384


def test_temporal_embed_is_one_op_on_the_chain():
    model = LcfModel(tiny_config(hidden_dim=3))
    chain = []
    model.temporal_embed(np.zeros((2, 5)), chain)
    assert [(out, list(ins)) for _, out, ins in chain] == [
        ("temporal", [f"gru.{name}" for name in
                      ("Wz", "bz", "Wr", "br", "Wc", "bc")])]


def taped_step(model, batch):
    """What ``model.loss_and_grads(batch)`` returns, from the same ``nn``
    ops on the test tape, whose backward sorts the graph and sums the
    gradients of a tensor read twice."""
    cfg = model.config
    p = {name: Tensor(a, requires_grad=True) for name, a in model.params.items()}
    feats = constant(batch.feats_norm)
    heads = range(cfg.heads)
    if cfg.use_gat:
        spatial = tape.gat([tape.matmul(feats, p[f"gat.h{k}.W"]) for k in heads],
                           [p[f"gat.h{k}.a_src"] for k in heads],
                           [p[f"gat.h{k}.a_dst"] for k in heads], batch.adj,
                           model_module.LEAKY_SLOPE, model.dtype)
    else:
        spatial = tape.dense(feats, p["dnn.W"], p["dnn.b"], relu=True)
    if cfg.use_gru:
        temporal = tape.gru(batch.hist, *(p[f"gru.{name}"] for name in
                                          ("Wz", "bz", "Wr", "br", "Wc", "bc")))
    else:
        temporal = constant(batch.hist[:, -1:])
    layers = [(p[f"fc.{i}.W"], p[f"fc.{i}.b"])
              for i in range(len(cfg.fc_hidden) + 1)]
    loss = tape.mse_loss(tape.pair_head(spatial, temporal, layers,
                                        nn.HeadBuffers()),
                         constant(batch.targets))
    backward(loss)
    return loss.data, {name: t.grad for name, t in p.items()}


def random_batch(net, windows, dtype, seed):
    """A ``SampleBatch`` of random normalized inputs and targets on ``net``."""
    rng = np.random.default_rng(seed)
    return model_module.SampleBatch(
        rng.uniform(0, 1, size=(net.n_links, 10)).astype(dtype),
        build_link_graph(net),
        rng.uniform(0, 1, size=(windows, 5)).astype(dtype),
        rng.uniform(0, 1, size=(windows * net.n_links, 1)).astype(dtype))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("use_gru", [True, False])
@pytest.mark.parametrize("use_gat", [True, False])
def test_loss_and_grads_equal_the_taped_step_to_the_bit(use_gat, use_gru,
                                                        dtype):
    """The chain, walked once in a fixed order, gives the loss and every
    parameter's gradient of the tape's sorted walk, bit for bit."""
    net = generate_grid_network(4, 4, 100.0, 2, length_jitter=0.3,
                                jitter_seed=5)
    model = LcfModel(ModelConfig(use_gat=use_gat, use_gru=use_gru, heads=2,
                                 hidden_dim=8, fc_hidden=(16, 8), seed=9,
                                 dtype=dtype))
    batch = random_batch(net, 6, dtype, seed=12)
    want_loss, want = taped_step(model, batch)
    loss, grads = model.loss_and_grads(batch)
    assert np.asarray(loss).tobytes() == want_loss.tobytes()
    assert set(grads) == set(model.params)
    for name, g in want.items():
        assert grads[name].dtype == g.dtype, name
        assert grads[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("use_gru", [True, False])
def test_a_step_over_blocks_equals_the_unsplit_step(monkeypatch, use_gru):
    """In float64, a training step whose head runs over 3 to 7 blocks (a
    short last block and one-window blocks included) gives the loss and
    every parameter's gradient of the step that runs all windows as one
    block, within 1e-12 relative to each array's largest value."""
    net = generate_grid_network(4, 4, 100.0, 2, length_jitter=0.3,
                                jitter_seed=5)
    n = net.n_links
    model = LcfModel(ModelConfig(use_gru=use_gru, heads=2, hidden_dim=8,
                                 fc_hidden=(16, 8), seed=9, dtype="float64"))
    batch = random_batch(net, 7, "float64", seed=13)
    blocks = []
    fuse = LcfModel.fuse

    def counting_fuse(self, part_in, part_out, chain=None):
        blocks.append(len(part_out))
        return fuse(self, part_in, part_out, chain)

    monkeypatch.setattr(LcfModel, "fuse", counting_fuse)
    monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 7 * n)
    want_loss, want = model.loss_and_grads(batch)
    assert blocks == [7]
    for per_block, sizes in ((3, [3, 3, 1]), (2, [2, 2, 2, 1]), (1, [1] * 7)):
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS",
                            per_block * n + n - 1)
        blocks.clear()
        loss, grads = model.loss_and_grads(batch)
        assert blocks == sizes
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert set(grads) == set(want)
        for name, g in want.items():
            assert grads[name].shape == g.shape, name
            assert np.max(np.abs(grads[name] - g)) \
                <= 1e-12 * np.max(np.abs(g)), name


def step_peak_bytes(windows: int) -> int:
    """tracemalloc peak of one float32 training step of the default
    GAT-GRU-P estimator on ``windows`` windows of a 10 x 10 grid (360
    links). An untraced step runs first, so the peak holds no one-time
    lazy import and the head buffers are built."""
    net = generate_grid_network(10, 10, 100.0, 3)
    model = LcfModel(ModelConfig())
    model.loss_and_grads(random_batch(net, 2, "float32", seed=1))
    batch = random_batch(net, windows, "float32", seed=2)
    tracemalloc.start()
    try:
        model.loss_and_grads(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_training_step_peak_memory_is_bounded_by_one_block():
    """A training step's peak grows with the head's block and the link
    graph, not with windows x links. On 360 links, with 720-row blocks (2
    windows), 10 and 60 windows peaked at 9.1 and 10.1 MB: about 19 KB a
    window, the GRU's kept steps and the pair layer's halves. The head's
    activations of every row (about 4.3 KB a row, 1.5 MB a window) made
    that 21.8 and 91.9 MB when one block held the whole batch."""
    small, large = step_peak_bytes(10), step_peak_bytes(60)
    assert (large - small) / 50 < 40e3
    assert large < 12e6


def test_checkpoint_round_trip_and_predictions(tmp_path):
    net, ds, part = toy_training_setup(seed=31)
    mc = ModelConfig(hidden_dim=6, fc_hidden=(8,), output_type="Ratio", seed=3)
    tc = TrainConfig(epochs=2, window_stride=2)
    model, _ = train(net, ds, part, mc, tc)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    sc = ds.split_scenarios("test")[0]
    rec = ds.records[sc.id]
    sub = net.with_bus_lanes(sc.bus_links)
    a = model.predict_windows(sub, part, rec.mean_speed, windows=[0, 3, 7])
    b = loaded.predict_windows(sub, part, rec.mean_speed, windows=[0, 3, 7])
    assert np.array_equal(a, b)
    vff = np.array([lk.vff_kmh for lk in sub.links])
    assert np.all(a >= 0.0) and np.all(a <= vff[None, :] + 1e-12)


# SHA-256 of the trained parameters' bytes, in creation order, after the two
# epochs below; taken when the attention was built from small taped ops
# (gathers, leaky relu, segment softmax and sum, relu, add, scale, cast),
# whose bits ``nn.gat`` keeps
TRAINED_DIGESTS = {
    "float32": "cedb66539134dee1c90c00e33eb0f20dd5879244102235d7c8f4c8dc3b3946cc",
    "float64": "95821b4d1da657530d41d5b4ba75e746a400177f4039787de5a1d248f147409b",
}


@pytest.mark.parametrize("dtype", sorted(TRAINED_DIGESTS))
def test_two_epochs_give_the_golden_parameter_bits(dtype):
    """Two epochs of training give pinned parameter bits. The digests were
    taken on OpenBLAS's AVX-512 (SkylakeX) sgemm kernel; another kernel sums
    each product in another order, and its trained bits differ."""
    net, ds, part = toy_training_setup()
    model, _ = train(net, ds, part,
                     ModelConfig(heads=2, hidden_dim=8, fc_hidden=(16, 8),
                                 seed=3, dtype=dtype), TrainConfig(epochs=2))
    digest = hashlib.sha256()
    for p in model.params.values():
        digest.update(p.tobytes())
    assert digest.hexdigest() == TRAINED_DIGESTS[dtype]


def test_load_model_checks_array_names_and_shapes(tmp_path):
    model = LcfModel(tiny_config(), toy_normalization())
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    meta, arrays = read_checkpoint(path)
    assert arrays["fc.0.W"].shape == (4, 4) and arrays["fc.0.b"].shape == (1, 4)
    cases = [("fc.0.W", np.zeros((2, 8)), r"'fc.0.W'.*\(2, 8\).*\(4, 4\)"),
             ("fc.0.b", np.zeros(4), r"'fc.0.b'.*\(4,\).*\(1, 4\)"),
             ("fc.9.b", np.zeros((1, 1)), r"unexpected array 'fc.9.b'"),
             ("fc.1.b", None, r"'fc.1.b' is missing")]
    for name, value, pattern in cases:
        changed = {n: a for n, a in arrays.items() if n != name}
        if value is not None:
            changed[name] = value
        write_checkpoint(path, json.dumps(meta), changed)
        with pytest.raises(ValueError, match=pattern):
            load_model(path)


@pytest.mark.parametrize("case", FAULTS)
def test_load_model_names_file_and_line_or_key(tmp_path, case):
    """Every fault is a ValueError that names the file and, where there is
    one, the meta key or array."""
    path = tmp_path / "model.ckpt"
    save_model(LcfModel(tiny_config(), toy_normalization()), path)
    expected = plant(path, case)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
        load_model(path)


def test_partition_only_changes_sub_region_column():
    net, ds, part = toy_training_setup(seed=13)
    feats_p = extract_features(net, part)
    feats_no = extract_features(net, None)
    diff = feats_p != feats_no
    assert not diff[:, :9].any()
    assert diff[:, 9].any()


def test_predict_uses_padded_history_at_t0():
    net, ds, part = toy_training_setup(seed=19)
    mc = ModelConfig(hidden_dim=6, fc_hidden=(8,))
    tc = TrainConfig(epochs=1, window_stride=3)
    model, _ = train(net, ds, part, mc, tc)
    rec = ds.records[ds.splits["test"][0]]
    out = model.predict_windows(net, part, rec.mean_speed)[0]
    assert out.shape == (net.n_links,)
    vn = model.norm.norm_vmean(rec.mean_speed)
    assert pad_history(vn, 5)[0].tolist()[:4] == [-1.0, -1.0, -1.0, -1.0]


# ---------------------------------------------------------------------------
# prediction with no chain, over window blocks
# ---------------------------------------------------------------------------

def untrained_predictor(net, **kw):
    feats = extract_features(net, None)
    return LcfModel(ModelConfig(use_partition=False, **kw), Normalization(
        feat=fit_minmax(feats), vmean_lo=2.0, vmean_hi=25.0, target_lo=0.0,
        target_hi=25.0))


@pytest.mark.parametrize("use_gru", [True, False])
def test_predict_blocks_equal_one_head_call_to_the_bit(monkeypatch, use_gru):
    """Every block size gives the bits of one head call over all
    windows. That holds on OpenBLAS's AVX-512 (SkylakeX) sgemm kernel; on
    the AVX2 (Haswell) kernel a row's bits depend on the call's rows."""
    net = generate_grid_network(3, 3, 100.0, 2)
    n = net.n_links
    vmean = np.random.default_rng(8).uniform(2.0, 25.0, size=20)
    model = untrained_predictor(net, use_gru=use_gru)
    # reference: the forward over all windows, decoded window by window
    # in float64, as predict_windows decodes
    vn = model.norm.norm_vmean(vmean)
    hist = pad_history(vn, 5)
    raw = model.forward(model.norm.feat.apply(extract_features(net, None)),
                        build_link_graph(net), hist).astype(np.float64)
    vff = np.array([lk.vff_kmh for lk in net.links])
    ref = np.stack([decode_output(model.norm.denorm_target(r), vmean[t],
                                  "Speed", vff)
                    for t, r in enumerate(raw.reshape(20, n))])

    calls = []
    fuse = LcfModel.fuse

    def counting_fuse(self, part_in, part_out):
        calls.append(len(part_out))
        return fuse(self, part_in, part_out)

    monkeypatch.setattr(LcfModel, "fuse", counting_fuse)
    # 20 windows at 7, 3, 2 and 1 windows a block: 7+7+6, 3x6+2, 2x10, 1x20;
    # a one-window block slices the per-window products of all windows, so
    # its bits do not take a one-row product's path
    for per_block, sizes in ((7, [7, 7, 6]), (3, [3] * 6 + [2]), (2, [2] * 10),
                             (1, [1] * 20), (20, [20])):
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS",
                            per_block * n + n - 1)
        calls.clear()
        out = model.predict_windows(net, None, vmean)
        assert calls == sizes
        assert out.tobytes() == ref.tobytes()


def predict_peak_bytes(rows: int) -> int:
    """tracemalloc peak of a 120-window predict on a rows x rows grid. An
    untraced call runs first, so the peak holds no one-time lazy import
    (``np.unique`` imports ``numpy.ma`` at its first call, about 1 MB)."""
    net = generate_grid_network(rows, rows, 100.0, 3)
    vmean = np.random.default_rng(9).uniform(2.0, 25.0, size=120)
    model = untrained_predictor(net)
    model.predict_windows(net, None, vmean[:1])
    tracemalloc.start()
    try:
        out = model.predict_windows(net, None, vmean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (120, net.n_links)
    return peak


def test_predict_peak_memory_is_bounded_by_one_block():
    # 360 links: one head call over all 43,200 rows peaked at about 320 MB,
    # 8,192-row blocks with dense attention at 19.3 MB; 2,048-row blocks
    # with edge-list attention at 5.3 MB, and 1,024-row blocks whose
    # pair-layer products are computed once per call at 3.4 MB
    assert predict_peak_bytes(10) < 4.5e6


def test_predict_peak_memory_grows_with_the_link_graph_edges():
    # 1,520 links: the dense (links x links) attention peaked at 138 MB, the
    # edge-list attention with one-window blocks at 17.1 MB, and at 14.4 MB
    # since the attention weights its gathered rows in place
    assert predict_peak_bytes(20) < 24e6


def test_attention_matrix_is_the_attention_spatial_embed_uses():
    rng = np.random.default_rng(14)
    model = LcfModel(tiny_config(hidden_dim=3, heads=2, seed=5,
                                 dtype="float64"))
    graph = graph_of(rng.random((6, 6)) < 0.4)
    feats = rng.normal(size=(6, 10))
    heads = []
    for k in range(2):
        att = model.attention_matrix(feats, graph, head=k)
        wh = feats @ model.params[f"gat.h{k}.W"]
        edge_terms = att[graph.src, graph.dst][:, None] * wh[graph.dst]
        heads.append(np.maximum(np.add.reduceat(edge_terms, graph.seg_start),
                                0.0))
    out = model.spatial_embed(feats, graph)
    assert np.array_equal(out, (heads[0] + heads[1]) * 0.5)


@pytest.mark.parametrize("heads", [1, 2])
def test_predictions_equal_the_dense_attention_oracle(monkeypatch, heads):
    net = generate_grid_network(6, 6, 100.0, 3, length_jitter=0.3,
                                jitter_seed=4)
    vmean = np.random.default_rng(10).uniform(2.0, 25.0, size=12)
    model = untrained_predictor(net, heads=heads, dtype="float64")
    out = model.predict_windows(net, None, vmean)

    def dense_embed(self, feats, graph, chain=None):
        return dense_spatial_embed(self, feats, graph)

    monkeypatch.setattr(LcfModel, "spatial_embed", dense_embed)
    oracle = model.predict_windows(net, None, vmean)
    assert (oracle > 0).mean() > 0.9
    assert (np.abs(out - oracle) <= 1e-12 * oracle).all()


def relabelled(net, perm):
    """The network with link id i renamed perm[i], which reorders the link
    indexes."""
    links = [replace(lk, id=int(perm[lk.id])) for lk in net.links]
    return RoadNetwork(net.junctions, links, list(net.signals.values()))


def test_relabelling_the_links_permutes_the_predictions():
    net = generate_grid_network(5, 5, 100.0, 3, length_jitter=0.3,
                                jitter_seed=2)
    assert net.link_ids() == tuple(range(net.n_links))
    perm = np.random.default_rng(3).permutation(net.n_links)
    other = relabelled(net, perm)
    vmean = np.random.default_rng(11).uniform(2.0, 25.0, size=9)
    out = untrained_predictor(net, dtype="float64").predict_windows(
        net, None, vmean)
    out_other = untrained_predictor(other, dtype="float64").predict_windows(
        other, None, vmean)
    cols = [other.link_index(int(perm[i])) for i in range(net.n_links)]
    assert np.max(np.abs(out_other[:, cols] - out)) < 1e-12 * np.abs(out).max()


# ---------------------------------------------------------------------------
# precision: float32 model, float64 attention
# ---------------------------------------------------------------------------

def toy_normalization():
    return Normalization(feat=MinMaxStats(lo=np.zeros(10), hi=np.ones(10)),
                         vmean_lo=0.0, vmean_hi=1.0, target_lo=0.0,
                         target_hi=1.0)


def test_float32_model_keeps_attention_in_float64():
    model = LcfModel(tiny_config(heads=2))
    assert model.config.dtype == "float32"
    for name, p in model.params.items():
        expected = np.float64 if name.startswith("gat.") else np.float32
        assert p.dtype == expected, name
    rng = np.random.default_rng(6)
    graph = graph_of(rng.random((5, 5)) < 0.5)
    feats = rng.uniform(0, 1, size=(5, 10))
    assert model.attention_matrix(feats, graph).dtype == np.float64
    # the coefficients of the float32 features the forward reads
    assert np.array_equal(model.attention_matrix(feats, graph),
                          model.attention_matrix(feats.astype(np.float32),
                                                 graph))
    assert model.spatial_embed(feats, graph).dtype == np.float32
    out = model.forward(feats, graph, rng.uniform(0, 1, size=(3, 5)))
    assert out.dtype == np.float32
    with pytest.raises(ValueError, match="float16"):
        ModelConfig(dtype="float16")


def test_float32_gradients_agree_with_float64_on_the_criterion_4_toy():
    # the float64 model loads the float32 parameters exactly, so both
    # differentiate at the same point; over 30 draws of this toy the worst
    # gap was 7.6e-7 of the largest gradient entry
    for seed in range(4, 9):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(heads=2, hidden_dim=3, fc_hidden=(6,), seed=seed)
        m32 = LcfModel(cfg)
        m64 = LcfModel(replace(cfg, dtype="float64"),
                       state=m32.params)
        n = 4
        adj = rng.random((n, n)) < 0.5
        np.fill_diagonal(adj, True)
        feats = rng.uniform(0, 1, size=(n, 10))
        hist = rng.uniform(0, 1, size=(2, 5))
        target = rng.uniform(0, 1, size=(2 * n, 1))
        g32, g64 = (m.loss_and_grads(model_module.SampleBatch(
            feats, graph_of(adj), hist, target.astype(m.dtype)))[1]
            for m in (m32, m64))
        for name, p in m32.params.items():
            assert g32[name].dtype == p.dtype, name
        gap = max(np.abs(g32[k] - g64[k]).max() for k in m32.params)
        largest = max(np.abs(g).max() for g in g64.values())
        assert gap < 1e-5 * largest, seed


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_round_trip_is_bit_equal(tmp_path, dtype):
    model = LcfModel(tiny_config(heads=2, hidden_dim=3, dtype=dtype),
                     toy_normalization())
    for name, p in model.params.items():    # random bits past the init's range
        model.params[name] = np.random.default_rng(p.size).normal(
            size=p.shape).astype(p.dtype) * 1e3
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    for name, p in model.params.items():
        assert loaded.params[name].dtype == p.dtype, name
        assert loaded.params[name].tobytes() == p.tobytes(), name


def test_load_model_draws_no_initialization(tmp_path, monkeypatch):
    model = LcfModel(tiny_config(heads=2), toy_normalization())
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    meta, arrays = read_checkpoint(path)
    arrays["fc.0.W"] = arrays["fc.0.W"].astype(np.float64)    # cast back

    def no_draw(*args):
        raise AssertionError("load_model drew an initialization")

    monkeypatch.setattr(nn, "glorot", no_draw)
    write_checkpoint(path, json.dumps(meta), arrays)
    loaded = load_model(path)
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert loaded.params[name].dtype == p.dtype, name
        assert np.array_equal(loaded.params[name], p), name


def test_training_batches_and_parameters_stay_in_the_model_dtype():
    net, ds, part = toy_training_setup(seed=23)
    mc = ModelConfig(hidden_dim=6, fc_hidden=(8,))
    model, history = train(net, ds, part, mc,
                           TrainConfig(epochs=1, window_stride=3))
    assert np.isfinite(history[0]["train_loss"])
    for name, p in model.params.items():
        expected = np.float64 if name.startswith("gat.") else np.float32
        assert p.dtype == expected, name
    feats = model_module.split_features(net, ds, "val", part)
    for batch in model_module.build_batches(net, ds, "val", feats, mc,
                                            model.norm):
        for field in ("feats_norm", "hist", "targets"):
            assert getattr(batch, field).dtype == np.float32, field
    rec = ds.records[ds.splits["test"][0]]
    assert model.predict_windows(net, part, rec.mean_speed).dtype == np.float64
