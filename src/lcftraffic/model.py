"""Per-link speed estimator: attention over the link graph for the spatial
embedding, a GRU over the recent network-mean-speed history for the
temporal embedding, and a fully connected head that fuses both into one
value per link.

Three output formats are supported and decoded against the network mean
speed V: "Ratio" (estimate = raw * V), "Diff" (raw + V) and "Speed"
(raw used directly). Ablation switches turn the attention branch into a
plain dense projection and/or drop the recurrent branch, which yields the
DNN / DNN-GRU / GAT baseline family; a partition assignment fills the
sub-region feature column for the "-P" variants.

The attention runs on the link graph's edge list (``network.LinkGraph``):
scores, softmax and weighted sums live on the edges, so its memory grows
with the edges, and no (links x links) array is built. Each head's
projection feats @ W is one ``nn.matmul``, and the rest of the layer, all
heads and their mean, is one ``nn.gat``.

Parameters are plain arrays keyed by name (``LcfModel.params``). A training
step is one fixed chain of ``nn`` ops, the one ``_embed`` runs: the
projections and the attention (or the dense layer), the GRU and the head's
first-layer products, its two halves (``nn.pair_halves``).
``loss_and_grads`` runs it forward, recording each op's backward
(``nn.call``); runs the rest of the head (``fuse``, on each block's slice
of the per-window half) and the loss over ``window_blocks``, each block's
backward before the next block's forward; then runs the chain's backwards
once in reverse (``nn.backward``) from the halves' gradients summed over
the blocks, and returns each parameter's gradient by name.
``window_blocks`` is the one block rule, at most ``PREDICT_BLOCK_ROWS``
(window, link) rows a block, so a step holds one block's head
activations. Validation and prediction run the same forwards over the
same blocks with no chain, so they keep nothing for a backward.

Precision: the model runs in ``ModelConfig.dtype``, float32 by default. The
attention heads' parameters stay float64, so each projection and the
layer's arithmetic are float64 and each link's coefficients sum to 1
within float64 rounding; ``nn.gat`` casts its output to the model dtype.
Normalization statistics, decoding and everything downstream of a
prediction stay float64.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .config import bounded, check, from_json, read_json, require_keys
from .network import (LinkGraph, MinMaxStats, N_FEATURES, RoadNetwork,
                      build_link_graph, extract_features, fit_minmax,
                      minmax_scale, minmax_unscale)

log = logging.getLogger(__name__)

PAD_VALUE = -1.0
LEAKY_SLOPE = 0.2    # negative slope of the attention scores' leaky ReLU
# (window, link) rows the head takes per call in training, validation and
# prediction (window_blocks), which bound its peak memory; a block never
# splits a window, so it holds one window when a window alone is larger
PREDICT_BLOCK_ROWS = 1024
DTYPES = ("float32", "float64")
OUTPUT_TYPES = ("Ratio", "Diff", "Speed")


@dataclass(frozen=True)
class ModelConfig:
    use_gat: bool = True
    use_gru: bool = True
    use_partition: bool = True
    heads: int = bounded(2, ge=1)
    hidden_dim: int = bounded(128, ge=1)
    fc_hidden: tuple[int, ...] = bounded((384, 256, 128, 64, 32), ge=1)
    # the history ends with the current window, which the no-GRU head reads
    history_len: int = bounded(5, ge=1)
    output_type: str = bounded("Speed", one_of=OUTPUT_TYPES)
    seed: int = bounded(0, ge=0)
    dtype: str = bounded("float32", one_of=DTYPES)

    __post_init__ = check

    @property
    def fc_input_dim(self) -> int:
        # the recurrent branch contributes a full embedding; without it the
        # current normalized mean speed (the history's last entry) enters as
        # a single extra input
        return self.hidden_dim * 2 if self.use_gru else self.hidden_dim + 1

    @property
    def name(self) -> str:
        base = ("gat" if self.use_gat else "dnn") + ("-gru" if self.use_gru else "")
        return base + ("-p" if self.use_partition else "")


def config_from_name(name: str, **overrides) -> ModelConfig:
    """Parse names like 'gat-gru-p', 'dnn', 'dnn-gru' into a ModelConfig."""
    tokens = name.lower().split("-")
    use_partition = tokens[-1] == "p"
    if use_partition:
        tokens = tokens[:-1]
    if not tokens or tokens[0] not in ("gat", "dnn") \
            or tokens[1:] not in ([], ["gru"]):
        raise ValueError(f"unknown model name {name!r}")
    return ModelConfig(use_gat=tokens[0] == "gat", use_gru=tokens[1:] == ["gru"],
                       use_partition=use_partition, **overrides)


@dataclass
class Normalization:
    feat: MinMaxStats
    vmean_lo: float
    vmean_hi: float
    target_lo: float
    target_hi: float

    def norm_vmean(self, v: np.ndarray) -> np.ndarray:
        return minmax_scale(v, self.vmean_lo, self.vmean_hi)

    def norm_target(self, y: np.ndarray) -> np.ndarray:
        return minmax_scale(y, self.target_lo, self.target_hi)

    def denorm_target(self, y: np.ndarray) -> np.ndarray:
        return minmax_unscale(y, self.target_lo, self.target_hi)


def encode_targets(speeds: np.ndarray, v_mean: float | np.ndarray,
                   output_type: str) -> np.ndarray:
    """Training targets from km/h speeds; ``v_mean`` is a float or an array
    that broadcasts against ``speeds``, e.g. one mean speed per window row."""
    if output_type == "Ratio":
        if np.any(np.asarray(v_mean) <= 0):
            raise ValueError("network mean speed must be > 0 for Ratio targets")
        return speeds / v_mean
    if output_type == "Diff":
        return speeds - v_mean
    if output_type == "Speed":
        return speeds.copy()
    raise ValueError(f"unknown output type {output_type!r}")


def decode_output(raw: np.ndarray, v_mean: float | np.ndarray, output_type: str,
                  vff_kmh: np.ndarray) -> np.ndarray:
    """Map de-normalized raw outputs to km/h, clamped to [0, v_ff];
    ``v_mean`` is a float or an array that broadcasts against ``raw``."""
    if output_type == "Ratio":
        speeds = raw * v_mean
    elif output_type == "Diff":
        speeds = raw + v_mean
    elif output_type == "Speed":
        speeds = raw
    else:
        raise ValueError(f"unknown output type {output_type!r}")
    return np.clip(speeds, 0.0, vff_kmh)


def pad_history(vmean_norm: np.ndarray, history_len: int) -> np.ndarray:
    """(windows, history_len) read-only matrix whose row t is the history
    [t - history_len + 1 .. t], front-padded with the sentinel."""
    padded = np.concatenate([np.full(history_len - 1, PAD_VALUE), vmean_norm])
    return np.lib.stride_tricks.sliding_window_view(padded, history_len)


class LcfModel:
    """Parameters, forward pass and a training step's gradients."""

    def __init__(self, config: ModelConfig, norm: Normalization | None = None,
                 state: dict[str, np.ndarray] | None = None):
        """Parameters from ``state`` when given (names and shapes must
        match and every value must be finite; each array is cast to its
        parameter's dtype), else a Glorot draw seeded by ``config.seed``."""
        self.config = config
        self.norm = norm
        self.dtype = np.dtype(config.dtype)
        rng = np.random.default_rng(config.seed)
        h = config.hidden_dim
        self.params: dict[str, np.ndarray] = {}  # in creation order

        def make(name: str, shape, zero=False, dtype=self.dtype):
            if state is None:
                # drawn in float64, so both dtypes start from the same draws
                data = np.zeros(shape) if zero else nn.glorot(rng, shape)
            elif name not in state:
                raise ValueError(f"array {name!r} is missing; expected shape {shape}")
            elif state[name].shape != shape:
                raise ValueError(f"array {name!r} has shape {state[name].shape}, "
                                 f"expected {shape}")
            elif not np.isfinite(state[name]).all():
                raise ValueError(f"array {name!r} holds a value that is not "
                                 "finite")
            else:
                data = state[name]
            self.params[name] = data.astype(dtype)

        if config.use_gat:
            # the attention heads stay float64 (module docstring)
            for k in range(config.heads):
                make(f"gat.h{k}.W", (N_FEATURES, h), dtype=np.float64)
                make(f"gat.h{k}.a_src", (h, 1), dtype=np.float64)
                make(f"gat.h{k}.a_dst", (h, 1), dtype=np.float64)
        else:
            make("dnn.W", (N_FEATURES, h))
            make("dnn.b", (1, h), zero=True)
        if config.use_gru:
            for gate in ("z", "r", "c"):
                make(f"gru.W{gate}", (h + 1, h))
                make(f"gru.b{gate}", (1, h), zero=True)
        dims = (config.fc_input_dim,) + config.fc_hidden + (1,)
        for i in range(len(dims) - 1):
            make(f"fc.{i}.W", (dims[i], dims[i + 1]))
            make(f"fc.{i}.b", (1, dims[i + 1]), zero=True)
        extra = sorted(set(state or ()) - set(self.params))
        if extra:
            raise ValueError(f"unexpected array {extra[0]!r} for {config.name}")
        self._head = nn.HeadBuffers()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # forward pieces -------------------------------------------------------

    def spatial_embed(self, feats: np.ndarray, graph: LinkGraph,
                      chain: list | None = None) -> np.ndarray:
        """Each link's relu(sum over its edges of att * Wh[dst]), averaged
        over the heads (``nn.gat``, after each head's projection feats @ W
        by ``nn.matmul``); without attention, a relu dense layer. Given a
        ``chain``, each op's backward goes on it (``nn.call``)."""
        cfg, p = self.config, self.params
        if not cfg.use_gat:
            return nn.call(chain, "spatial", (None, "dnn.W", "dnn.b"), nn.dense,
                           feats, p["dnn.W"], p["dnn.b"], relu=True)
        heads = range(cfg.heads)
        whs = [nn.call(chain, f"wh{k}", (None, f"gat.h{k}.W"), nn.matmul,
                       feats, p[f"gat.h{k}.W"]) for k in heads]
        a_srcs, a_dsts = ([f"gat.h{k}.{name}" for k in heads]
                          for name in ("a_src", "a_dst"))
        return nn.call(chain, "spatial",
                       [f"wh{k}" for k in heads] + a_srcs + a_dsts, nn.gat,
                       whs, [p[name] for name in a_srcs],
                       [p[name] for name in a_dsts], graph, LEAKY_SLOPE,
                       self.dtype)

    def attention_matrix(self, feats_norm: np.ndarray, graph: LinkGraph,
                         head: int = 0) -> np.ndarray:
        """Attention coefficients of one head, as spatial_embed computes
        them (``nn.attention_coefficients`` on the features in the model
        dtype), as a dense (links x links) matrix that is zero off the
        edges: for diagnostics and tests on small networks."""
        cfg = self.config
        if not cfg.use_gat:
            raise ValueError(f"attention_matrix: the {cfg.name} model has no "
                             "attention")
        if not 0 <= head < cfg.heads:
            raise ValueError(f"attention_matrix: head {head} is not one of the "
                             f"model's {cfg.heads} heads (0 to {cfg.heads - 1})")
        w, a_src, a_dst = (self.params[f"gat.h{head}.{name}"]
                           for name in ("W", "a_src", "a_dst"))
        wh = np.asarray(feats_norm, dtype=self.dtype) @ w
        att, _ = nn.attention_coefficients(wh, a_src, a_dst, graph, LEAKY_SLOPE)
        dense = np.zeros((graph.n_links, graph.n_links))
        dense[graph.src, graph.dst] = att[:, 0]
        return dense

    def temporal_embed(self, hist_norm: np.ndarray,
                       chain: list | None = None) -> np.ndarray:
        """GRU over (B, history_len) normalized mean-speed sequences, run in
        the model dtype (``nn.gru``); given a ``chain``, its backward goes
        on it."""
        if hist_norm.shape[1] != self.config.history_len:
            raise ValueError(f"history length {hist_norm.shape[1]} != "
                             f"{self.config.history_len}")
        names = [f"gru.{name}" for name in ("Wz", "bz", "Wr", "br", "Wc", "bc")]
        return nn.call(chain, "temporal", names, nn.gru, hist_norm,
                       *(self.params[name] for name in names))

    def fuse(self, part_in: np.ndarray, part_out: np.ndarray,
             chain: list | None = None) -> np.ndarray:
        """The head over every (window, link) pair of one block,
        window-major: ``nn.pair_head`` on the pair layer's halves
        (``_embed``), ``part_in`` per link and ``part_out`` per window of
        the block. Given a ``chain``, the head's backward goes on it, taking
        its inputs' names "part_in" and "part_out", and its hidden
        activations live in buffers the model holds for the largest block;
        with none it claims no buffers."""
        names = [f"fc.{i}.{name}" for i in range(1, len(self.config.fc_hidden) + 1)
                 for name in ("W", "b")]
        layers = [(self.params[w], self.params[b])
                  for w, b in zip(names[::2], names[1::2])]
        return nn.call(chain, "pred", ["part_in", "part_out"] + names,
                       nn.pair_head, part_in, part_out, layers, self._head)

    def _embed(self, feats_norm: np.ndarray, graph: LinkGraph,
               hist_norm: np.ndarray, chain: list | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
        """The head's first-layer products (``nn.pair_halves``): part_in =
        spatial @ W_s + b per link and part_out = temporal @ W_t per window,
        temporal being the GRU state or, without the GRU, the history's
        last column, the window's normalized mean speed. The inputs are
        cast to the model dtype, a no-op for a ``SampleBatch``. Given a
        ``chain``, the embeddings' and the halves' backwards go on it, the
        halves' as "halves"."""
        spatial = self.spatial_embed(
            np.asarray(feats_norm, dtype=self.dtype), graph, chain)
        if self.config.use_gru:
            temporal = self.temporal_embed(hist_norm, chain)
        else:
            temporal = np.asarray(hist_norm[:, -1:], dtype=self.dtype)
        # without the GRU, temporal is data: no one reads its gradient
        ins = ["spatial", "temporal" if self.config.use_gru else None,
               "fc.0.W", "fc.0.b"]
        return nn.call(chain, "halves", ins, nn.pair_halves, spatial, temporal,
                       self.params["fc.0.W"], self.params["fc.0.b"])

    def forward(self, feats_norm: np.ndarray, graph: LinkGraph,
                hist_norm: np.ndarray) -> np.ndarray:
        """Raw normalized outputs, shape (batch * n_links, 1), window-major,
        from one head call over all windows; ``hist_norm`` holds one
        ``pad_history`` row per window. Records no backward."""
        return self.fuse(*self._embed(feats_norm, graph, hist_norm))

    def batch_loss(self, batch: SampleBatch) -> np.ndarray:
        """The MSE of ``batch``, summed over the head's ``window_blocks`` as
        ``loss_and_grads`` sums it, with no chain: a validation loss."""
        part_in, part_out = self._embed(batch.feats_norm, batch.adj, batch.hist)
        n, loss = len(part_in), None
        for w in window_blocks(len(part_out), n):
            pred = self.fuse(part_in, part_out[w])
            share = nn.mse_loss(pred, batch.targets[w.start * n:w.stop * n],
                                len(batch.targets))
            loss = share if loss is None else loss + share
        return loss

    def loss_and_grads(self, batch: SampleBatch,
                       ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A training step on ``batch``: the MSE of the forward against the
        targets, and the gradient of every parameter, by name.

        The attention, the GRU and ``nn.pair_halves`` run once, recording
        their backwards on a chain. The head then runs over
        ``window_blocks``, as prediction runs it, and each block runs its
        forward (``fuse``), its share of the MSE and its backward before
        the next block starts, so the step holds one block's head
        activations. The head's gradients and part_in's are summed over
        the blocks in block order; part_out's are written per block into
        its windows' rows. One ``nn.backward`` then walks the chain from
        the two halves' gradients. A batch of one block gives the bits of
        one head call; with more, the sums equal it within rounding."""
        chain = []
        part_in, part_out = self._embed(batch.feats_norm, batch.adj,
                                        batch.hist, chain)
        n, one = len(part_in), np.ones((), self.dtype)
        loss, grads, g_out = None, {}, np.empty_like(part_out)
        for w in window_blocks(len(part_out), n):
            head = []
            pred = self.fuse(part_in, part_out[w], head)
            share, loss_back = nn.mse_loss(
                pred, batch.targets[w.start * n:w.stop * n],
                len(batch.targets), grad=True)
            loss = share if loss is None else loss + share
            [(head_back, _, names)] = head
            for name, g in zip(names, head_back(loss_back(one)[0])):
                if name == "part_out":
                    g_out[w] = g
                elif name in grads:
                    grads[name] += g
                else:
                    grads[name] = g
        grads.update(nn.backward(chain, (grads.pop("part_in"), g_out)))
        return loss, grads

    # prediction -----------------------------------------------------------

    def predict_windows(self, net: RoadNetwork, partition,
                        vmean_kmh: np.ndarray, windows=None) -> np.ndarray:
        """Decoded per-link speeds (km/h), shape (len(windows), n_links), for
        the given windows of a mean-speed series (all of them by default).

        Records no backward. The spatial embedding, the GRU and the head's
        first-layer products (``nn.pair_halves``) run once over all
        windows; the head then runs over ``window_blocks``, the one block
        rule that training and validation also run: blocks of whole
        windows, each at most ``PREDICT_BLOCK_ROWS`` (window, link) rows
        unless one window alone has more links. Each block is decoded into
        the output before the next one starts. The head (``fuse``), with no
        chain, claims no buffers and frees each layer's input once its
        output is built, so peak memory is bounded by one block's head
        activations, a layer's input and output at once (1,024 x (384 +
        256) x 4 B in float32, about 2.6 MB, at the default widths), not by
        windows x links; the attention's is bounded by the link graph's
        edges. On OpenBLAS's AVX-512 (SkylakeX) sgemm kernel every block
        size, one window a block included, gives the same bits as one head
        call over all windows, since each block only slices the per-window
        products. The head's output is decoded in float64.
        """
        if self.norm is None:
            raise ValueError("model has no normalization statistics; train first")
        cfg = self.config
        vmean_kmh = np.asarray(vmean_kmh, dtype=float)
        windows = list(range(len(vmean_kmh)) if windows is None else windows)
        feats = extract_features(net, partition if cfg.use_partition else None)
        hist = pad_history(self.norm.norm_vmean(vmean_kmh), cfg.history_len)[windows]
        part_in, part_out = self._embed(self.norm.feat.apply(feats),
                                        build_link_graph(net), hist)
        v_now, n_links = vmean_kmh[windows, None], net.n_links
        out = np.empty((len(windows), n_links))
        for b in window_blocks(len(windows), n_links):
            raw = self.fuse(part_in, part_out[b]).reshape(-1, n_links)
            out[b] = decode_output(self.norm.denorm_target(raw.astype(np.float64)),
                                   v_now[b], cfg.output_type, net.index.vff_kmh)
        return out


def window_blocks(n_windows: int, n_links: int) -> list[slice]:
    """The head's one block rule, for training, validation and prediction:
    consecutive slices of the windows, each ``PREDICT_BLOCK_ROWS //
    n_links`` windows (at least one) but the last, which holds the rest.
    A block never splits a window."""
    per_block = max(1, PREDICT_BLOCK_ROWS // n_links)
    return [slice(start, min(start + per_block, n_windows))
            for start in range(0, n_windows, per_block)]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = bounded(0.002, gt=0)
    lr_step: int = bounded(80, gt=0)
    lr_gamma: float = bounded(0.85, gt=0)
    weight_decay: float = bounded(0.01, ge=0)
    epochs: int = bounded(400, gt=0)
    window_stride: int = bounded(1, gt=0)

    __post_init__ = check


@dataclass
class SampleBatch:
    """All training windows of one scenario share features and the link
    graph; the arrays are in the model dtype."""

    feats_norm: np.ndarray
    adj: LinkGraph          # the link graph's edge list
    hist: np.ndarray        # (B, history_len)
    targets: np.ndarray     # (B * n_links, 1) normalized


def split_features(net: RoadNetwork, dataset, split: str,
                   partition=None) -> list[np.ndarray]:
    """Attribute matrix of each scenario of a split, in split order, each on
    its own bus-lane layout; ``partition`` fills the sub-region column."""
    return [extract_features(net.with_bus_lanes(sc.bus_links), partition)
            for sc in dataset.split_scenarios(split)]


def build_batches(net: RoadNetwork, dataset, split: str, feats: list[np.ndarray],
                  model_cfg: ModelConfig, norm: Normalization,
                  stride: int = 1) -> list[SampleBatch]:
    """One batch per scenario of the split, cast to the model dtype;
    ``feats`` are the scenarios' ``split_features``."""
    dtype = np.dtype(model_cfg.dtype)
    batches = []
    graph = build_link_graph(net)
    for sc, sc_feats in zip(dataset.split_scenarios(split), feats):
        record = dataset.records[sc.id]
        windows = np.arange(0, record.n_windows, stride)
        hist = pad_history(norm.norm_vmean(record.mean_speed),
                           model_cfg.history_len)[windows]
        targets = norm.norm_target(encode_targets(
            record.speeds[windows], record.mean_speed[windows, None],
            model_cfg.output_type)).reshape(-1, 1)
        batches.append(SampleBatch(norm.feat.apply(sc_feats).astype(dtype),
                                   graph, hist.astype(dtype),
                                   targets.astype(dtype)))
    return batches


def fit_normalization(dataset, feats: list[np.ndarray],
                      output_type: str) -> Normalization:
    """Min-max statistics frozen on the training split; ``feats`` are its
    ``split_features``."""
    records = [dataset.records[sc.id] for sc in dataset.split_scenarios("train")]
    all_v = np.concatenate([r.mean_speed for r in records])
    all_t = np.concatenate([
        encode_targets(r.speeds, r.mean_speed[:, None], output_type).ravel()
        for r in records])
    return Normalization(
        feat=fit_minmax(np.vstack(feats)),
        vmean_lo=float(all_v.min()), vmean_hi=float(all_v.max()),
        target_lo=float(all_t.min()), target_hi=float(all_t.max()),
    )


def train(net: RoadNetwork, dataset, partition, model_cfg: ModelConfig,
          train_cfg: TrainConfig | None = None,
          ) -> tuple[LcfModel, list[dict[str, float]]]:
    """Minimize MSE on normalized targets with AdamW + staircase LR decay;
    returns the best-validation checkpoint and the history, one row per
    epoch: its learning rate, mean training loss, validation loss and the
    mean over its steps of the gradients' global L2 norm.
    ``model_cfg.seed`` seeds both the initialization and the batch order."""
    tc = train_cfg or TrainConfig()
    part = partition if model_cfg.use_partition else None
    train_feats = split_features(net, dataset, "train", part)
    norm = fit_normalization(dataset, train_feats, model_cfg.output_type)
    model = LcfModel(model_cfg, norm)
    train_batches = build_batches(net, dataset, "train", train_feats, model_cfg,
                                  norm, stride=tc.window_stride)
    val_batches = build_batches(net, dataset, "val",
                                split_features(net, dataset, "val", part),
                                model_cfg, norm, stride=tc.window_stride)

    opt = nn.AdamW(model.params, lr=tc.lr, weight_decay=tc.weight_decay)
    rng = np.random.default_rng(model_cfg.seed)
    history: list[dict[str, float]] = []
    best_val = np.inf
    best_state = {n: p.copy() for n, p in model.params.items()}

    for epoch in range(tc.epochs):
        opt.lr = nn.steplr(tc.lr, tc.lr_step, tc.lr_gamma, epoch)
        order = rng.permutation(len(train_batches))
        epoch_loss = epoch_norm = 0.0
        for bi in order:
            loss, grads = model.loss_and_grads(train_batches[bi])
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged at epoch {epoch} (loss={loss})")
            opt.step(grads)
            epoch_loss += float(loss)
            # the global L2 norm, summed in float64 in parameter order
            epoch_norm += float(np.sqrt(sum(
                np.sum(np.square(grads[name], dtype=np.float64))
                for name in model.params)))
            del grads    # before the next step's backward fills new ones
        val_loss = float(np.mean([float(model.batch_loss(b))
                                  for b in val_batches]))
        history.append({"epoch": epoch, "lr": opt.lr,
                        "train_loss": epoch_loss / len(order),
                        "val_loss": val_loss,
                        "grad_norm": epoch_norm / len(order)})
        if val_loss < best_val:
            best_val = val_loss
            best_state = {n: p.copy() for n, p in model.params.items()}

    return LcfModel(model_cfg, norm, state=best_state), history


# ---------------------------------------------------------------------------
# checkpoints: an .npz archive of the parameters, each in its own dtype, and
# a "meta" entry, the JSON of the ModelConfig and the normalization statistics
# ---------------------------------------------------------------------------

NORM_KEYS = ("vmean_lo", "vmean_hi", "target_lo", "target_hi")
FEAT_KEYS = ("feat_lo", "feat_hi")
NORM_KINDS = {**dict.fromkeys(FEAT_KEYS, "tuple[float, ...]"),
              **dict.fromkeys(NORM_KEYS, "float")}


def save_model(model: LcfModel, path) -> None:
    norm = model.norm
    meta = {"config": asdict(model.config), "norm": {
        "feat_lo": norm.feat.lo.tolist(), "feat_hi": norm.feat.hi.tolist(),
        **{key: getattr(norm, key) for key in NORM_KEYS}}}
    with open(path, "wb") as fh:    # numpy appends ".npz" to a path
        np.savez(fh, meta=np.array(json.dumps(meta)),
                 **model.params)


def load_model(path) -> LcfModel:
    """Read a ``save_model`` archive; anything else, a text checkpoint of
    earlier versions or a cut-off archive included, is a ValueError naming
    the file and asking for it to be regenerated."""
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != b"PK\x03\x04":    # how every zip archive starts
                raise ValueError("not a checkpoint archive (text checkpoints of "
                                 "earlier versions are not read)")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                arrays = dict(archive)
            if "meta" not in arrays:
                raise ValueError("no 'meta' entry")
            meta = require_keys(json.loads(arrays.pop("meta").item()),
                                ("config", "norm"), "meta")
            config = from_json(ModelConfig, meta["config"], "meta.config")
            norm = read_json(meta["norm"], NORM_KINDS, "meta.norm")
            feat = [np.array(norm[key], dtype=float) for key in FEAT_KEYS]
            for key, value in zip(FEAT_KEYS, feat):
                if len(value) != N_FEATURES:
                    raise ValueError(f"meta.norm: {key} must hold {N_FEATURES} "
                                     f"numbers, got {meta['norm'][key]!r}")
            model = LcfModel(config, Normalization(
                MinMaxStats(*feat), **{key: float(norm[key]) for key in NORM_KEYS}),
                state=arrays)
        except (ValueError, TypeError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}; regenerate it with lcftraffic "
                             "train") from None
    return model
