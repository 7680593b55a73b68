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
with the edges, and no (links x links) array is built.

Precision: the model runs in ``ModelConfig.dtype``, float32 by default. The
attention heads' parameters and arithmetic stay float64, so each link's
coefficients sum to 1 within float64 rounding, and ``spatial_embed`` casts
its output to the model dtype. Normalization statistics, decoding and everything
downstream of a prediction stay float64.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .config import bounded, check, from_json, require_keys
from .network import (LinkGraph, MinMaxStats, N_FEATURES, RoadNetwork,
                      build_link_graph, extract_features, fit_minmax,
                      minmax_scale, minmax_unscale)
from .nn import Tensor

log = logging.getLogger(__name__)

PAD_VALUE = -1.0
LEAKY_SLOPE = 0.2    # negative slope of the attention scores' leaky ReLU
# (window, link) rows the head takes per call in predict_windows; a block
# never splits a window, so it holds one window when a window alone is larger
PREDICT_BLOCK_ROWS = 2048
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
    """Parameter container plus forward pass."""

    def __init__(self, config: ModelConfig, norm: Normalization | None = None,
                 state: dict[str, np.ndarray] | None = None):
        """Parameters from ``state`` when given (names and shapes must
        match; each array is cast to its parameter's dtype), else a Glorot
        draw seeded by ``config.seed``."""
        self.config = config
        self.norm = norm
        self.dtype = np.dtype(config.dtype)
        rng = np.random.default_rng(config.seed)
        h = config.hidden_dim
        self.params: dict[str, Tensor] = {}  # in creation order

        def make(name: str, shape, zero=False, dtype=self.dtype):
            if state is None:
                # drawn in float64, so both dtypes start from the same draws
                data = np.zeros(shape) if zero else nn.glorot(rng, shape)
            elif name not in state:
                raise ValueError(f"array {name!r} is missing; expected shape {shape}")
            elif state[name].shape != shape:
                raise ValueError(f"array {name!r} has shape {state[name].shape}, "
                                 f"expected {shape}")
            else:
                data = state[name]
            self.params[name] = Tensor(data.astype(dtype), requires_grad=True)

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

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter's data, checked and cast as ``state`` is
        in the constructor."""
        loaded = LcfModel(self.config, state=arrays).params
        for n, p in self.params.items():
            p.data = loaded[n].data

    # forward pieces -------------------------------------------------------

    def _attention(self, feats: Tensor, graph: LinkGraph,
                   head: int) -> tuple[Tensor, Tensor]:
        """One GAT head: the projected features (feats @ W) and the
        attention coefficient of every edge, (E, 1), a softmax over each
        link's edges of leaky_relu(a_src . Wh[src] + a_dst . Wh[dst])."""
        wh = nn.matmul(feats, self.params[f"gat.h{head}.W"])
        s_src = nn.matmul(wh, self.params[f"gat.h{head}.a_src"])
        s_dst = nn.matmul(wh, self.params[f"gat.h{head}.a_dst"])
        scores = nn.leaky_relu(nn.add(nn.gather(s_src, graph.src),
                                      nn.gather(s_dst, graph.dst)), LEAKY_SLOPE)
        return wh, nn.segment_softmax(scores, graph.seg_start)

    def spatial_embed(self, feats: Tensor, graph: LinkGraph) -> Tensor:
        """Each link's relu(sum over its edges of att * Wh[dst]), averaged
        over the heads; without attention, a relu dense layer."""
        cfg = self.config
        if not cfg.use_gat:
            return nn.dense(feats, self.params["dnn.W"], self.params["dnn.b"],
                            relu=True)
        heads = []
        for k in range(cfg.heads):
            wh, att = self._attention(feats, graph, k)
            heads.append(nn.relu(nn.segment_sum(
                nn.mul(att, nn.gather(wh, graph.dst)), graph.seg_start)))
        out = heads[0]
        for extra in heads[1:]:
            out = nn.add(out, extra)
        return nn.astype(nn.scale(out, 1.0 / cfg.heads), self.dtype)

    def attention_matrix(self, feats_norm: np.ndarray, graph: LinkGraph,
                         head: int = 0) -> np.ndarray:
        """Attention coefficients of one head, as spatial_embed computes
        them, as a dense (links x links) matrix that is zero off the edges:
        for diagnostics and tests on small networks."""
        with nn.no_grad():
            att = self._attention(nn.constant(feats_norm), graph, head)[1].data
        dense = np.zeros((graph.n_links, graph.n_links))
        dense[graph.src, graph.dst] = att[:, 0]
        return dense

    def temporal_embed(self, hist_norm: np.ndarray) -> Tensor:
        """GRU over (B, history_len) normalized mean-speed sequences, run in
        the model dtype."""
        cfg = self.config
        if hist_norm.shape[1] != cfg.history_len:
            raise ValueError(
                f"history length {hist_norm.shape[1]} != {cfg.history_len}")
        hist_norm = np.asarray(hist_norm, dtype=self.dtype)
        b = hist_norm.shape[0]
        h = nn.constant(np.zeros((b, cfg.hidden_dim), self.dtype))
        one = nn.constant(self.dtype.type(1.0))
        for t in range(cfg.history_len):
            x_t = nn.constant(hist_norm[:, t:t + 1])
            cat = nn.concat([h, x_t], axis=1)
            z = nn.sigmoid(nn.dense(cat, self.params["gru.Wz"],
                                    self.params["gru.bz"]))
            r = nn.sigmoid(nn.dense(cat, self.params["gru.Wr"],
                                    self.params["gru.br"]))
            cat_r = nn.concat([nn.mul(r, h), x_t], axis=1)
            h_cand = nn.tanh(nn.dense(cat_r, self.params["gru.Wc"],
                                      self.params["gru.bc"]))
            keep = nn.add(one, nn.scale(z, -1.0))
            h = nn.add(nn.mul(keep, h), nn.mul(z, h_cand))
        return h

    def fuse(self, spatial: Tensor, temporal: Tensor, batch: int) -> Tensor:
        """Head over every (window, link) pair, window-major: the first
        layer sees [spatial[link], temporal[window]] without building it."""
        cfg = self.config
        width = cfg.fc_input_dim - cfg.hidden_dim
        if spatial.data.ndim != 2 or spatial.data.shape[1] != cfg.hidden_dim \
                or temporal.data.shape != (batch, width):
            raise ValueError(
                f"fuse: spatial {spatial.data.shape} and temporal "
                f"{temporal.data.shape} do not fit the head, which expects "
                f"(n_links, {cfg.hidden_dim}) and ({batch}, {width})")
        n_layers = len(cfg.fc_hidden) + 1
        x = nn.pair_dense(spatial, temporal, self.params["fc.0.W"],
                          self.params["fc.0.b"], relu=n_layers > 1)
        for i in range(1, n_layers):
            x = nn.dense(x, self.params[f"fc.{i}.W"], self.params[f"fc.{i}.b"],
                         relu=i < n_layers - 1)
        return x

    def _embed(self, feats_norm: np.ndarray, graph: LinkGraph,
               hist_norm: np.ndarray) -> tuple[Tensor, Tensor]:
        """The head's inputs: spatial (n_links, hidden) and temporal rows,
        one per window (the GRU state, or the history's last column, the
        window's normalized mean speed). The inputs are cast to the model
        dtype, a no-op for a ``SampleBatch``."""
        spatial = self.spatial_embed(
            nn.constant(np.asarray(feats_norm, dtype=self.dtype)), graph)
        if self.config.use_gru:
            temporal = self.temporal_embed(hist_norm)
        else:
            temporal = nn.constant(
                np.asarray(hist_norm[:, -1:], dtype=self.dtype))
        return spatial, temporal

    def forward(self, feats_norm: np.ndarray, graph: LinkGraph,
                hist_norm: np.ndarray) -> Tensor:
        """Raw normalized outputs, shape (batch * n_links, 1), window-major;
        ``hist_norm`` holds one ``pad_history`` row per window."""
        spatial, temporal = self._embed(feats_norm, graph, hist_norm)
        return self.fuse(spatial, temporal, hist_norm.shape[0])

    # prediction -----------------------------------------------------------

    def predict_windows(self, net: RoadNetwork, partition,
                        vmean_kmh: np.ndarray, windows=None) -> np.ndarray:
        """Decoded per-link speeds (km/h), shape (len(windows), n_links), for
        the given windows of a mean-speed series (all of them by default).

        Runs off the tape (``nn.no_grad``). The spatial embedding and the
        GRU run once over all windows; the head then runs over balanced
        blocks of whole windows, each at most ``PREDICT_BLOCK_ROWS``
        (window, link) rows unless one window alone has more links, and
        each block is decoded into the output before the next one starts.
        Peak memory is therefore bounded by one block's head activations,
        a layer's input and output at once (2,048 x (384 + 256) x 4 B in
        float32, about 5 MB, at the default widths), not by windows x
        links; the attention's is bounded by the link graph's edges.
        Blocks of two or more windows give the same bits as one head call
        over all windows; a one-window block can differ in the last bits,
        since a one-row matrix product takes another BLAS path. The head's
        output is decoded in float64. Balancing leaves no
        lone-window block (unless the call has one window) while a block
        fits three or more windows, i.e. up to 682 links.
        """
        if self.norm is None:
            raise ValueError("model has no normalization statistics; train first")
        cfg = self.config
        vmean_kmh = np.asarray(vmean_kmh, dtype=float)
        if windows is None:
            windows = range(len(vmean_kmh))
        windows = list(windows)
        feats = extract_features(net, partition if cfg.use_partition else None)
        feats_norm = self.norm.feat.apply(feats)
        graph = build_link_graph(net)
        hist = pad_history(self.norm.norm_vmean(vmean_kmh), cfg.history_len)[windows]
        vff = net.index.vff_kmh
        v_now = vmean_kmh[windows, None]
        n_links = net.n_links
        per_block = max(1, PREDICT_BLOCK_ROWS // n_links)
        n_blocks = -(-len(windows) // per_block)
        out = np.empty((len(windows), n_links))
        with nn.no_grad():
            spatial, temporal = self._embed(feats_norm, graph, hist)
            for block in np.array_split(np.arange(len(windows)), n_blocks):
                b = slice(block[0], block[-1] + 1)
                raw = self.fuse(spatial, nn.constant(temporal.data[b]),
                                len(block)).data.reshape(len(block), n_links)
                raw = raw.astype(np.float64)
                out[b] = decode_output(self.norm.denorm_target(raw), v_now[b],
                                       cfg.output_type, vff)
        return out


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


def _batch_loss(model: LcfModel, batch: SampleBatch) -> Tensor:
    pred = model.forward(batch.feats_norm, batch.adj, batch.hist)
    return nn.mse_loss(pred, nn.constant(batch.targets))


def train(net: RoadNetwork, dataset, partition, model_cfg: ModelConfig,
          train_cfg: TrainConfig | None = None,
          ) -> tuple[LcfModel, list[dict[str, float]]]:
    """Minimize MSE on normalized targets with AdamW + staircase LR decay;
    returns the best-validation checkpoint and the loss history.
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
    if not train_batches or not val_batches:
        raise ValueError("dataset must provide non-empty train and val splits")

    params = model.parameters()
    opt = nn.AdamW(params, lr=tc.lr, weight_decay=tc.weight_decay)
    rng = np.random.default_rng(model_cfg.seed)
    history: list[dict[str, float]] = []
    best_val = np.inf
    best_state = {n: t.data.copy() for n, t in model.params.items()}

    for epoch in range(tc.epochs):
        opt.lr = nn.steplr(tc.lr, tc.lr_step, tc.lr_gamma, epoch)
        order = rng.permutation(len(train_batches))
        epoch_loss = 0.0
        for bi in order:
            nn.zero_grads(params)
            loss = _batch_loss(model, train_batches[bi])
            if not np.isfinite(loss.data):
                raise RuntimeError(
                    f"training diverged at epoch {epoch} (loss={loss.data})")
            nn.backward(loss)
            opt.step()
            epoch_loss += loss.item()
        with nn.no_grad():
            val_loss = float(np.mean([_batch_loss(model, b).item()
                                      for b in val_batches]))
        history.append({"epoch": epoch, "lr": opt.lr,
                        "train_loss": epoch_loss / len(order),
                        "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_state = {n: t.data.copy() for n, t in model.params.items()}

    model.load_state(best_state)
    return model, history


# ---------------------------------------------------------------------------
# checkpoints: an .npz archive of the parameters, each in its own dtype, and
# a "meta" entry, the JSON of the ModelConfig and the normalization statistics
# ---------------------------------------------------------------------------

NORM_KEYS = ("vmean_lo", "vmean_hi", "target_lo", "target_hi")


def save_model(model: LcfModel, path) -> None:
    norm = model.norm
    meta = {"config": asdict(model.config), "norm": {
        "feat_lo": norm.feat.lo.tolist(), "feat_hi": norm.feat.hi.tolist(),
        **{key: getattr(norm, key) for key in NORM_KEYS}}}
    with open(path, "wb") as fh:    # numpy appends ".npz" to a path
        np.savez(fh, meta=np.array(json.dumps(meta)),
                 **{n: p.data for n, p in model.params.items()})


def load_model(path) -> LcfModel:
    """Read a ``save_model`` archive; anything else, a text checkpoint of
    earlier versions included, is a ValueError naming the file."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":    # how every zip archive starts
            raise ValueError(f"{path}: not a checkpoint archive (text checkpoints"
                             f" of earlier versions are not read); retrain the model")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = dict(archive)
            if "meta" not in arrays:
                raise ValueError("no 'meta' entry")
            meta = require_keys(json.loads(arrays.pop("meta").item()),
                                ("config", "norm"), "meta")
            config = from_json(ModelConfig, meta["config"], "meta.config")
            norm = require_keys(meta["norm"], ("feat_lo", "feat_hi") + NORM_KEYS,
                                "meta.norm")
            stats = {key: np.array(value, dtype=float) for key, value in norm.items()}
            for key, value in stats.items():
                want = ((N_FEATURES,), f"{N_FEATURES} finite numbers") \
                    if key.startswith("feat") else ((), "a finite number")
                if value.shape != want[0] or not np.isfinite(value).all():
                    raise ValueError(f"meta {key!r} must be {want[1]}, "
                                     f"got {norm[key]!r}")
            model = LcfModel(config, Normalization(
                feat=MinMaxStats(lo=stats["feat_lo"], hi=stats["feat_hi"]),
                **{key: float(stats[key]) for key in NORM_KEYS}), state=arrays)
        except (ValueError, TypeError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return model
