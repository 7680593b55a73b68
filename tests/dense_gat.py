"""The dense form of the estimator's attention, kept as an oracle for the
edge-list path: every head scores all (links x links) pairs, masks the
pairs off the link graph and takes a row-wise softmax. Memory grows with
the square of the link count, so it is for tests on small networks only."""

import numpy as np

from lcftraffic.model import LEAKY_SLOPE
from lcftraffic.network import LinkGraph


def graph_of(mask: np.ndarray) -> LinkGraph:
    """The link graph whose edges are the set entries of a bool mask (plus
    the self-loops)."""
    return LinkGraph.of_pairs(len(mask), *np.nonzero(mask))


def mask_of(graph: LinkGraph) -> np.ndarray:
    mask = np.zeros((graph.n_links, graph.n_links), dtype=bool)
    mask[graph.src, graph.dst] = True
    return mask


def dense_spatial_embed(model, feats: np.ndarray, graph: LinkGraph) -> np.ndarray:
    """``model.spatial_embed`` of a GAT model, in float64, from dense
    (links x links) scores and coefficients."""
    mask = mask_of(graph)
    out = 0.0
    for k in range(model.config.heads):
        w, a_src, a_dst = (model.params[f"gat.h{k}.{name}"]
                           for name in ("W", "a_src", "a_dst"))
        wh = feats @ w
        scores = wh @ a_src + (wh @ a_dst).T
        scores = np.where(scores > 0, scores, LEAKY_SLOPE * scores)
        scores = np.where(mask, scores, -np.inf)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        out = out + np.maximum((e / e.sum(axis=1, keepdims=True)) @ wh, 0.0)
    return out / model.config.heads
