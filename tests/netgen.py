"""Seeded random road networks for property tests."""

import numpy as np

from lcftraffic.network import Link, RoadNetwork


def random_network(rng: np.random.Generator) -> RoadNetwork | None:
    """A directed network on 4-7 scattered junctions, each ordered pair
    joined by a link with probability 0.35; None when fewer than two links
    come out. Such networks have dead ends and unreachable links."""
    n_junc = int(rng.integers(4, 8))
    junctions = {i: (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
                 for i in range(n_junc)}
    links = []
    lid = 0
    for a in range(n_junc):
        for b in range(n_junc):
            if a != b and rng.random() < 0.35:
                links.append(Link(lid, a, b, float(rng.uniform(50, 400)),
                                  2, 0, 25.0))
                lid += 1
    if len(links) < 2:
        return None
    return RoadNetwork(junctions, links)
