"""The forward heap search that routed trips before ``network.dijkstra``,
kept as an oracle for ``evaluate.shortest_path``: it records a predecessor
per link as it relaxes, and an equal-cost relaxation keeps the predecessor
with the smaller link id."""

import heapq
import math

import numpy as np

from lcftraffic.network import link_travel_times


def oracle_shortest_path(net, speeds_kmh: np.ndarray, origin: int,
                         destination: int) -> list[int] | None:
    idx = net.index
    tau = link_travel_times(idx.length_m, speeds_kmh).tolist()
    src = net.link_index(origin)
    dst = net.link_index(destination)
    dist = [math.inf] * net.n_links
    pred = [-1] * net.n_links
    dist[src] = tau[src]
    heap = [(dist[src], src)]
    # link indices follow link ids, so the smaller index is the smaller id;
    # an unset predecessor (-1) never wins a tie
    while heap:
        d, z = heapq.heappop(heap)
        if d > dist[z]:
            continue
        if z == dst:
            break
        for nxt in idx.down_of[z]:
            cand = d + tau[nxt]
            if cand < dist[nxt] or (cand == dist[nxt] and z < pred[nxt]):
                dist[nxt] = cand
                pred[nxt] = z
                heapq.heappush(heap, (cand, nxt))
    if math.isinf(dist[dst]):
        return None
    path = [dst]
    while path[-1] != src:
        path.append(pred[path[-1]])
    return [net.links[z].id for z in reversed(path)]
