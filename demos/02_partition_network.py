"""Cluster a network into homogeneous sub-regions.

Each link becomes a weighted 3-d point (location, location, peak-period
speed) and k-means groups the links; the speed dimension makes the regions
track congestion classes, not just geography. The script prints the region
of every street as a small ASCII map.
"""

import os

import numpy as np

from lcftraffic import (PartitionParams, SimConfig, Scenario,
                        generate_grid_network, partition_network,
                        random_base_od, save_partition, simulate)

net = generate_grid_network(5, 5, 100.0, 3, vff_kmh=25.0, length_jitter=0.3,
                            jitter_seed=1)
od = random_base_od(net, n_pairs=10, rate_veh_h=150.0, seed=3)
cfg = SimConfig(warmup_s=900.0, peak_s=4500.0, total_s=7200.0)
record = simulate(net, Scenario(id=0, od=od, scale=1.0, bus_links=(), seed=3), cfg)

params = PartitionParams(k=4, alpha=1.0, beta=1.5, t_window=2, t_max=20, seed=0)
part = partition_network(net, record, params)
print(f"k={params.k}, alpha={params.alpha}, beta={params.beta}: "
      f"region sizes {part.region_sizes()}")

print("\nregion label of the eastbound link leaving each junction:")
cols = 5
for r in range(cols):
    row = []
    for c in range(cols - 1):
        jid = r * cols + c
        east = [lk for lk in net.links
                if lk.from_junction == jid and lk.to_junction == jid + 1]
        row.append(str(part[east[0].id]) if east else ".")
    print("   " + " ".join(row))

print("\nmean peak speed per region (km/h):")
labels = np.array([part[lk.id] for lk in net.links])
peak = record.speeds[18:23].mean(axis=0)
for k in range(params.k):
    print(f"  region {k}: {peak[labels == k].mean():6.2f}  "
          f"({(labels == k).sum()} links)")

os.makedirs("demo_out", exist_ok=True)
save_partition(part, "demo_out/partition.json")
print("\npartition written to demo_out/partition.json")
