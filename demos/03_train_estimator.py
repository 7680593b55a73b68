"""Train the per-link speed estimator and compare it with the baselines.

Generates a small scenario corpus (randomized OD volumes and bus-lane
layouts), partitions the network, trains the attention + GRU estimator at
reduced dimensions, and prints test MAE next to the network-mean-speed
baseline, its partitioned variant and a linear regression.

Takes a couple of minutes; shrink --epochs or the corpus to go faster.
"""

import time

import numpy as np

from lcftraffic import (ModelConfig, PartitionParams, SimConfig, TrainConfig,
                        build_dataset, generate_grid_network, partition_network,
                        random_base_od, train)
from lcftraffic.harness import evaluate_speed_split, fit_lr_estimator

t0 = time.time()
net = generate_grid_network(4, 4, 100.0, 3, vff_kmh=25.0, length_jitter=0.3,
                            jitter_seed=1)
cfg = SimConfig(warmup_s=900.0, peak_s=3600.0, total_s=5400.0)
base = random_base_od(net, n_pairs=8, rate_veh_h=150.0, seed=5)
dataset = build_dataset(net, base, n=12, master_seed=5, cfg=cfg)
print(f"corpus: {len(dataset.scenarios)} scenarios "
      f"({len(dataset.splits['train'])}/{len(dataset.splits['val'])}/"
      f"{len(dataset.splits['test'])} split) in {time.time() - t0:.0f}s")

part = partition_network(net, dataset.records[dataset.splits["train"][0]],
                         PartitionParams(seed=5, t_max=15))

model_cfg = ModelConfig(hidden_dim=32, fc_hidden=(64, 32, 16),
                        output_type="Speed", seed=5)
train_cfg = TrainConfig(epochs=60)
t0 = time.time()
model, history = train(net, dataset, part, model_cfg, train_cfg)
print(f"trained {model.config.name} ({model.parameter_count()} parameters) "
      f"in {time.time() - t0:.0f}s; "
      f"best val loss {min(h['val_loss'] for h in history):.4f}")

lr_model = fit_lr_estimator(net, dataset)
reports, _ = evaluate_speed_split(
    net, dataset, part, ["MFD", "MFD-P", "LR", "GAT-GRU-P"],
    {"GAT-GRU-P": model}, lr_model)
print("\n model       MAE km/h   RMSE km/h   err mean")
for rep in reports:
    print(f" {rep.model:10s} {rep.mae:8.3f} {rep.rmse:10.3f} {rep.err_mean:10.3f}")

mfd = reports[0]
ours = reports[-1]
print(f"\nestimator error is {(1 - ours.mae / mfd.mae) * 100:.0f}% below the "
      f"network-mean-speed baseline")
