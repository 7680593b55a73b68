"""Route random trips on estimated speed fields and compare trip times.

Every trip is routed with Dijkstra on an estimated speed field at its
departure window; the chosen path is then walked through both the estimated
and the recorded time-varying fields. Perfect estimates give exactly zero
error, and better per-link speeds give better trip times.
"""

import numpy as np

from lcftraffic import (SimConfig, Scenario, generate_grid_network,
                        generate_trips, metrics, path_travel_time,
                        random_base_od, shortest_path, simulate,
                        travel_time_experiment)

net = generate_grid_network(4, 4, 100.0, 3, vff_kmh=25.0, length_jitter=0.3,
                            jitter_seed=1)
od = random_base_od(net, n_pairs=8, rate_veh_h=200.0, seed=9)
cfg = SimConfig(warmup_s=900.0, peak_s=3600.0, total_s=5400.0)
record = simulate(net, Scenario(id=0, od=od, scale=1.0, bus_links=(), seed=9), cfg)

trips = generate_trips(net, 200, seed=4, horizon=(5, record.n_windows - 1))
print(f"{len(trips)} random trips, departures over windows 5..{record.n_windows - 1}")

one = trips[0]
path = shortest_path(net, record.speeds[one.departure], one.origin,
                     one.destination)
seconds, _ = path_travel_time(net, path, record.speeds, one.departure,
                              record.window_s)
print(f"example trip {one.origin} -> {one.destination} at window "
      f"{one.departure}: path {path}, {seconds:.0f}s on recorded speeds")

fields = {
    "recorded speeds": record.speeds,
    "network mean": np.tile(record.mean_speed[:, None], (1, net.n_links)),
    "free-flow naive": np.full_like(record.speeds, 25.0),
}
print("\n estimate           trip MAE (s)   RMSE (s)")
for name, field in fields.items():
    result = travel_time_experiment(net, np.maximum(field, 1.0), record.speeds,
                                    trips, record.window_s, model=name)
    # the harness's trip metrics: each error against a zero error
    report = metrics(result.errors, np.zeros_like(result.errors))
    print(f" {name:17s} {report.mae:12.1f} {report.rmse:10.1f}")
