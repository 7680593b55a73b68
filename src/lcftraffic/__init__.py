"""Traffic simulation and learned per-link speed estimation.

The package couples a queue-based store-and-forward urban traffic
simulator (the ground-truth generator) with an estimator that corrects the
network mean speed into per-link speeds from the network configuration:
attention over the link graph, a GRU over the mean-speed history, and a
fully connected head, optionally augmented with a k-means network
partition. Baselines and a travel-time evaluation harness round out the
toolkit.
"""

from .network import (FEATURE_NAMES, Link, LinkGraph, MinMaxStats,
                      NetworkError, RoadNetwork, SignalPlan, build_link_graph,
                      extract_features, fit_minmax, generate_grid_network,
                      load_network, save_network)
from .simulate import (SimConfig, SimRecord, SimulationError, SimState,
                       check_turn_ratios, initial_turn_ratios, load_record,
                       network_mfd, network_stats, save_record, simulate,
                       storage_capacity, update_turn_ratios)
from .scenarios import (DEMAND_LEVELS, Dataset, ODMatrix, Scenario,
                        build_dataset, bus_lane_candidates, load_dataset,
                        load_od, perturb_od, random_base_od,
                        sample_bus_lane_config, save_dataset, save_od,
                        split_sizes)
from .partition import (PartitionAssignment, PartitionParams,
                        build_cluster_points, kmeans, load_partition,
                        partition_network, peak_window_speed, save_partition)
from .model import (LcfModel, ModelConfig, Normalization, TrainConfig,
                    config_from_name, decode_output, encode_targets,
                    load_model, pad_history, save_model, train)
from .baselines import LinearModel, fit_lr, region_mean_speeds
from .evaluate import (MetricReport, Trip, export_report, generate_trips,
                       metrics, path_travel_time, shortest_path,
                       travel_time_experiment)

__version__ = "0.1.0"
