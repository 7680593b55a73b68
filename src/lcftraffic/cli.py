"""Command-line pipeline: gen-network, gen-dataset, simulate, partition,
train, evaluate, travel-time, report.

Options resolve in three layers: built-in defaults, then a flat
``key = value`` config file (--config), whose entries are read as the flags
they name, then explicit flags. Every command writes only below --out,
exits 0 on success, 1 on validation problems and 2 on runtime failures, and
is reproducible given the same seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from itertools import zip_longest

from . import harness
from .config import check_value
from .model import (ModelConfig, TrainConfig, config_from_name, load_model,
                    save_model, train)
from .network import generate_grid_network, load_network, save_network
from .partition import (PartitionParams, load_partition, partition_network,
                        save_partition)
from .scenarios import (DEMAND_LEVELS, Scenario, build_dataset,
                        bus_lane_candidates, load_dataset, load_od,
                        random_base_od, save_dataset, save_od)
from .simulate import (SimConfig, SimulationError, check_od_pairs, save_record,
                       simulate)
from .evaluate import export_report


def log_line(msg: str, **kv) -> None:
    tail = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"{msg} {tail}".rstrip(), file=sys.stderr)


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ValidationError(message)


def _bool(v: str) -> bool:
    if str(v).lower() in ("1", "true", "yes", "on"):
        return True
    if str(v).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _int_list(v: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(v).split(",") if x)


def _load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse(parser: argparse.ArgumentParser, argv: list[str]):
    """Parse ``argv``; a --config file's entries go in as ``--key=value``
    flags right after the command, so explicit flags, parsed later, win."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    entries = _load_config_file(args.config)
    for key in entries:
        if key in ("command", "config") or key not in vars(args):
            raise ValidationError(f"unknown config key {key!r} for {args.command}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]
    return parser.parse_args(argv[:1] + flags + argv[1:])


# (flag, config class, field, help): the option sets the field, whose default
# is the option's; the default's type parses the value
SIM_OPTS = [
    ("--step", SimConfig, "step_s", "simulation step seconds"),
    ("--window", SimConfig, "window_s", "aggregation window seconds"),
    ("--warmup", SimConfig, "warmup_s", "warm-up seconds"),
    ("--peak", SimConfig, "peak_s", "constant peak-demand seconds"),
    ("--total", SimConfig, "total_s", "total simulated seconds"),
    ("--saturation-flow", SimConfig, "saturation_flow", "saturation flow veh/s/lane"),
    ("--vehicle-length", SimConfig, "vehicle_length", "storage spacing m/veh"),
    ("--congestion-threshold", SimConfig, "congestion_threshold",
     "occupancy fraction that blocks inflow"),
    ("--v-min", SimConfig, "v_min_kmh", "speed floor km/h"),
    ("--turn-update", SimConfig, "turn_update_s", "turn-ratio refresh seconds"),
    ("--turn-smoothing", SimConfig, "turn_smoothing", "turn-ratio smoothing weight"),
]
TRAIN_OPTS = [
    ("--lr", TrainConfig, "lr", "initial learning rate"),
    ("--lr-step", TrainConfig, "lr_step", "learning-rate decay step size"),
    ("--lr-gamma", TrainConfig, "lr_gamma", "learning-rate decay factor"),
    ("--weight-decay", TrainConfig, "weight_decay", "decoupled weight decay"),
    ("--epochs", TrainConfig, "epochs", "training epochs"),
    ("--heads", ModelConfig, "heads", "attention heads"),
    ("--hidden", ModelConfig, "hidden_dim", "spatial/temporal embedding width"),
    ("--fc-dims", ModelConfig, "fc_hidden", "hidden widths of the estimation head"),
    ("--history", ModelConfig, "history_len",
     "mean-speed history length fed to the GRU, front-padded with -1.0"
     " before the first window"),
    ("--output-type", ModelConfig, "output_type", "output format: Ratio, Diff or Speed"),
    ("--stride", TrainConfig, "window_stride", "window subsampling stride for training"),
]
PART_OPTS = [
    ("--clusters", PartitionParams, "k", "number of sub-regions (K)"),
    ("--alpha", PartitionParams, "alpha", "location weight in the clustering space"),
    ("--beta", PartitionParams, "beta", "peak-speed weight in the clustering space"),
    ("--t-window", PartitionParams, "t_window",
     "half-width (windows) of the peak interval"),
    ("--t-max", PartitionParams, "t_max", "window index of maximum production"),
]


def _fields(o, cls) -> dict:
    """The ``cls`` fields that the option tables set, from the options."""
    return {field: getattr(o, flag[2:].replace("-", "_"))
            for flag, c, field, _ in SIM_OPTS + TRAIN_OPTS + PART_OPTS if c is cls}


def build_parser() -> _Parser:
    parser = _Parser(prog="lcftraffic",
                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text, specs):
        # no abbreviations: evaluate would read --model as --models
        s = subs.add_parser(
            name, help=help_text, allow_abbrev=False,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        s.add_argument("--config", help="flat key = value option file; "
                                        "flags override it")
        for row in [("--out", "out", "output directory")] + specs:
            flag, default, help_opt = row if len(row) == 3 else \
                (row[0], getattr(row[1], row[2]), row[3])
            typ = {bool: _bool, tuple: _int_list}.get(type(default),
                                                      type(default))
            s.add_argument(flag, type=typ, default=default, help=help_opt)

    sub("gen-network", "generate a grid road network", [
        ("--grid", "5x5", "grid size ROWSxCOLS"),
        ("--link-length", 100.0, "link length meters"),
        ("--lanes", 3, "lanes per link"),
        ("--vff", 25.0, "free-flow speed km/h"),
        ("--signals", True, "signalize every junction"),
        ("--cycle", 90.0, "signal cycle seconds"),
        ("--green-split", 0.5, "green share of the first phase"),
        ("--length-jitter", 0.0, "street length variation fraction"),
        ("--jitter-seed", 0, "seed for the length variation"),
    ])
    seed = ("--seed", 0, "master seed")
    network = ("--network", "", "network file (default <out>/network.txt)")
    dataset = ("--dataset-dir", "", "dataset directory (default <out>/dataset)")
    inputs = [seed, dataset, network,
              ("--partition-file", "", "partition file (default <out>/partition.json)")]
    scoring = inputs + [
        ("--models", ",".join(harness.STANDARD_MODELS),
         "comma-separated model list"),
        ("--split", "test", "dataset split to evaluate"),
        ("--scenario-class", "", "label for the report rows"),
    ]
    sub("gen-dataset", "simulate a randomized scenario corpus", [
        seed, network,
        ("--od", "", "base OD file; generated when omitted"),
        ("--od-pairs", 10, "synthesized OD pair count"),
        ("--od-rate", 300.0, "synthesized per-pair demand veh/h"),
        ("--scenarios", 20, "number of scenarios"),
        ("--demand", "medium", "demand level: low, medium or high"),
        ("--bus-lanes", 0, "bus-lane links per scenario (0 = auto)"),
        dataset,
    ] + SIM_OPTS)
    sub("simulate", "run one scenario to a record", [
        network,
        ("--od", "", "OD file (required)"),
        ("--scale", 1.0, "demand scale factor"),
        ("--record-dir", "", "record directory (default <out>/record)"),
    ] + SIM_OPTS)
    sub("partition", "cluster links into sub-regions", [
        seed, dataset, network,
        ("--partition-file", "", "output file (default <out>/partition.json)"),
    ] + PART_OPTS)
    sub("train", "train an estimator variant", inputs + [
        ("--model", "gat-gru-p", "estimator variant (dnn, dnn-gru, gat,"
                                 " gat-gru, plus -p suffix)")] + TRAIN_OPTS)
    sub("evaluate", "per-link speed metrics for the model suite",
        scoring + TRAIN_OPTS)
    sub("travel-time", "random-trip travel-time experiment",
        scoring + [("--trips", 1000, "number of random trips")] + TRAIN_OPTS)
    # report reads no seed; its --seed stays while the benchmark's toy-train
    # workload passes one
    sub("report", "merge emitted metric tables", [seed])
    return parser


# ---------------------------------------------------------------------------
# command helpers
# ---------------------------------------------------------------------------

def _default(path: str, out: str, name: str) -> str:
    return path if path else os.path.join(out, name)


def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ValidationError(f"{what} not found: {path}")
    return path


def _net_path(o) -> str:
    return _default(o.network, o.out, "network.txt")


def _load_net(o):
    return load_network(_require(_net_path(o), "network file"))


def _load_ds(o, net):
    """The dataset, whose records must hold ``net``'s links in its order."""
    path = _require(_default(o.dataset_dir, o.out, "dataset"), "dataset directory")
    dataset = load_dataset(path)
    first = next(iter(dataset.records.values()), None)
    if first is not None and first.link_ids != net.link_ids():
        i, found, wanted = next((i, a, b) for i, (a, b) in enumerate(
            zip_longest(first.link_ids, net.link_ids())) if a != b)
        found, wanted = ("no link" if v is None else f"link {v}" for v in (found, wanted))
        raise ValidationError(f"dataset {path} does not match network file "
                              f"{_net_path(o)}: at position {i} its records hold "
                              f"{found} and the network {wanted}")
    return dataset


def _load_od(o, net):
    """The --od file, each of whose pairs must join two links of ``net``."""
    path = _require(o.od, "OD file")
    od = load_od(path)
    try:
        check_od_pairs(net, od.pairs)
    except ValueError as exc:
        raise ValidationError(f"{exc} (OD file {path}, network file "
                              f"{_net_path(o)})") from None
    return od


def _load_stack(o):
    net = _load_net(o)
    dataset = _load_ds(o, net)
    path = _require(_default(o.partition_file, o.out, "partition.json"),
                    "partition file")
    part = load_partition(path)
    extra = sorted(set(part.labels) - set(net.link_ids()))
    missing = sorted(set(net.link_ids()) - set(part.labels))
    if extra or missing:
        raise ValidationError(f"{path}: " + (
            f"labels link {extra[0]}, which is not in {_net_path(o)}" if extra
            else f"no label for link {missing[0]} of {_net_path(o)}"))
    return net, dataset, part


def _checkpoint_path(o, name: str) -> str:
    return os.path.join(o.out, "models", f"{name}.ckpt")


def _is_estimator(name: str) -> bool:
    try:
        return config_from_name(name) is not None
    except ValueError:
        return False


def _model_config(o, name: str):
    return config_from_name(name, **_fields(o, ModelConfig), seed=o.seed)


def _train_and_save(o, net, dataset, part, name: str):
    """Train variant ``name`` (lower case) with the command's options and
    write its checkpoint and loss history under <out>/models/."""
    model, history = train(net, dataset, part, _model_config(o, name),
                           TrainConfig(**_fields(o, TrainConfig)))
    os.makedirs(os.path.join(o.out, "models"), exist_ok=True)
    save_model(model, _checkpoint_path(o, name))
    _write_history(history, os.path.join(o.out, "models", f"{name}_history.csv"))
    return model, history


def _obtain_models(o, net, dataset, part, names) -> dict:
    """Load cached checkpoints, training (and caching) any missing variant;
    a checkpoint whose model differs from the command's options is an error."""
    models = {}
    for key in names:
        if not _is_estimator(key):
            continue
        path = _checkpoint_path(o, key.lower())
        if os.path.exists(path):
            models[key] = load_model(path)
            got = models[key].config
            # the seed is the training run's, and no option sets the dtype
            want = dataclasses.replace(_model_config(o, key.lower()),
                                       seed=got.seed, dtype=got.dtype)
            for field, value in dataclasses.asdict(got).items():
                if value != getattr(want, field):
                    raise ValidationError(
                        f"{path} holds {field} = {value!r}, but the options "
                        f"give {getattr(want, field)!r}")
            log_line("loaded checkpoint", model=key.lower(), path=path)
        else:
            log_line("training missing variant", model=key.lower())
            models[key], _ = _train_and_save(o, net, dataset, part, key.lower())
    return models


def _write_history(history, path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,lr,train_loss,val_loss\n")
        for row in history:
            fh.write(f"{int(row['epoch'])},{row['lr']!r},"
                     f"{row['train_loss']!r},{row['val_loss']!r}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_network(o) -> int:
    try:
        rows, cols = (int(v) for v in o.grid.lower().split("x"))
    except ValueError:
        raise ValidationError(f"--grid expects ROWSxCOLS, got {o.grid!r}")
    net = generate_grid_network(rows, cols, o.link_length, o.lanes,
                                vff_kmh=o.vff, with_signals=o.signals,
                                cycle_s=o.cycle, green_split=o.green_split,
                                length_jitter=o.length_jitter,
                                jitter_seed=o.jitter_seed)
    os.makedirs(o.out, exist_ok=True)
    path = os.path.join(o.out, "network.txt")
    save_network(net, path)
    log_line("network written", path=path, links=net.n_links,
             junctions=len(net.junctions))
    return 0


def cmd_gen_dataset(o) -> int:
    net = _load_net(o)
    cfg = SimConfig(**_fields(o, SimConfig))
    check_value("--demand", o.demand, "str", one_of=tuple(DEMAND_LEVELS))
    check_value("--bus-lanes", o.bus_lanes, "int", ge=0)
    pool = len(bus_lane_candidates(net))
    if o.bus_lanes > pool:
        raise ValidationError(f"--bus-lanes {o.bus_lanes} exceeds the network's "
                              f"{pool} bus-lane candidates")
    if o.od:
        base = _load_od(o, net)
    else:
        base = random_base_od(net, o.od_pairs, o.od_rate, seed=o.seed)
    os.makedirs(o.out, exist_ok=True)
    save_od(base, os.path.join(o.out, "od.txt"))
    ds = build_dataset(net, base, n=o.scenarios, master_seed=o.seed, cfg=cfg,
                       bus_lane_count=o.bus_lanes or None,
                       demand_level=o.demand)
    ds_dir = _default(o.dataset_dir, o.out, "dataset")
    save_dataset(ds, ds_dir)
    log_line("dataset written", dir=ds_dir, scenarios=len(ds.scenarios),
             train=len(ds.splits["train"]), val=len(ds.splits["val"]),
             test=len(ds.splits["test"]), demand=o.demand)
    return 0


def cmd_simulate(o) -> int:
    net = _load_net(o)
    if not o.od:
        raise ValidationError("simulate needs --od")
    od = _load_od(o, net)
    sc = Scenario(id=0, od=od, scale=o.scale, bus_links=(), seed=0)
    record = simulate(net, sc, SimConfig(**_fields(o, SimConfig)))
    rec_dir = _default(o.record_dir, o.out, "record")
    save_record(record, rec_dir)
    log_line("record written", dir=rec_dir, windows=record.n_windows,
             completed=float(record.completed.sum()))
    return 0


def cmd_partition(o) -> int:
    net = _load_net(o)
    dataset = _load_ds(o, net)
    first_train = dataset.splits["train"][0]
    record = dataset.records[first_train]
    part = partition_network(net, record, PartitionParams(
        **_fields(o, PartitionParams), seed=o.seed))
    path = _default(o.partition_file, o.out, "partition.json")
    save_partition(part, path)
    log_line("partition written", path=path, k=o.clusters,
             sizes=",".join(str(s) for s in part.region_sizes()),
             source_scenario=first_train)
    return 0


def cmd_train(o) -> int:
    net, dataset, part = _load_stack(o)
    name = o.model.lower()
    _, history = _train_and_save(o, net, dataset, part, name)
    log_line("model written", model=name, path=_checkpoint_path(o, name),
             best_val=min(h["val_loss"] for h in history),
             epochs=len(history))
    return 0


def _parse_models(o) -> list[str]:
    names = [m.strip().upper() for m in o.models.split(",") if m.strip()]
    for name in names:
        if name not in ("TRUTH",) + harness.STANDARD_MODELS \
                and not _is_estimator(name):
            raise ValidationError(f"unknown model {name!r}")
    return names


def _evaluate(o, section: str, evaluate_split, **kwargs):
    """Score the --models list on --split with ``evaluate_split`` (a
    harness protocol) and write the report under <out>/reports/<section>."""
    net, dataset, part = _load_stack(o)
    check_value("--split", o.split, "str", one_of=tuple(dataset.splits))
    names = _parse_models(o)
    models = _obtain_models(o, net, dataset, part, names)
    if "LR" in names:
        models["LR"] = harness.fit_lr_estimator(net, dataset)
    reports, samples = evaluate_split(
        net, dataset, part, names, models, split=o.split,
        scenario_class=o.scenario_class, **kwargs)
    export_report(reports, os.path.join(o.out, "reports", section), samples)
    return reports


def cmd_evaluate(o) -> int:
    for rep in _evaluate(o, "speed", harness.evaluate_speed_split):
        log_line("speed metrics", model=rep.model, split=o.split,
                 mae=round(rep.mae, 4), rmse=round(rep.rmse, 4))
    return 0


def cmd_travel_time(o) -> int:
    check_value("--trips", o.trips, "int", ge=1)
    for rep in _evaluate(o, "travel_time", harness.evaluate_travel_time_split,
                         n_trips=o.trips, seed=o.seed):
        log_line("trip-time metrics", model=rep.model, split=o.split,
                 mae_s=round(rep.mae, 2), rmse_s=round(rep.rmse, 2))
    return 0


def cmd_report(o) -> int:
    reports_dir = os.path.join(o.out, "reports")
    sections = []
    for section in ("speed", "travel_time"):
        table = os.path.join(reports_dir, section, "report_table.csv")
        if os.path.exists(table):
            sections.append((section, table))
    if not sections:
        raise ValidationError(f"no report tables under {reports_dir}")
    merged = os.path.join(reports_dir, "report_table.csv")
    os.makedirs(reports_dir, exist_ok=True)
    with open(merged, "w") as out_fh:
        out_fh.write("section,model,scenario_class,metric,value\n")
        for section, table in sections:
            with open(table) as fh:
                next(fh)
                for line in fh:
                    out_fh.write(f"{section},{line}")
    log_line("report written", path=merged,
             sections=",".join(s for s, _ in sections))
    return 0


COMMANDS = {
    "gen-network": cmd_gen_network,
    "gen-dataset": cmd_gen_dataset,
    "simulate": cmd_simulate,
    "partition": cmd_partition,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "travel-time": cmd_travel_time,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[args.command](args)
    # ValidationError and NetworkError are ValueErrors
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
