"""Scenario corpus generation: randomized OD demand, demand scaling,
bus-lane configurations and train/val/test dataset assembly.

All randomness flows from one master seed through numpy SeedSequence
spawning, so a dataset manifest is reproducible byte-for-byte. An OD file
and a manifest are JSON, read through ``config.read_json``.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .config import from_json, load_json, read_json
from .network import RoadNetwork
from .simulate import (SimConfig, SimRecord, SimulationError, load_record,
                       save_record, simulate)

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "val", "test")

# demand-level multipliers for robustness testing
DEMAND_LEVELS = {"low": 0.7, "medium": 1.0, "high": 1.3}


@dataclass(frozen=True)
class ODMatrix:
    pairs: tuple[tuple[int, int], ...]   # (origin link id, destination link id)
    rates: tuple[float, ...]             # veh/h during the peak phase
    ramp_fraction: float = 1.0           # share of warmup spent ramping 0 -> peak

    def __post_init__(self):
        if len(self.pairs) != len(self.rates):
            raise ValueError("pairs and rates must align")
        for r in self.rates:
            if not 0 <= r < np.inf:  # NaN fails it too
                raise ValueError(f"OD rates must be finite and >= 0, got {r!r}")
        if not 0 <= self.ramp_fraction <= 1:  # NaN fails it too
            raise ValueError(f"ramp fraction must be in [0, 1], "
                             f"got {self.ramp_fraction!r}")

    def total(self) -> float:
        return float(sum(self.rates))


def perturb_od(base: ODMatrix, factors) -> ODMatrix:
    """Scale each entry by its factor, then rescale so the total demand is
    unchanged. Factors must lie within [0.8, 1.2]."""
    factors = np.asarray(factors, dtype=float)
    if factors.shape != (len(base.pairs),):
        raise ValueError("one factor per OD pair required")
    if np.any(factors < 0.8) or np.any(factors > 1.2):
        raise ValueError("factors must be within [0.8, 1.2]")
    total = base.total()
    if total <= 0:
        raise ValueError("base OD total must be > 0")
    raw = np.asarray(base.rates) * factors
    rescaled = raw * (total / raw.sum())
    return replace(base, rates=tuple(float(r) for r in rescaled))


def sample_bus_lane_config(net: RoadNetwork, candidates, count: int,
                           seed) -> tuple[int, ...]:
    """Deterministic sample of `count` candidate links to receive one
    dedicated bus lane each. Candidates need two or more lanes."""
    candidates = sorted(candidates)
    for lid in candidates:
        if net.link(lid).lanes_total < 2:
            raise ValueError(f"link {lid} has a single lane; not a bus-lane candidate")
    if count > len(candidates):
        raise ValueError("count exceeds candidate pool")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(candidates), size=count, replace=False)
    return tuple(sorted(candidates[i] for i in picked))


def bus_lane_candidates(net: RoadNetwork) -> list[int]:
    return [lk.id for lk in net.links if lk.lanes_total >= 2]


def random_base_od(net: RoadNetwork, n_pairs: int, rate_veh_h: float,
                   seed) -> ODMatrix:
    """Synthetic base demand: n distinct OD pairs over the network's links."""
    ids = list(net.link_ids())
    if n_pairs > len(ids) * (len(ids) - 1):
        raise ValueError(f"{n_pairs} OD pairs asked for, but the network's {len(ids)} "
                         f"links give only {len(ids) * (len(ids) - 1)} distinct pairs")
    rng = np.random.default_rng(seed)
    pairs = []
    seen = set()
    while len(pairs) < n_pairs:
        o, d = rng.choice(len(ids), size=2, replace=False)
        key = (ids[int(o)], ids[int(d)])
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    return ODMatrix(pairs=tuple(pairs), rates=tuple([float(rate_veh_h)] * n_pairs))


@dataclass(frozen=True)
class Scenario:
    id: int
    od: ODMatrix
    scale: float
    bus_links: tuple[int, ...]
    seed: int

    def __post_init__(self):
        # "not > 0" rather than "<= 0", so that NaN is rejected too
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale!r}")


@dataclass
class Dataset:
    scenarios: list[Scenario]
    splits: dict[str, list[int]]          # split name -> scenario ids
    records: dict[int, SimRecord]         # scenario id -> simulation record
    master_seed: int
    demand_level: str = "medium"

    def split_scenarios(self, name: str) -> list[Scenario]:
        """The split's scenarios in dataset order; refuses an empty split."""
        chosen = set(self.splits[name])
        if not chosen:
            raise ValueError(f"split {name!r} is empty")
        return [s for s in self.scenarios if s.id in chosen]


def split_sizes(n: int) -> tuple[int, int, int]:
    """7:1:2 split; floor for val, floor for test, remainder to train."""
    val = n // 10
    test = n * 2 // 10
    return n - val - test, val, test


def make_scenarios(net: RoadNetwork, base_od: ODMatrix, n: int, master_seed: int,
                   bus_lane_count: int | None = None,
                   demand_level: str = "medium") -> list[Scenario]:
    """n randomized scenarios, each scaling its demand by
    ``DEMAND_LEVELS[demand_level]``."""
    if demand_level not in DEMAND_LEVELS:
        raise ValueError(f"unknown demand level {demand_level!r}; "
                         f"one of {sorted(DEMAND_LEVELS)}")
    scale = DEMAND_LEVELS[demand_level]
    candidates = bus_lane_candidates(net)
    if bus_lane_count is None:
        bus_lane_count = min(len(candidates), max(1, net.n_links // 8))
    seeds = np.random.SeedSequence(master_seed).spawn(n)
    out = []
    for i, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        sc_seed = int(rng.integers(0, 2**31 - 1))
        od = perturb_od(base_od, rng.uniform(0.8, 1.2, size=len(base_od.pairs)))
        bus = sample_bus_lane_config(net, candidates, bus_lane_count,
                                     int(rng.integers(0, 2**31 - 1)))
        out.append(Scenario(id=i, od=od, scale=scale, bus_links=bus,
                            seed=sc_seed))
    return out


def assign_splits(n: int, master_seed: int) -> dict[str, list[int]]:
    n_train, n_val, n_test = split_sizes(n)
    order = np.random.default_rng(master_seed).permutation(n)
    return {
        "train": sorted(int(i) for i in order[:n_train]),
        "val": sorted(int(i) for i in order[n_train:n_train + n_val]),
        "test": sorted(int(i) for i in order[n_train + n_val:]),
    }


def build_dataset(net: RoadNetwork, base_od: ODMatrix, n: int, master_seed: int,
                  cfg: SimConfig | None = None,
                  bus_lane_count: int | None = None,
                  demand_level: str = "medium") -> Dataset:
    """Simulate n randomized scenarios and split them 7:1:2."""
    if n < 10:
        raise ValueError("need at least 10 scenarios for a 7:1:2 split")
    cfg = cfg or SimConfig()
    scenarios = make_scenarios(net, base_od, n, master_seed,
                               bus_lane_count=bus_lane_count,
                               demand_level=demand_level)
    records: dict[int, SimRecord] = {}
    failed: dict[int, SimulationError] = {}
    for sc in scenarios:
        try:
            records[sc.id] = simulate(net, sc, cfg)
        except SimulationError as exc:
            log.error("scenario %d failed and is excluded: %s", sc.id, exc)
            failed[sc.id] = exc
    if not records:
        first = next(iter(failed))
        raise SimulationError(f"all {n} scenarios failed; scenario {first}: "
                              f"{failed[first]}")
    kept = [sc for sc in scenarios if sc.id not in failed]
    splits = assign_splits(n, master_seed)
    if failed:
        splits = {k: [i for i in v if i not in failed] for k, v in splits.items()}
    return Dataset(scenarios=kept, splits=splits, records=records,
                   master_seed=master_seed, demand_level=demand_level)


# ---------------------------------------------------------------------------
# on-disk layout
#   <dir>/manifest.json
#   <dir>/scenario_<id>/links.csv, network.csv (derived, not read back)
# ---------------------------------------------------------------------------

def save_od(od: ODMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(vars(od), allow_nan=False) + "\n")


def load_od(path) -> ODMatrix:
    """Read a ``save_od`` file: the ``ODMatrix`` fields, each of its kind,
    and the matrix's own checks; anything else, a text OD file of earlier
    versions included, is a ValueError naming the file and the key."""
    return from_json(ODMatrix, load_json(path, "gen-dataset"), str(path))


def record_dir(out_dir, scenario_id: int) -> str:
    """The directory of a scenario's record in a saved dataset."""
    return os.path.join(out_dir, f"scenario_{scenario_id:03d}")


def _scenario_dict(sc: Scenario) -> dict:
    return {
        "id": sc.id,
        "seed": sc.seed,
        "scale": sc.scale,
        "bus_links": list(sc.bus_links),
        "od_pairs": [list(p) for p in sc.od.pairs],
        "od_rates": list(sc.od.rates),
        "ramp_fraction": sc.od.ramp_fraction,
    }


def save_dataset(ds: Dataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    any_record = next(iter(ds.records.values()))
    manifest = {
        "master_seed": ds.master_seed,
        "demand_level": ds.demand_level,
        "window_s": any_record.window_s,
        "step_s": any_record.step_s,
        "splits": {k: list(v) for k, v in ds.splits.items()},
        "scenarios": [_scenario_dict(sc) for sc in ds.scenarios],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for sc in ds.scenarios:
        save_record(ds.records[sc.id], record_dir(out_dir, sc.id))


_MANIFEST_KINDS = {"master_seed": "int", "demand_level": "str",
                   "window_s": "float", "step_s": "float", "splits": "dict",
                   "scenarios": "tuple[dict, ...]"}
_SCENARIO_KINDS = {"id": "int", "seed": "int", "scale": "float",
                   "bus_links": "tuple[int, ...]",
                   "od_pairs": "tuple[tuple[int, int], ...]",
                   "od_rates": "tuple[float, ...]", "ramp_fraction": "float"}


def _check_splits(splits: dict[str, list[int]], scenario_ids: list[int]) -> None:
    """Each scenario id is held once and listed in exactly one split."""
    held = Counter(scenario_ids)
    listed = Counter(i for ids in splits.values() for i in ids)
    for i in sorted(held | listed):
        if held[i] != 1 or listed[i] != 1:
            names = [name for name, ids in splits.items() if i in ids]
            raise ValueError(f"'scenarios' hold id {i} {held[i]} times and "
                             f"'splits' list it in {', '.join(names) or 'none'}; "
                             "each id is held once and in one split")


def _scenario_of(od_pairs, od_rates, ramp_fraction, **fields) -> Scenario:
    od = ODMatrix(pairs=od_pairs, rates=od_rates, ramp_fraction=ramp_fraction)
    return Scenario(od=od, **fields)


def load_dataset(out_dir) -> Dataset:
    """Read a dataset saved by ``save_dataset``. Each object holds exactly
    the keys written, each value of its kind (none is coerced), the splits
    list each scenario id once, and ``window_s`` and ``step_s`` must pass
    ``SimConfig``'s checks; the records take them. A manifest that breaks
    any of these is a ValueError naming its path and the key."""
    path = os.path.join(out_dir, "manifest.json")
    doc = load_json(path, "gen-dataset")
    try:
        manifest = read_json(doc, _MANIFEST_KINDS, "manifest")
        cfg = SimConfig(window_s=manifest["window_s"], step_s=manifest["step_s"])
        splits = read_json(manifest["splits"],
                           dict.fromkeys(SPLIT_NAMES, "tuple[int, ...]"),
                           "manifest.splits")
        splits = {name: list(ids) for name, ids in splits.items()}
        scenarios = [read_json(sd, _SCENARIO_KINDS, f"manifest.scenarios[{n}]",
                               _scenario_of)
                     for n, sd in enumerate(manifest["scenarios"])]
        _check_splits(splits, [sc.id for sc in scenarios])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    records = {sc.id: load_record(record_dir(out_dir, sc.id),
                                  window_s=cfg.window_s, step_s=cfg.step_s)
               for sc in scenarios}
    return Dataset(scenarios=scenarios, splits=splits, records=records,
                   master_seed=manifest["master_seed"],
                   demand_level=manifest["demand_level"])
