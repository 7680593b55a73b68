"""Output checks, failure accounting and summary statistics.

Every check returns a list of problems (empty when the output is right), so
each can be fed a deliberately wrong input in the benchmark's own tests.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

BALANCE_TOL_VEH = 1e-6


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation; it failed when any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def percentile(values, q: float, min_beyond: int = 10) -> tuple[float, int]:
    """The q-th percentile (linear interpolation) and the sample count.

    A tail percentile is reported only when at least ``min_beyond`` samples
    lie beyond it; otherwise ValueError."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("no samples")
    if q > 50 and n * (100.0 - q) / 100.0 < min_beyond:
        raise ValueError(f"p{q:g} needs {min_beyond} samples beyond it; "
                         f"have {n} samples")
    return float(np.percentile(arr, q)), n


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_record(record, vff_kmh, v_min_kmh: float, n_windows: int) -> list[str]:
    """A simulation record conserves vehicles, has the expected window
    count and keeps every link speed within [v_min, v_ff]."""
    problems = []
    balance = float(record.balance_error)
    if not balance < BALANCE_TOL_VEH:
        problems.append(f"balance error {balance:.3e} veh >= {BALANCE_TOL_VEH}")
    if record.n_windows != n_windows:
        problems.append(f"{record.n_windows} windows, expected {n_windows}")
    problems += check_speed_field(record.speeds, vff_kmh, v_min_kmh)
    return problems


def check_speed_field(speeds, vff_kmh, v_min_kmh: float) -> list[str]:
    speeds = np.asarray(speeds, dtype=float)
    vff = np.asarray(vff_kmh, dtype=float)
    if not np.all(np.isfinite(speeds)):
        return ["non-finite link speed"]
    tol = 1e-9
    low = int(np.sum(speeds < v_min_kmh - tol))
    high = int(np.sum(speeds > vff + tol))
    if low or high:
        return [f"{low} speeds below v_min={v_min_kmh}, {high} above v_ff"]
    return []


def check_exit_code(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def check_losses(history_csv: str, epochs: int) -> list[str]:
    """The training history has one row per epoch and finite losses."""
    if not os.path.exists(history_csv):
        return [f"missing {history_csv}"]
    with open(history_csv) as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != epochs:
        problems.append(f"{len(rows)} epochs in history, expected {epochs}")
    bad = [r["epoch"] for r in rows
           if not (math.isfinite(float(r["train_loss"]))
                   and math.isfinite(float(r["val_loss"])))]
    if bad:
        problems.append(f"non-finite loss at epochs {','.join(bad)}")
    return problems


def check_truth_errors(errors) -> list[str]:
    """Routing on the recorded field reproduces the recorded trip time."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        return ["no trip errors"]
    worst = float(np.max(np.abs(errors)))
    return [] if worst == 0.0 else [f"TRUTH trip error {worst!r} s, expected 0"]


def read_report(path: str) -> dict[str, dict[str, float]]:
    """report_table.csv as {model: {metric: value}}."""
    out: dict[str, dict[str, float]] = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["model"], {})[row["metric"]] = float(row["value"])
    return out


def check_report(table: dict[str, dict[str, float]], models) -> list[str]:
    """Every model has a finite MAE over a non-empty sample."""
    problems = []
    for model in models:
        row = table.get(model)
        if row is None:
            problems.append(f"no {model} rows")
        elif not (row.get("Count", 0) > 0 and math.isfinite(row.get("MAE", math.nan))):
            problems.append(f"{model}: bad MAE/Count {row}")
    return problems


def check_beats(table: dict[str, dict[str, float]], model: str,
                baseline: str) -> list[str]:
    """The trained estimator's speed MAE is below the baseline's."""
    try:
        mae, base = table[model]["MAE"], table[baseline]["MAE"]
    except KeyError as exc:
        return [f"missing MAE for {exc}"]
    return [] if mae < base else [f"{model} MAE {mae} not below {baseline} {base}"]
