"""Span tracing of the ``lcftraffic`` package from outside the program.

Each traced boundary is a public function or method of ``lcftraffic.*``.
``traced()`` replaces it by a wrapper that records one span per call
(name, start, end, parent span) in memory, and optionally feeds the call's
arguments and result to a hook that adds exact counters (bytes written,
matmul flops, no-path trips, ...). ``summarize()`` turns the spans into
per-boundary ``calls``, ``busy_s`` and ``self_s``.

Two traps make naive patching miss calls:

* ``lcftraffic/__init__`` re-exports ``simulate`` over the submodule name,
  so ``import lcftraffic.simulate`` yields the function. Modules are
  therefore fetched with ``importlib.import_module``.
* ``from .x import f`` copies ``f`` into other modules (``cli``,
  ``harness``, ``scenarios``, ``model``, the package itself). A function
  is therefore replaced at every module-level binding of it; methods are
  replaced on their class; CLI commands are replaced in ``cli.COMMANDS``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "lcftraffic"
SUBMODULES = ("network", "simulate", "scenarios", "partition", "nn", "model",
              "baselines", "evaluate", "harness", "cli")


class Tracer:
    """In-memory span recorder. Spans are ``[name, start, end, parent]``
    lists; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (wall time inside the boundary,
    nested calls of the same name counted once) and ``self_s`` (duration
    minus the time covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["busy_s"] += end - start
    return out


# ---------------------------------------------------------------------------
# counter hooks: (tracer, args, kwargs, result) -> None
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_simulate(tr, args, kwargs, record):
    tr.maximum("simulate.balance_error_veh.max", float(record.balance_error))


def _on_matmul(tr, args, kwargs, result):
    a, b = args[0].data.shape, args[1].data.shape
    tr.add("nn.matmul.gflop", 2.0 * a[0] * a[1] * b[1] / 1e9)


def _on_save_record(tr, args, kwargs, result):
    out_dir = _arg(args, kwargs, 1, "out_dir")
    tr.add("simulate.save_record.bytes",
           sum(os.path.getsize(os.path.join(out_dir, f))
               for f in ("links.csv", "network.csv")))


def _on_save_model(tr, args, kwargs, result):
    tr.add("model.save_model.bytes",
           os.path.getsize(_arg(args, kwargs, 1, "path")))


def _on_export_report(tr, args, kwargs, written):
    out_dir = _arg(args, kwargs, 1, "out_dir")
    tr.add("evaluate.export_report.bytes",
           sum(os.path.getsize(os.path.join(out_dir, f)) for f in written))


def _on_train(tr, args, kwargs, result):
    _model, history = result
    losses = [h["val_loss"] for h in history]
    best = losses.index(min(losses))
    tr.add("model.train.best_epoch", best)
    tr.add("model.train.wasted_epochs", len(losses) - 1 - best)


def _on_shortest_path(tr, args, kwargs, path):
    tr.add("evaluate.shortest_path.no_path", path is None)


def _on_path_travel_time(tr, args, kwargs, result):
    tr.add("evaluate.path_travel_time.overruns", bool(result[1]))


# (module, attribute path, hook); the span name is "<module>.<attribute>"
BOUNDARIES: tuple[tuple[str, str, Callable | None], ...] = (
    ("simulate", "simulate", _on_simulate),
    ("simulate", "SimState.step", None),
    ("simulate", "update_turn_ratios", None),
    ("simulate", "shortest_time_to_dest", None),
    ("simulate", "save_record", _on_save_record),
    ("simulate", "load_record", None),
    ("nn", "matmul", _on_matmul),
    ("nn", "backward", None),
    ("nn", "AdamW.step", None),
    ("model", "LcfModel.spatial_embed", None),
    ("model", "LcfModel.temporal_embed", None),
    ("model", "LcfModel.fuse", None),
    ("model", "LcfModel.predict_windows", None),
    ("model", "build_batches", None),
    ("model", "train", _on_train),
    ("model", "save_model", _on_save_model),
    ("model", "load_model", None),
    ("evaluate", "shortest_path", _on_shortest_path),
    ("evaluate", "path_travel_time", _on_path_travel_time),
    ("evaluate", "travel_time_experiment", None),
    ("evaluate", "export_report", _on_export_report),
    ("network", "extract_features", None),
    ("network", "build_link_graph", None),
    ("scenarios", "build_dataset", None),
    ("scenarios", "save_dataset", None),
    ("scenarios", "load_dataset", None),
    ("partition", "partition_network", None),
    ("harness", "evaluate_speed_split", None),
    ("harness", "evaluate_travel_time_split", None),
    ("harness", "fit_lr_estimator", None),
)

CLI_COMMANDS = ("gen-dataset", "partition", "train", "evaluate",
                "travel-time", "report")


def load_package() -> dict[str, object]:
    """Every ``lcftraffic`` submodule by short name, imported so that all
    ``from .x import f`` bindings exist before patching."""
    return {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in SUBMODULES}


@dataclass
class _Patch:
    owner: object
    key: str
    original: object
    in_dict: bool = False

    def undo(self) -> None:
        if self.in_dict:
            self.owner[self.key] = self.original
        else:
            setattr(self.owner, self.key, self.original)


def _bind_function(tracer, modules, mod_name, fname, hook) -> list[_Patch]:
    original = getattr(modules[mod_name], fname)
    wrapper = tracer.wrap(f"{mod_name}.{fname}", original, hook)
    patches = []
    holders = [sys.modules[PACKAGE]] + list(modules.values())
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                patches.append(_Patch(holder, key, original))
                setattr(holder, key, wrapper)
    return patches


def _bind_method(tracer, modules, mod_name, path, hook) -> list[_Patch]:
    cls_name, meth = path.split(".")
    cls = getattr(modules[mod_name], cls_name)
    original = cls.__dict__[meth]
    setattr(cls, meth, tracer.wrap(f"{mod_name}.{path}", original, hook))
    return [_Patch(cls, meth, original)]


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers at every boundary for the duration of the
    block, then restore the original bindings."""
    modules = load_package()
    patches: list[_Patch] = []
    try:
        for mod_name, path, hook in BOUNDARIES:
            bind = _bind_method if "." in path else _bind_function
            patches += bind(tracer, modules, mod_name, path, hook)
        commands = modules["cli"].COMMANDS
        for cmd in CLI_COMMANDS:
            patches.append(_Patch(commands, cmd, commands[cmd], in_dict=True))
            commands[cmd] = tracer.wrap(f"cli.{cmd}", commands[cmd])
        yield tracer
    finally:
        for patch in reversed(patches):
            patch.undo()


COUNTERS = ("simulate.balance_error_veh.max", "simulate.save_record.bytes",
            "nn.matmul.gflop", "model.save_model.bytes",
            "model.train.best_epoch", "model.train.wasted_epochs",
            "evaluate.export_report.bytes", "evaluate.shortest_path.no_path",
            "evaluate.path_travel_time.overruns")


def per_layer_names() -> list[str]:
    """Every per-module metric of a traced run's JSON result, in a fixed
    order. Times enter as shares of the traced wall time (``*_pct``): a
    boundary a workload never crosses then reads 0 %, not a constant 0 s,
    and host speed drift cancels out. The seconds are printed beside them."""
    names = [f"{m}.{p}.{stat}" for m, p, _ in BOUNDARIES
             for stat in ("calls", "busy_pct", "self_pct")]
    names += [f"cli.{c}.busy_pct" for c in CLI_COMMANDS]
    return names + list(COUNTERS) + ["trace.spans", "trace.wall_s",
                                     "trace.overhead_s"]
