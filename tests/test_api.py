"""Guards on the public surface: the package exports and the names the
benchmark in perfbench/ binds to."""

import ast
import importlib
import os
import sys

import pytest

import lcftraffic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def exports():
    """(submodule, name) of every name the package __init__ re-exports."""
    tree = ast.parse(open(lcftraffic.__file__).read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_resolves_to_its_submodule_object():
    names = exports()
    assert names
    for module, name in names:
        sub = importlib.import_module(f"lcftraffic.{module}")
        assert getattr(lcftraffic, name) is getattr(sub, name), name


def test_no_export_aliases_another():
    seen = {}
    for _module, name in exports():
        obj = getattr(lcftraffic, name)
        assert id(obj) not in seen, f"{name} is {seen.get(id(obj))}"
        seen[id(obj)] = name


def test_benchmark_boundaries_exist():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.pop(0)
    harness = importlib.import_module("lcftraffic.harness")
    original = harness.fit_lr_estimator
    with tracer.traced(tracer.Tracer()):
        assert harness.fit_lr_estimator is not original
    assert harness.fit_lr_estimator is original


def test_cli_defaults_equal_the_config_defaults():
    """The CLI reads these flags' defaults from the config classes; both
    agree, in value and type, on every command that takes the flag."""
    from lcftraffic.cli import build_parser
    from lcftraffic.model import ModelConfig, TrainConfig
    from lcftraffic.partition import PartitionParams
    from lcftraffic.simulate import SimConfig
    sim = {"step": "step_s", "window": "window_s", "warmup": "warmup_s",
           "peak": "peak_s", "total": "total_s",
           "saturation_flow": "saturation_flow",
           "vehicle_length": "vehicle_length",
           "congestion_threshold": "congestion_threshold",
           "v_min": "v_min_kmh", "turn_update": "turn_update_s",
           "turn_smoothing": "turn_smoothing"}
    train = {"lr": "lr", "lr_step": "lr_step", "lr_gamma": "lr_gamma",
             "weight_decay": "weight_decay", "epochs": "epochs",
             "stride": "window_stride"}
    model = {"heads": "heads", "hidden": "hidden_dim", "fc_dims": "fc_hidden",
             "history": "history_len", "output_type": "output_type"}
    part = {"clusters": "k", "alpha": "alpha", "beta": "beta",
            "t_window": "t_window", "t_max": "t_max"}
    checks = [(("gen-dataset", "simulate"), SimConfig(), sim),
              (("train", "evaluate", "travel-time"), TrainConfig(), train),
              (("train", "evaluate", "travel-time"), ModelConfig(), model),
              (("partition",), PartitionParams(), part)]
    flags = set()
    for commands, config, fields in checks:
        for command in commands:
            defaults = vars(build_parser(command).parse_args([command]))
            for dest, field in fields.items():
                cli, lib = defaults[dest], getattr(config, field)
                assert (cli, type(cli)) == (lib, type(lib)), (command, dest)
                flags.add(dest)
    assert len(flags) == 27


def test_every_np_load_refuses_pickles():
    """A checkpoint or any other file read with ``np.load`` must not be able
    to run code on load: every call in src/ passes ``allow_pickle=False``."""
    src = os.path.join(ROOT, "src", "lcftraffic")
    calls = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "load" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "np":
                kwargs = {kw.arg: kw.value for kw in node.keywords}
                flag = kwargs.get("allow_pickle")
                calls.append((name, node.lineno))
                assert isinstance(flag, ast.Constant) and flag.value is False, \
                    f"{name}:{node.lineno}: np.load without allow_pickle=False"
    assert calls


def test_large_grid_workload_runs_on_the_package(tmp_path, monkeypatch):
    """perfbench's large-grid set-up and one traced unit (seed 3) pass every
    output check and cross every boundary the workload names, and the traced
    ``save_record`` hook counts the bytes of that run's record. A change
    that breaks what the benchmark calls then fails here."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    records = []

    class KeepRecords(workloads.Tracer):
        def wrap(self, name, fn, hook=None):
            if name == "simulate.simulate":
                def keep(tracer, args, kwargs, record, inner=hook):
                    inner(tracer, args, kwargs, record)
                    records.append(record)
                return super().wrap(name, fn, keep)
            return super().wrap(name, fn, hook)

    workload = workloads.WORKLOADS["large-grid"]
    work = str(tmp_path / "work")
    ledger, tracer = workloads.Ledger(), KeepRecords()
    workload.setup(work, 3, ledger)
    workloads.run_units(workload, work, 3, 0.0, ledger, tracer)
    layers = workloads.per_layer(tracer)
    assert ledger.failures == [] and ledger.attempted > 3000
    assert [s for s in workload.spans if not layers.get(f"{s}.calls")] == []

    (record,) = records
    saver = workloads.Tracer()
    out = tmp_path / "record"
    with workloads.traced(saver):
        workloads.sim.save_record(record, str(out))
    assert saver.counters["simulate.save_record.bytes"] == \
        sum(f.stat().st_size for f in out.iterdir())


SRC = os.path.join(ROOT, "src", "lcftraffic")
MODULES = sorted(name[:-3] for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")
DEMOS = sorted(os.path.join(ROOT, "demos", name)
               for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def names_read(paths) -> set:
    """Every name the given Python files read: ``x``, ``mod.x`` or
    ``from .mod import x``."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return named


@pytest.mark.parametrize("module", MODULES)
def test_every_name_has_a_caller_in_the_package(module):
    """Each module holds only what the package runs. Every module-level
    function and class, private ones too, is named in the package or a demo
    besides its definition, the package's re-exports not counted, so no
    helper that nothing runs is left behind. Every public one of
    ``lcftraffic.nn`` is named outside ``nn``: an op only the tests use
    belongs under ``tests/``."""
    tree = ast.parse(open(os.path.join(SRC, f"{module}.py")).read())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    callers = [os.path.join(SRC, f"{name}.py") for name in MODULES] + DEMOS
    assert sorted(defined - names_read(callers)) == []
    if module == "nn":
        public = {name for name in defined if not name.startswith("_")}
        assert {"gru", "pair_head", "scatter_sum"} <= public
        callers.remove(os.path.join(SRC, "nn.py"))
        assert sorted(public - names_read(callers)) == []
    assert defined


def test_training_crosses_the_benchmark_boundaries(monkeypatch):
    """A 1-epoch ``train`` on a small toy set-up, traced as perfbench traces
    toy-train, crosses ``model.train`` and ``model.build_batches``, runs
    ``nn.backward`` and ``nn.AdamW.step`` once per training step, runs
    ``nn.matmul`` once per attention head and the embeddings once per
    forward (every training step and every validation batch), and runs the
    head (``fuse``) once per block: here 3 blocks of 4, 4 and 2 of a
    batch's 10 windows of 24 links."""
    from lcftraffic import model
    from lcftraffic.network import generate_grid_network
    from lcftraffic.partition import PartitionParams, partition_network
    from lcftraffic.scenarios import build_dataset, random_base_od
    from lcftraffic.simulate import SimConfig
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracer = importlib.import_module("tracer")
    net = generate_grid_network(3, 3, 100.0, 2)
    ds = build_dataset(net, random_base_od(net, 4, 400.0, seed=77), n=10,
                       master_seed=77,
                       cfg=SimConfig(step_s=5.0, window_s=60.0, warmup_s=120.0,
                                     peak_s=240.0, total_s=600.0))
    part = partition_network(net, ds.records[ds.splits["train"][0]],
                             PartitionParams(k=3, t_max=5, t_window=2))
    monkeypatch.setattr(model, "PREDICT_BLOCK_ROWS", 4 * net.n_links)
    spans = tracer.Tracer()
    with tracer.traced(spans):    # model.train is bound inside the block
        model.train(net, ds, part, model.ModelConfig(heads=2, hidden_dim=8,
                                                     fc_hidden=(16, 8)),
                    model.TrainConfig(epochs=1))
    calls = {name: st["calls"]
             for name, st in tracer.summarize(spans.spans).items()}
    steps = len(ds.splits["train"])
    forwards = steps + len(ds.splits["val"])
    assert calls["model.train"] == 1 and calls["model.build_batches"] == 2
    assert calls["nn.backward"] == calls["nn.AdamW.step"] == steps
    assert calls["nn.matmul"] == 2 * forwards
    for piece in ("spatial_embed", "temporal_embed"):
        assert calls[f"model.LcfModel.{piece}"] == forwards, piece
    assert calls["model.LcfModel.fuse"] == 3 * forwards
