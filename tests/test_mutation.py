"""Seeded mutations of the four files the CLI reads back: network.txt,
od.txt, partition.json and a record's links.csv.

Every numeric field (in a text file, one line of each record kind; in the
others, a seeded pick) becomes nan, inf, -1, 0 or a huge integer, and three
seeded lines per file are cut short or get an extra token: 219 cases. The
cheapest command that reads the file runs in-process. No case may raise or exit 2; nan and inf, a cut line
and an extra token exit 1; every exit 1 names the file and the line or key;
exit 0 only where the mutated value is one the field allows.
"""

import json
import math
import os
import random
import re

import pytest

from lcftraffic.cli import main

# an overflow or NaN a mutated value lets into the engine shows up as a
# RuntimeWarning before any check of its own fires
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SIM_TINY = ["--step", "5", "--window", "60", "--warmup", "60", "--peak", "120",
            "--total", "240"]
HUGE = 10 ** 20
VALUES = ("nan", "inf", "-1", "0", str(HUGE))


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("mutation") / "run")
    assert run(["gen-network", "--out", out, "--grid", "3x3", "--lanes", "2"]) == 0
    assert run(["gen-dataset", "--out", out, "--scenarios", "10", "--od-pairs", 3,
                "--seed", 2] + SIM_TINY) == 0
    assert run(["partition", "--out", out, "--t-max", 1, "--clusters", 2]) == 0
    with open(os.path.join(out, "dataset", "manifest.json")) as fh:
        first_train = json.load(fh)["splits"]["train"][0]
    return {
        "out": out,
        "network.txt": os.path.join(out, "network.txt"),
        "od.txt": os.path.join(out, "od.txt"),
        "partition.json": os.path.join(out, "partition.json"),
        "links.csv": os.path.join(out, "dataset", f"scenario_{first_train:03d}",
                                  "links.csv"),
    }


def command(ws, name: str) -> list:
    out = ws["out"]
    if name in ("network.txt", "od.txt"):
        return ["simulate", "--out", out, "--od", ws["od.txt"]] + SIM_TINY
    if name == "partition.json":
        return ["evaluate", "--out", out, "--models", "MFD-P"]
    return ["partition", "--out", out, "--t-max", 1, "--clusters", 2,
            "--partition-file", os.path.join(out, "scratch_partition.json")]


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def number(text: str):
    """The value a file would hold for ``text``: an int where it reads as
    one, else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def finite(v) -> bool:
    return math.isfinite(v)


# ---------------------------------------------------------------------------
# what each field allows: (file, field) -> predicate(value, context)
# ---------------------------------------------------------------------------

def network_rule(kind: str, col: int, ctx: dict):
    """Fields of ``KIND args...``; col indexes args. References stay valid
    only where they still name a distinct object."""
    is_int = lambda v: isinstance(v, int)   # noqa: E731
    if kind == "JUNCTION":
        return (lambda v: v == ctx["old"]) if col == 0 else finite
    if kind == "LINK":
        return {
            0: lambda v: is_int(v) and (v == ctx["old"] or (
                v not in ctx["link_ids"] and ctx["old"] not in ctx["od_links"])),
            1: lambda v: is_int(v) and v in ctx["junctions"] and v != ctx["args"][1],
            2: lambda v: is_int(v) and v in ctx["junctions"] and v != ctx["args"][0],
            3: lambda v: finite(v) and v > 0,
            4: lambda v: is_int(v) and max(1, ctx["args"][5] + 1) <= v <= 5,
            5: lambda v: is_int(v) and 0 <= v < ctx["args"][4],
            6: lambda v: finite(v) and v > 0,
            7: lambda v: v in (0, 1) and is_int(v),
            8: lambda v: v in (0, 1) and is_int(v),
        }[col]
    return {  # SIGNAL junction cycle offset green
        0: lambda v: v == ctx["old"],
        1: lambda v: finite(v) and v >= ctx["args"][3] and v > 0,
        2: finite,
        3: lambda v: finite(v) and 0 <= v <= ctx["args"][1],
    }[col]


def od_rule(kind: str, col: int, ctx: dict):
    if kind == "RAMP":
        return lambda v: finite(v) and 0 <= v <= 1
    if col == 2:
        return lambda v: finite(v) and v >= 0
    other = ctx["args"][1 - col]
    return lambda v: isinstance(v, int) and v in ctx["link_ids"] and v != other


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def text_cases(ws, name: str, rng: random.Random) -> list:
    """For every (record kind, field) of a whitespace text file, one line
    picked at random and each of VALUES in that field."""
    lines = read(ws[name]).splitlines()
    by_kind: dict[str, list[int]] = {}
    for i, line in enumerate(lines):
        if line.strip() and not line.startswith("#"):
            by_kind.setdefault(line.split()[0], []).append(i)
    cases = []
    for kind, rows in sorted(by_kind.items()):
        for col in range(len(lines[rows[0]].split()) - 1):
            i = rng.choice(rows)
            for value in VALUES:
                cases.append((name, "field", (i, kind, col), value))
    return cases


def structure_cases(ws, name: str, rng: random.Random) -> list:
    lines = read(ws[name]).splitlines()
    rows = [i for i, ln in enumerate(lines)
            if re.search(r"\d", ln) and not ln.startswith("#")]
    return [(name, how, (i,), None)
            for how in ("cut line", "extra token")
            for i in rng.sample(rows, 3)]


def json_cases(ws, rng: random.Random) -> list:
    doc = json.loads(read(ws["partition.json"]))
    paths = [("params", key) for key in doc["params"]]
    paths.append(("centroids", rng.randrange(len(doc["centroids"])), rng.randrange(3)))
    i = rng.randrange(len(doc["labels"]))
    paths += [("labels", i, 0), ("labels", i, 1)]
    return [("partition.json", "field", path, value)
            for path in paths for value in VALUES]


def csv_cases(ws, rng: random.Random) -> list:
    n_rows = len(read(ws["links.csv"]).splitlines()) - 1
    return [("links.csv", "field", (rng.randrange(n_rows) + 1, col), value)
            for col in range(5) for _ in range(2) for value in VALUES]


def all_cases(ws) -> list:
    rng = random.Random(13)
    cases = text_cases(ws, "network.txt", rng) + text_cases(ws, "od.txt", rng)
    cases += json_cases(ws, rng) + csv_cases(ws, rng)
    for name in ("network.txt", "od.txt", "partition.json", "links.csv"):
        cases += structure_cases(ws, name, rng)
    return cases


# ---------------------------------------------------------------------------
# planting a case
# ---------------------------------------------------------------------------

def context(ws) -> dict:
    net_lines = [ln.split() for ln in read(ws["network.txt"]).splitlines()
                 if ln[:1].isupper()]
    od_lines = [ln.split() for ln in read(ws["od.txt"]).splitlines()
                if ln.startswith("OD")]
    return {
        "junctions": {int(p[1]) for p in net_lines if p[0] == "JUNCTION"},
        "link_ids": {int(p[1]) for p in net_lines if p[0] == "LINK"},
        "od_links": {int(v) for p in od_lines for v in p[1:3]},
    }


def plant(ws, case, ctx: dict):
    """Write the mutated file; return (its text before, the predicate the
    mutated value must meet for exit 0 or None, the key words an error may
    name instead of a line)."""
    name, how, where, value = case
    path = ws[name]
    before = read(path)
    lines = before.splitlines()
    rule, keys = None, ()
    if how in ("cut line", "extra token"):
        (i,) = where
        if how == "cut line":
            lines[i] = lines[i][:len(lines[i]) // 2]
        else:
            lines[i] += "," + lines[i].split(",")[-1] if name == "links.csv" else " 7"
        # in JSON an extra number may still parse, into a list of a wrong shape
        keys = ("params", "centroids", "label") if name == "partition.json" else ()
    elif name == "partition.json":
        doc = json.loads(before)
        *parent, last = where
        node = doc
        for key in parent:
            node = node[key]
        old = node[last]
        node[last] = float(value) if value in ("nan", "inf") else int(value)
        if where[0] == "params":
            kinds = (int, float) if isinstance(old, float) else (int,)
            rule = (lambda v: v == old) if last == "k" else (
                lambda v: type(v) in kinds and 0 <= v < math.inf)
            keys = (f"'{last}'", f"{last} must", f"{last} = ")
        elif where[0] == "centroids":
            rule, keys = finite, ("centroids",)
        else:
            rule = (lambda v: v == old) if last == 0 else (
                lambda v: isinstance(v, int) and 0 <= v < doc["params"]["k"])
            keys = ("label",)
        lines = json.dumps(doc, indent=1).splitlines()
    elif name == "links.csv":
        i, col = where
        cells = lines[i].split(",")
        old = number(cells[col])
        cells[col] = value
        lines[i] = ",".join(cells)
        rule = (lambda v: v == old) if col < 2 else (lambda v: finite(v) and v >= 0)
    else:
        i, kind, col = where
        parts = lines[i].split()
        args = [number(a) for a in parts[1:]]
        parts[col + 1] = value
        lines[i] = " ".join(parts)
        local = dict(ctx, args=args, old=args[col])
        rule = (network_rule if name == "network.txt" else od_rule)(kind, col, local)
        keys = ("link ", "junction ", "OD pair")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return before, rule, keys


def test_mutated_inputs_fail_at_the_boundary(ws, capsys):
    cases = all_cases(ws)
    assert len(cases) <= 300
    ctx = context(ws)
    failures = []
    for case in cases:
        name, how, _, value = case
        path = ws[name]
        before, rule, keys = plant(ws, case, ctx)
        capsys.readouterr()
        try:
            code = run(command(ws, name))
        except Exception as exc:  # a traceback
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            with open(path, "w") as fh:
                fh.write(before)
        err = capsys.readouterr().err
        line_named = re.search(rf"{re.escape(path)}(:\d+:| line \d+:|: .*line \d+)",
                               err)
        key_named = path in err and any(k in err for k in keys)
        if code not in (0, 1):
            problem = f"exit {code}"
        elif code == 1 and not (line_named or key_named):
            problem = "error names neither the file and line nor a key"
        elif code == 0 and (how != "field" or value in ("nan", "inf")
                            or not rule(number(value))):
            problem = "accepted"
        else:
            continue
        failures.append(f"{case}: {problem}: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)
