"""Seeded mutations of the four files the CLI reads back: network.txt,
od.txt and partition.json, which are JSON, and a record's links.csv.

Every numeric field (in a JSON file, every key of one seeded object or
pair per section; in the CSV, a seeded pick) becomes nan, inf, -1, 0 or a
huge integer, and each file is cut short or gets an extra token at three
seeded spots: 219 cases. The cheapest command that reads the file runs
in-process. No case may raise or exit 2; nan and inf, a cut file and an
extra token exit 1; every exit 1 names the file and the line or key; exit 0
only where the mutated value is one the field allows.
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
# what each field allows: (file, key path) -> predicate(value, context)
# ---------------------------------------------------------------------------

def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def network_rule(section: str, key: str, ctx: dict):
    """Keys of one object of ``section``; ``ctx["obj"]`` is that object
    before the mutation. References stay valid only where they still name a
    distinct object."""
    obj = ctx["obj"]
    if section == "junctions":
        return (lambda v: v == obj["id"]) if key == "id" else finite
    if section == "links":
        return {
            "id": lambda v: is_int(v) and (v == obj["id"] or (
                v not in ctx["link_ids"] and obj["id"] not in ctx["od_links"])),
            "from_junction": lambda v: is_int(v) and v in ctx["junctions"]
            and v != obj["to_junction"],
            "to_junction": lambda v: is_int(v) and v in ctx["junctions"]
            and v != obj["from_junction"],
            "length_m": lambda v: finite(v) and v > 0,
            "lanes_total": lambda v: is_int(v)
            and max(1, obj["lanes_dbl"] + 1) <= v <= 5,
            "lanes_dbl": lambda v: is_int(v) and 0 <= v < obj["lanes_total"],
            "vff_kmh": lambda v: finite(v) and v > 0,
            "is_boundary_in": lambda v: isinstance(v, bool),
            "is_boundary_out": lambda v: isinstance(v, bool),
        }[key]
    return {
        "junction": lambda v: v == obj["junction"],
        "cycle_s": lambda v: finite(v) and v >= obj["green_a_s"] and v > 0,
        "offset_s": finite,
        "green_a_s": lambda v: finite(v) and 0 <= v <= obj["cycle_s"],
    }[key]


def od_rule(where: tuple, ctx: dict):
    if where[0] == "ramp_fraction":
        return lambda v: finite(v) and 0 <= v <= 1
    if where[0] == "rates":
        return lambda v: finite(v) and v >= 0
    _, i, end = where
    other = ctx["od"]["pairs"][i][1 - end]
    return lambda v: is_int(v) and v in ctx["link_ids"] and v != other


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def network_paths(doc: dict, rng: random.Random) -> list:
    """For each section, every key of one object picked at random."""
    paths = []
    for section in ("junctions", "links", "signals"):
        i = rng.randrange(len(doc[section]))
        paths += [(section, i, key) for key in doc[section][i]]
    return paths


def od_paths(doc: dict, rng: random.Random) -> list:
    i = rng.randrange(len(doc["pairs"]))
    return [("pairs", i, 0), ("pairs", i, 1),
            ("rates", rng.randrange(len(doc["rates"]))), ("ramp_fraction",)]


def partition_paths(doc: dict, rng: random.Random) -> list:
    paths = [("params", key) for key in doc["params"]]
    paths.append(("centroids", rng.randrange(len(doc["centroids"])), rng.randrange(3)))
    i = rng.randrange(len(doc["labels"]))
    return paths + [("labels", i, 0), ("labels", i, 1)]


JSON_PATHS = {"network.txt": network_paths, "od.txt": od_paths,
              "partition.json": partition_paths}


def json_cases(ws, name: str, rng: random.Random) -> list:
    paths = JSON_PATHS[name](json.loads(read(ws[name])), rng)
    return [(name, "field", path, value) for path in paths for value in VALUES]


def structure_cases(ws, name: str, rng: random.Random) -> list:
    """Three seeded spots of the file cut short there or given an extra
    token: whole lines of a file with one record a line, characters of the
    network and OD files, which are one line of JSON."""
    text = read(ws[name])
    if name in ("network.txt", "od.txt"):
        spots = rng.sample(range(1, len(text) - 1), 3)
    else:
        lines = text.splitlines()
        spots = rng.sample([i for i, ln in enumerate(lines)
                            if re.search(r"\d", ln) and not ln.startswith("#")], 3)
    return [(name, how, (i,), None)
            for how in ("cut line", "extra token") for i in spots]


def csv_cases(ws, rng: random.Random) -> list:
    n_rows = len(read(ws["links.csv"]).splitlines()) - 1
    return [("links.csv", "field", (rng.randrange(n_rows) + 1, col), value)
            for col in range(5) for _ in range(2) for value in VALUES]


def all_cases(ws) -> list:
    rng = random.Random(13)
    cases = []
    for name in ("network.txt", "od.txt", "partition.json"):
        cases += json_cases(ws, name, rng)
    cases += csv_cases(ws, rng)
    for name in ("network.txt", "od.txt", "partition.json", "links.csv"):
        cases += structure_cases(ws, name, rng)
    return cases


# ---------------------------------------------------------------------------
# planting a case
# ---------------------------------------------------------------------------

def context(ws) -> dict:
    net = json.loads(read(ws["network.txt"]))
    od = json.loads(read(ws["od.txt"]))
    return {
        "junctions": {j["id"] for j in net["junctions"]},
        "link_ids": {lk["id"] for lk in net["links"]},
        "od_links": {v for pair in od["pairs"] for v in pair},
        "od": od,
    }


# keys an error may name instead of a line, per JSON file
JSON_KEYS = {"network.txt": ("junctions[", "links[", "signals[", "link ",
                             "junction ", "OD pair", "not a JSON file"),
             "od.txt": ("pairs", "rates", "ramp_fraction", "ramp fraction",
                        "OD pair", "not a JSON file"),
             "partition.json": ("params", "centroids", "label",
                                "not a JSON file")}


def json_rule(name: str, doc: dict, where: tuple, old, ctx: dict):
    """The predicate the value planted at ``where`` must meet for exit 0,
    and the key words an error may name."""
    if name == "network.txt":
        section, i, key = where
        return (network_rule(section, key, dict(ctx, obj=doc[section][i])),
                (f"{section}[{i}]", f"{key} must") + JSON_KEYS[name])
    if name == "od.txt":
        return od_rule(where, ctx), JSON_KEYS[name]
    last = where[-1]
    if where[0] == "params":
        kinds = (int, float) if isinstance(old, float) else (int,)
        rule = (lambda v: v == old) if last == "k" else (
            lambda v: type(v) in kinds and 0 <= v < math.inf)
        return rule, (f"'{last}'", f"{last} must", f"{last} = ")
    if where[0] == "centroids":
        return finite, ("centroids",)
    rule = (lambda v: v == old) if last == 0 else (
        lambda v: isinstance(v, int) and 0 <= v < doc["params"]["k"])
    return rule, ("label",)


def plant(ws, case, ctx: dict):
    """Write the mutated file; return (its text before, the predicate the
    mutated value must meet for exit 0 or None, the key words an error may
    name instead of a line)."""
    name, how, where, value = case
    path = ws[name]
    before = read(path)
    rule, keys = None, JSON_KEYS.get(name, ())
    if how in ("cut line", "extra token") and name in ("network.txt", "od.txt"):
        (i,) = where
        text = before[:i] if how == "cut line" else before[:i] + " 7" + before[i:]
    elif how in ("cut line", "extra token"):
        lines = before.splitlines()
        (i,) = where
        if how == "cut line":
            lines[i] = lines[i][:len(lines[i]) // 2]
        else:
            lines[i] += "," + lines[i].split(",")[-1] if name == "links.csv" else " 7"
        # in JSON an extra number may still parse, into a list of a wrong shape
        text = "\n".join(lines) + "\n"
    elif name in JSON_PATHS:
        doc = json.loads(before)
        *parent, last = where
        node = doc
        for key in parent:
            node = node[key]
        old = node[last]
        node[last] = float(value) if value in ("nan", "inf") else int(value)
        rule, keys = json_rule(name, json.loads(before), where, old, ctx)
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = before.splitlines()
        i, col = where
        cells = lines[i].split(",")
        old = number(cells[col])
        cells[col] = value
        lines[i] = ",".join(cells)
        rule = (lambda v: v == old) if col < 2 else (lambda v: finite(v) and v >= 0)
        text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
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
