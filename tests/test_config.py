"""The one field rule and the one JSON reader, held to every config class."""

import dataclasses
import math
import re

import pytest

from lcftraffic.config import from_json
from lcftraffic.model import ModelConfig, TrainConfig
from lcftraffic.partition import PartitionParams
from lcftraffic.simulate import SimConfig

CONFIGS = (SimConfig, ModelConfig, TrainConfig, PartitionParams)

# values of another kind, a bool standing in for a number included
WRONG_KIND = {"bool": ["no", 1], "int": [2.5, True, "2"],
              "float": ["1.0", True, None], "str": [5, None],
              "tuple[int, ...]": [[8], (8.0,), (True,)]}


def outside(f) -> list:
    """The values just outside each bound that field ``f`` declares."""
    rule, kind = f.metadata, f.type
    step = {"int": lambda v, d: v + d,
            "float": lambda v, d: math.nextafter(v, d * math.inf)}
    item = "int" if kind.startswith("tuple") else kind
    values = []
    if "gt" in rule:
        values.append(rule["gt"])
    if "ge" in rule:
        values.append(step[item](rule["ge"], -1))
    if "le" in rule:
        values.append(step[item](rule["le"], 1))
    if "one_of" in rule:
        values.append("Bogus")
    return [(v,) if kind.startswith("tuple") else v for v in values]


def bad_values(cls):
    for f in dataclasses.fields(cls):
        for value in WRONG_KIND[f.type] + ([math.nan] if f.type == "float"
                                           else []) + outside(f):
            yield f.name, value


@pytest.mark.parametrize("cls", CONFIGS)
def test_default_config_round_trips_through_json(cls):
    assert from_json(cls, dataclasses.asdict(cls()), "x") == cls()


def test_a_float_field_takes_an_int():
    assert SimConfig(step_s=5, window_s=180).step_s == 5
    assert PartitionParams(alpha=2).alpha == 2


@pytest.mark.parametrize("cls,name,value", [
    (cls, name, value) for cls in CONFIGS for name, value in bad_values(cls)])
def test_every_field_refuses_a_wrong_kind_nan_and_each_bound(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}(\[0\])? must be "):
        cls(**{name: value})


@pytest.mark.parametrize("doc,expected", [
    ({"k": 4}, "x: no key 'alpha'"),
    ({**dataclasses.asdict(PartitionParams()), "boundary": 1},
     "x: unknown key 'boundary'"),
    ({**dataclasses.asdict(PartitionParams()), "k": 0}, "x: k must be >= 1, got 0"),
    ([4], "x must be a JSON object, got [4]"),
])
def test_from_json_names_where_and_key(doc, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        from_json(PartitionParams, doc, "x")
