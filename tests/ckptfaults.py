"""Faults planted in a saved checkpoint archive, for the tests that check
that ``load_model`` reports each one with the file named."""

import json

import numpy as np

FAULTS = ("empty file", "cut-off values", "text checkpoint", "npy file",
          "object array", "no meta entry", "bare meta", "missing meta",
          "unknown meta", "bool as text", "unknown output type",
          "bad number", "number as text", "bool as number",
          "statistics as text", "missing parameter",
          "extra parameter", "short values", "short statistic",
          "statistic not finite", "parameter not finite")


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON meta entry and the parameter arrays of a checkpoint."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = dict(archive)
    return json.loads(arrays.pop("meta").item()), arrays


def write_checkpoint(path, meta_text: str | None,
                     arrays: dict[str, np.ndarray]) -> None:
    meta = {} if meta_text is None else {"meta": np.array(meta_text)}
    with open(path, "wb") as fh:
        np.savez(fh, **meta, **arrays)


def plant(path, fault: str) -> str:
    """Plant ``fault`` in the checkpoint at ``path`` (a pathlib.Path) and
    return what ``load_model`` reports after "<path>: "."""
    meta, arrays = read_checkpoint(path)
    if fault == "empty file":
        path.write_bytes(b"")
        return "not a checkpoint archive"
    if fault == "cut-off values":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        return "File is not a zip file"
    if fault == "text checkpoint":    # the format of earlier versions
        path.write_text("# checkpoint\nmeta dtype float32\nmeta heads 2\n"
                        "array fc.1.b 1,1\n0.0\n")
        return "not a checkpoint archive (text checkpoints of earlier " \
               "versions are not read); regenerate it with lcftraffic train"
    if fault == "npy file":
        with open(path, "wb") as fh:
            np.save(fh, arrays["fc.0.W"])
        return "not a checkpoint archive"
    meta_text = json.dumps(meta)
    if fault == "object array":
        arrays["fc.0.b"] = np.array([None], dtype=object)
        expected = "Object arrays cannot be loaded when allow_pickle=False"
    elif fault == "no meta entry":
        meta_text = None
        expected = "no 'meta' entry"
    elif fault == "bare meta":
        meta_text = meta_text[:meta_text.index(":")]
        expected = "Expecting ':' delimiter"
    elif fault == "missing meta":
        del meta["config"]["heads"]
        meta_text = json.dumps(meta)
        expected = "meta.config: no key 'heads'"
    elif fault == "unknown meta":    # a field the config no longer has
        meta["config"]["leaky_slope"] = 0.2
        meta_text = json.dumps(meta)
        expected = "meta.config: unknown key 'leaky_slope'"
    elif fault == "bool as text":
        meta["config"]["use_gru"] = "no"
        meta_text = json.dumps(meta)
        expected = "meta.config: use_gru must be a bool, got 'no'"
    elif fault == "unknown output type":
        meta["config"]["output_type"] = "Bogus"
        meta_text = json.dumps(meta)
        expected = ("meta.config: output_type must be one of Ratio, Diff, "
                    "Speed, got 'Bogus'")
    elif fault == "bad number":
        meta["norm"]["vmean_lo"] = "1.5x"
        meta_text = json.dumps(meta)
        expected = "meta.norm: vmean_lo must be a float, got '1.5x'"
    elif fault == "number as text":    # a value of the wrong kind, never coerced
        meta["norm"]["vmean_lo"] = "1.5"
        meta_text = json.dumps(meta)
        expected = "meta.norm: vmean_lo must be a float, got '1.5'"
    elif fault == "bool as number":
        meta["norm"]["vmean_hi"] = True
        meta_text = json.dumps(meta)
        expected = "meta.norm: vmean_hi must be a float, got True"
    elif fault == "statistics as text":
        meta["norm"]["feat_lo"] = [str(v) for v in meta["norm"]["feat_lo"]]
        meta_text = json.dumps(meta)
        expected = "meta.norm: feat_lo[0] must be a float, got '"
    elif fault == "short statistic":    # would broadcast over every feature
        meta["norm"]["feat_lo"] = [0.0]
        meta_text = json.dumps(meta)
        expected = "meta.norm: feat_lo must hold 10 numbers, got [0.0]"
    elif fault == "statistic not finite":
        meta["norm"]["target_hi"] = float("nan")
        meta_text = json.dumps(meta)
        expected = "meta.norm: target_hi must be finite, got nan"
    elif fault == "missing parameter":
        del arrays["fc.1.b"]
        expected = "array 'fc.1.b' is missing; expected shape (1, 1)"
    elif fault == "extra parameter":
        arrays["fc.9.b"] = arrays["fc.1.b"]
        expected = "unexpected array 'fc.9.b'"
    elif fault == "parameter not finite":
        arrays["fc.0.W"][0, 0] = np.nan
        expected = "array 'fc.0.W' holds a value that is not finite"
    elif fault == "short values":
        w = arrays["fc.0.W"]
        arrays["fc.0.W"] = w.ravel()[:-1]
        expected = f"array 'fc.0.W' has shape ({w.size - 1},), expected {w.shape}"
    else:
        raise ValueError(f"unknown fault {fault!r}")
    write_checkpoint(path, meta_text, arrays)
    return expected
