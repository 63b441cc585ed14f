"""Model serialization: the brtm/1 line-oriented text format.

Layout (UTF-8, one JSON document per line after the version tag):

    brtm/1
    {"config": {...}, "feature_names": [...], "f0": ..., "n_stages": N}
    {"gamma": ..., "feature": [...], "threshold": [...], "missing_right": [...],
     "left": [...], "right": [...], "value": [...], "improvement": [...]}
    ... (N stage lines)

Stage arrays are node-indexed; feature -1 marks a leaf, whose threshold,
child, and routing entries are placeholders. Floats are written as Python
repr (shortest round-trip decimal), so load(save(model)) predicts
bit-identically. Unknown object fields are ignored with a warning so
newer writers stay readable; a different version tag is an error.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .boosting import BoostConfig, BoostedModel, Stage
from .tree import RegressionTree

FORMAT_VERSION = "brtm/1"

# RegressionTree arrays in constructor order, which is also their order on a stage line.
_NODE_FIELDS = ("feature", "threshold", "missing_right", "left", "right", "value", "improvement")
_HEADER_KEYS = {"config", "feature_names", "f0", "n_stages"}
_STAGE_KEYS = {"gamma", *_NODE_FIELDS}
_CONFIG_KEYS = {f.name for f in fields(BoostConfig)}
# JSON types each node array may hold, matched exactly so that booleans are not ints.
_NODE_TYPES = {"feature": {int}, "left": {int}, "right": {int}, "missing_right": {bool}}
_NUMBER_TYPES = {int, float}
# JSON types each config value may hold, by its BoostConfig annotation, and how errors name them.
_CONFIG_TYPES = {"int": ({int}, "an integer"), "float": (_NUMBER_TYPES, "a number"), "str": ({str}, "a string")}


class ModelParseError(ValueError):
    """Malformed model document; message carries line/field context."""


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def save_model(model: BoostedModel, sink) -> None:
    header = {
        "config": asdict(model.config),
        "feature_names": list(model.feature_names),
        "f0": model.f0,
        "n_stages": model.n_stages,
    }
    lines = [FORMAT_VERSION, _dump(header)]
    for stage in model.stages:
        t = stage.tree
        lines.append(_dump({"gamma": stage.gamma, **{k: getattr(t, k).tolist() for k in _NODE_FIELDS}}))
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")


def _parse_json_line(line: str, lineno: int):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ModelParseError(f"model parse error at line {lineno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ModelParseError(f"model parse error at line {lineno}: expected an object")
    return obj


def _require(obj: dict, key: str, lineno: int):
    if key not in obj:
        raise ModelParseError(f"model parse error at line {lineno}: missing field {key!r}")
    return obj[key]


def _number(obj: dict, key: str, lineno: int) -> float:
    v = _require(obj, key, lineno)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            f = float(v)
            if math.isfinite(f):
                return f
    raise ModelParseError(f"model parse error at line {lineno}: field {key!r} must be a finite number, got {v!r}")


def _warn_unknown(obj: dict, known: set, lineno: int) -> None:
    extra = sorted(set(obj) - known)
    if extra:
        warnings.warn(f"model file line {lineno}: ignoring unknown field(s) {extra}", stacklevel=3)


def _stage_from_obj(obj: dict, lineno: int, n_features: int) -> Stage:
    _warn_unknown(obj, _STAGE_KEYS, lineno)
    gamma = _number(obj, "gamma", lineno)
    arrays = {}
    for k in _NODE_FIELDS:
        v = arrays[k] = _require(obj, k, lineno)
        allowed = _NODE_TYPES.get(k, _NUMBER_TYPES)
        if not isinstance(v, list) or not set(map(type, v)) <= allowed:
            kinds = " or ".join(sorted(t.__name__ for t in allowed))
            raise ModelParseError(
                f"model parse error at line {lineno}: field {k!r} must be a list of {kinds}, got {v!r}"
            )
        bad = [x for x in v if type(x) is float and not math.isfinite(x)]  # JSON NaN or +-Infinity
        if bad:
            raise ModelParseError(
                f"model parse error at line {lineno}: field {k!r} must hold finite numbers, got {bad[0]!r}"
            )
    lengths = {len(v) for v in arrays.values()}
    if len(lengths) != 1 or not lengths.pop() >= 1:
        raise ModelParseError(f"model parse error at line {lineno}: node arrays must share one nonzero length")
    n_nodes = len(arrays["feature"])
    for i in range(n_nodes):
        f = arrays["feature"][i]
        if not -1 <= f < n_features:
            raise ModelParseError(f"model parse error at line {lineno}: node {i} splits on unknown feature {f}")
        if f >= 0:
            lo, hi = arrays["left"][i], arrays["right"][i]
            if not (i < lo < n_nodes and i < hi < n_nodes):
                raise ModelParseError(f"model parse error at line {lineno}: node {i} has invalid children")
    try:
        tree = RegressionTree(*arrays.values(), n_features)
    except OverflowError as e:  # an int too large for the array's dtype
        raise ModelParseError(f"model parse error at line {lineno}: {e}") from None
    return Stage(tree=tree, gamma=gamma)


def load_model(source) -> BoostedModel:
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ModelParseError("model parse error at line 1: empty document")
    version = lines[0].strip()
    if version != FORMAT_VERSION:
        raise ModelParseError(f"unsupported model version {version!r} (expected {FORMAT_VERSION!r})")
    if len(lines) < 2:
        raise ModelParseError("model parse error at line 2: missing header")

    header = _parse_json_line(lines[1], 2)
    _warn_unknown(header, _HEADER_KEYS, 2)
    cfg_obj = _require(header, "config", 2)
    if not isinstance(cfg_obj, dict):
        raise ModelParseError("model parse error at line 2: 'config' must be an object")
    _warn_unknown(cfg_obj, _CONFIG_KEYS, 2)
    for k, v in cfg_obj.items():
        try:
            _dump(v)
        except ValueError:  # JSON NaN or +-Infinity, possibly nested
            raise ModelParseError(
                f"model parse error at line 2: field 'config.{k}' must be finite, got {v!r}"
            ) from None
    for f in fields(BoostConfig):
        allowed, kind = _CONFIG_TYPES[f.type]
        if f.name in cfg_obj and type(cfg_obj[f.name]) not in allowed:
            raise ModelParseError(
                f"model parse error at line 2: field 'config.{f.name}' must be {kind}, got {cfg_obj[f.name]!r}"
            )
    try:
        config = BoostConfig(**{k: v for k, v in cfg_obj.items() if k in _CONFIG_KEYS})
    except (TypeError, ValueError) as e:
        raise ModelParseError(f"model parse error at line 2: bad config: {e}") from None
    feature_names = _require(header, "feature_names", 2)
    if not isinstance(feature_names, list) or not all(isinstance(s, str) for s in feature_names):
        raise ModelParseError("model parse error at line 2: 'feature_names' must be a list of strings")
    duplicates = sorted({s for s in feature_names if feature_names.count(s) > 1})
    if duplicates:
        raise ModelParseError(f"model parse error at line 2: duplicate feature name(s) {duplicates}")
    f0 = _number(header, "f0", 2)
    n_stages = _require(header, "n_stages", 2)
    if type(n_stages) is not int or n_stages < 0:
        raise ModelParseError(
            f"model parse error at line 2: field 'n_stages' must be a non-negative integer, got {n_stages!r}"
        )

    stage_lines = [(i + 3, ln) for i, ln in enumerate(lines[2:]) if ln.strip()]
    if len(stage_lines) != n_stages:
        raise ModelParseError(
            f"model parse error: header declares {n_stages} stages but document has {len(stage_lines)}"
        )
    stages = tuple(_stage_from_obj(_parse_json_line(ln, no), no, len(feature_names)) for no, ln in stage_lines)
    return BoostedModel(f0=f0, stages=stages, config=config, feature_names=tuple(feature_names))
