"""Model serialization: the brtm/1 line-oriented text format.

Layout (UTF-8, one JSON document per line after the version tag):

    brtm/1
    {"config": {...}, "feature_names": [...], "f0": ..., "n_stages": N}
    {"gamma": ..., "feature": [...], "threshold": [...], "missing_right": [...],
     "left": [...], "right": [...], "value": [...], "improvement": [...]}
    ... (N stage lines)

Stage arrays are node-indexed; feature -1 marks a leaf, whose threshold,
child, and routing entries are placeholders. A stage line is one row of a
BoostedModel's columns: save_model writes the rows a line at a time;
load_model reads a line at a time, parses and checks a block of lines at a
time, keeping their node fields flat, and pads them into the columns once,
with node_columns, at the end, so neither holds the whole document. Floats are
written as Python repr (shortest round-trip decimal), so load(save(model))
predicts bit-identically. Unknown object fields are ignored with a warning so newer
writers stay readable; a different version tag is an error.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import asdict, fields
from itertools import chain

import numpy as np

from .boosting import BoostConfig, BoostedModel, node_columns
from .data import DecodeError, _decode, naming
from .tree import NODE_FIELDS

FORMAT_VERSION = "brtm/1"

# Stage lines parsed, or written, at a time: a parsed line is many small objects,
# about four times its bytes, so a block at a time keeps peak memory low.
_BLOCK = 32
_HEADER_KEYS = {"config", "feature_names", "f0", "n_stages"}
_STAGE_KEYS = {"gamma", *NODE_FIELDS}  # NODE_FIELDS' order is also their order on a stage line
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
    """Write model as a brtm/1 document to a path or a text stream, a line at a
    time. A path is opened in text mode as UTF-8, with "\n" line ends on every platform."""
    if not hasattr(sink, "write"):
        with open(sink, "w", encoding="utf-8", newline="") as f:
            save_model(model, f)
        return
    header = {
        "config": asdict(model.config),
        "feature_names": list(model.feature_names),
        "f0": model.f0,
        "n_stages": model.n_stages,
    }
    sink.write(f"{FORMAT_VERSION}\n{_dump(header)}\n")
    for a in range(0, model.n_stages, _BLOCK):
        rows = {k: model.nodes[k][a : a + _BLOCK].tolist() for k in NODE_FIELDS}
        counts = model.node_count[a : a + _BLOCK].tolist()
        for i, gamma in enumerate(model.gamma[a : a + _BLOCK].tolist()):
            sink.write(_dump({"gamma": gamma, **{k: rows[k][i][: counts[i]] for k in NODE_FIELDS}}) + "\n")


def _error(line, message: str) -> ModelParseError:
    return ModelParseError(f"model parse error at line {line}: {message}")


def _parse_json_line(line: str, lineno: int):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise _error(lineno, e.msg) from None
    except RecursionError:
        raise _error(lineno, "nested too deeply") from None
    if not isinstance(obj, dict):
        raise _error(lineno, "expected an object")
    return obj


def _column(objs: list, key: str, line) -> list:
    """Field `key` of every object in `objs`; an error naming `line` if one lacks it."""
    if any(key not in obj for obj in objs):
        raise _error(line, f"missing field {key!r}")
    return [obj[key] for obj in objs]


def _number(v, key: str, line) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            f = float(v)
            if math.isfinite(f):
                return f
    raise _error(line, f"field {key!r} must be a finite number, got {v!r}")


def _warn_unknown(obj: dict, known: set, lineno: int) -> None:
    extra = sorted(set(obj) - known)
    if extra:
        warnings.warn(f"model file line {lineno}: ignoring unknown field(s) {extra}", stacklevel=3)


def _stage_columns(objs: list, lines, n_features: int) -> dict:
    """``gamma``, node ``count`` and each NODE_FIELDS entry of parsed stage lines,
    unpadded, each field checked as a whole list, the node fields as flat arrays
    (a node's index in its stage is its flat index less its stage root's); errors
    name ``lines``. Once a check fails, load_model checks the lines one at a time,
    so that the error names the first bad line and its first fault, as a
    line-by-line read does."""
    gamma = _column(objs, "gamma", lines)
    if not (set(map(type, gamma)) <= {float} and all(map(math.isfinite, gamma))):
        gamma = [_number(v, "gamma", lines) for v in gamma]  # ints as floats, or an error at the first bad one
    gamma = np.array(gamma, dtype=np.float64)
    flat, lengths = {}, []
    for k, (dtype, _) in NODE_FIELDS.items():
        vals = _column(objs, k, lines)
        allowed = _NODE_TYPES.get(k, _NUMBER_TYPES)
        items = list(chain.from_iterable(vals)) if set(map(type, vals)) <= {list} else [None]
        if not set(map(type, items)) <= allowed:
            v = next(v for v in vals if type(v) is not list or not set(map(type, v)) <= allowed)
            kinds = " or ".join(sorted(t.__name__ for t in allowed))
            raise _error(lines, f"field {k!r} must be a list of {kinds}, got {v!r}")
        try:
            flat[k] = np.array(items, dtype=dtype)
        except OverflowError as e:  # an int too large for the dtype
            raise _error(lines, f"field {k!r}: {e}") from None
        finite = np.isfinite(flat[k])
        if not finite.all():  # JSON NaN or +-Infinity
            raise _error(lines, f"field {k!r} must hold finite numbers, got {flat[k][~finite][0].item()!r}")
        lengths.append(list(map(len, vals)))
    count = np.array(lengths[0], dtype=np.intp)
    if lengths.count(lengths[0]) < len(lengths) or not count.all():
        raise _error(lines, "node arrays must share one nonzero length")
    feature, left, right = flat["feature"], flat["left"], flat["right"]
    starts = np.cumsum(count) - count  # the flat index of each stage's root
    root, end = np.repeat(starts, count), np.repeat(count, count)
    node, split = np.arange(len(feature)) - root, feature >= 0
    unknown = (feature < -1) | (feature >= n_features)
    bad = np.flatnonzero(unknown | (split & ~((node < left) & (left < end) & (node < right) & (right < end))))
    if bad.size:
        i = int(bad[0])
        message = f"splits on unknown feature {feature[i]}" if unknown[i] else "has invalid children"
        raise _error(lines, f"node {node[i]} {message}")
    # how many splits name each node as a child, the roots counted once
    named = np.concatenate([(root + left)[split], (root + right)[split], starts])
    bad = np.flatnonzero(np.bincount(named, minlength=len(feature)) != 1)
    if bad.size:
        raise _error(lines, f"node {node[bad[0]]} is not the child of exactly one split")
    return {"gamma": gamma, "count": count, **flat}


def load_model(source) -> BoostedModel:
    """The model in a brtm/1 document at a path or in a text stream, read a line
    at a time; a path's lines end at each b"\\n". A malformed document raises
    ModelParseError, which ``naming`` prefixes with the source, naming the line
    where there is one."""
    with naming(source, error=ModelParseError):
        if hasattr(source, "read"):
            return _parse_model(enumerate(source, 1))
        with open(source, "rb") as f:
            return _parse_model(_decoded(f))


def _decoded(f):
    """(line number, text) of each line of the binary file f."""
    for no, raw in enumerate(f, 1):
        try:
            yield no, _decode(raw, no)
        except DecodeError as e:
            raise _error(e.line, e.reason) from None


def _parse_model(lines) -> BoostedModel:
    """The model in the (line number, text) pairs ``lines``, numbered from 1;
    a line may keep its line end, which JSON reads as whitespace."""
    first = next(lines, None)
    if first is None:
        raise _error(1, "empty document")
    version = first[1].strip()
    if version != FORMAT_VERSION:
        shown = version if len(version) <= 40 else version[:40] + "..."  # a file without \n is one line
        raise ModelParseError(f"unsupported model version {shown!r} (expected {FORMAT_VERSION!r})")
    second = next(lines, None)
    if second is None:
        raise _error(2, "missing header")

    header = _parse_json_line(second[1], 2)
    _warn_unknown(header, _HEADER_KEYS, 2)
    cfg_obj = _column([header], "config", 2)[0]
    if not isinstance(cfg_obj, dict):
        raise _error(2, "'config' must be an object")
    _warn_unknown(cfg_obj, _CONFIG_KEYS, 2)
    for k, v in cfg_obj.items():
        try:
            _dump(v)
        except ValueError:  # JSON NaN or +-Infinity, possibly nested
            raise _error(2, f"field 'config.{k}' must be finite, got {v!r}") from None
    for f in fields(BoostConfig):
        allowed, kind = _CONFIG_TYPES[f.type]
        if f.name in cfg_obj and type(cfg_obj[f.name]) not in allowed:
            raise _error(2, f"field 'config.{f.name}' must be {kind}, got {cfg_obj[f.name]!r}")
    try:
        config = BoostConfig(**{k: v for k, v in cfg_obj.items() if k in _CONFIG_KEYS})
    except (TypeError, ValueError) as e:
        raise _error(2, f"bad config: {e}") from None
    feature_names = _column([header], "feature_names", 2)[0]
    if not isinstance(feature_names, list) or not all(isinstance(s, str) for s in feature_names):
        raise _error(2, "'feature_names' must be a list of strings")
    duplicates = sorted({s for s in feature_names if feature_names.count(s) > 1})
    if duplicates:
        raise _error(2, f"duplicate feature name(s) {duplicates}")
    f0 = _number(_column([header], "f0", 2)[0], "f0", 2)
    n_stages = _column([header], "n_stages", 2)[0]
    if type(n_stages) is not int or n_stages < 0:
        raise _error(2, f"field 'n_stages' must be a non-negative integer, got {n_stages!r}")

    # each block's flat columns, from an empty one that keeps a model of no stages well typed
    parts = {k: [column] for k, column in _stage_columns([], 3, len(feature_names)).items()}
    block, seen = [], 0
    for no, ln in lines:
        if not ln.strip():
            continue
        seen += 1
        if seen <= n_stages:  # later lines are only counted, for the message below
            block.append((no, ln))
        if len(block) == _BLOCK or seen == n_stages:
            for k, column in _stage_block(block, len(feature_names)).items():
                parts[k].append(column)
            block = []
    if seen != n_stages:
        raise ModelParseError(f"model parse error: header declares {n_stages} stages but document has {seen}")
    gamma, count = (np.concatenate(parts.pop(k)) for k in ("gamma", "count"))
    nodes = node_columns(count, {k: np.concatenate(parts.pop(k)) for k in NODE_FIELDS})
    return BoostedModel(f0, config, tuple(feature_names), gamma, count, nodes)


def _stage_block(block: list, n_features: int) -> dict:
    """_stage_columns of the (line number, text) stage lines ``block``,
    warning of unknown fields line by line, if a line has any."""
    try:
        objs = [_parse_json_line(ln, no) for no, ln in block]
        columns = _stage_columns(objs, f"{block[0][0]}-{block[-1][0]}", n_features)
    except ModelParseError:
        for no, ln in block:  # name the first bad line, as a line-by-line read does
            _stage_columns([_parse_json_line(ln, no)], no, n_features)
        raise
    if max(map(len, objs)) > len(_STAGE_KEYS):  # each has every stage key, so a longer one has others
        for (no, _), obj in zip(block, objs):
            _warn_unknown(obj, _STAGE_KEYS, no)
    return columns
