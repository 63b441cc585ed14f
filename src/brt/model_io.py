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
load_model reads a line at a time, parses a block of lines at a time and
checks their columns whole, so neither holds the whole document. Floats are
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
from .data import DecodeError, _decode, _source_name
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
    time. A path is opened as Path.write_text opens it: text mode, UTF-8."""
    if not hasattr(sink, "write"):
        with open(sink, "w", encoding="utf-8") as f:
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


def _require(obj: dict, key: str, line):
    if key not in obj:
        raise _error(line, f"missing field {key!r}")
    return obj[key]


def _number(obj: dict, key: str, line) -> float:
    v = _require(obj, key, line)
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
    """``gamma``, node ``count`` and each node column (node_columns) of parsed
    stage lines, checked on whole columns; errors name ``lines``. Once
    a check fails, load_model checks the lines one at a time, so that the error
    names the first bad line and its first fault, as a line-by-line read does."""
    gamma = np.array([_number(obj, "gamma", lines) for obj in objs], dtype=np.float64)
    flat, lengths = {}, []
    for k, (dtype, _) in NODE_FIELDS.items():
        vals = [_require(obj, k, lines) for obj in objs]
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
    lengths = np.array(lengths, dtype=np.intp)
    if not ((lengths == lengths[0]).all() and (lengths[0] >= 1).all()):
        raise _error(lines, "node arrays must share one nonzero length")
    nodes = node_columns(lengths[0], flat)
    feature, left, right = nodes["feature"], nodes["left"], nodes["right"]
    node, end, split = np.arange(feature.shape[1]), lengths[0][:, None], feature >= 0
    unknown = (feature < -1) | (feature >= n_features)
    bad = np.flatnonzero(unknown | (split & ~((node < left) & (left < end) & (node < right) & (right < end))))
    if bad.size:
        m, i = divmod(int(bad[0]), feature.shape[1])
        message = f"splits on unknown feature {feature[m, i]}" if unknown[m, i] else "has invalid children"
        raise _error(lines, f"node {i} {message}")
    parents = np.zeros(feature.shape)  # how many splits name each node as a child
    np.add.at(parents, (np.nonzero(split)[0], left[split]), 1.0)
    np.add.at(parents, (np.nonzero(split)[0], right[split]), 1.0)
    parents[:, 0] = 1.0  # the root, which no split names
    bad = np.flatnonzero((parents != 1.0) & (node < end))
    if bad.size:
        raise _error(lines, f"node {int(bad[0]) % feature.shape[1]} is not the child of exactly one split")
    return {"gamma": gamma, "count": lengths[0], **nodes}


def load_model(source) -> BoostedModel:
    """The model in a brtm/1 document at a path or in a text stream, read a line
    at a time; a path's lines end at each b"\\n". A malformed document raises
    ModelParseError naming the source and, where there is one, the line."""
    try:
        if hasattr(source, "read"):
            return _parse_model(enumerate(source, 1))
        with open(source, "rb") as f:
            return _parse_model(_decoded(f))
    except ModelParseError as e:
        raise ModelParseError(f"{_source_name(source)}: {e}") from None


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
    cfg_obj = _require(header, "config", 2)
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
    feature_names = _require(header, "feature_names", 2)
    if not isinstance(feature_names, list) or not all(isinstance(s, str) for s in feature_names):
        raise _error(2, "'feature_names' must be a list of strings")
    duplicates = sorted({s for s in feature_names if feature_names.count(s) > 1})
    if duplicates:
        raise _error(2, f"duplicate feature name(s) {duplicates}")
    f0 = _number(header, "f0", 2)
    n_stages = _require(header, "n_stages", 2)
    if type(n_stages) is not int or n_stages < 0:
        raise _error(2, f"field 'n_stages' must be a non-negative integer, got {n_stages!r}")

    # each block's columns, from an empty one that keeps a model of no stages well typed
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
    nodes = {}
    for k, (dtype, pad) in NODE_FIELDS.items():  # a field at a time, dropping its blocks once it is built
        column = nodes[k] = np.full((len(count), int(count.max(initial=1))), pad, dtype=dtype)
        a = 0
        for rows in parts.pop(k):
            column[a : a + len(rows), : rows.shape[1]] = rows
            a += len(rows)
    return BoostedModel(f0, config, tuple(feature_names), gamma, count, nodes)


def _stage_block(block: list, n_features: int) -> dict:
    """_stage_columns of the (line number, text) stage lines ``block``,
    warning of unknown fields line by line."""
    try:
        objs = [_parse_json_line(ln, no) for no, ln in block]
        columns = _stage_columns(objs, f"{block[0][0]}-{block[-1][0]}", n_features)
    except ModelParseError:
        for no, ln in block:  # name the first bad line, as a line-by-line read does
            _stage_columns([_parse_json_line(ln, no)], no, n_features)
        raise
    for (no, _), obj in zip(block, objs):
        _warn_unknown(obj, _STAGE_KEYS, no)
    return columns
