import copy
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt.boosting import BoostConfig, fit_ensemble, predict, predict_batch
from brt.model_io import FORMAT_VERSION, ModelParseError, load_model, save_model
from brt.tree import NODE_FIELDS

from conftest import assert_peak_flat, column_bytes, random_dataset, traced_peak


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 18, 3, missing=True)
    cfg = BoostConfig(n_trees=60, learn_rate=0.1, max_nodes=6, min_leaf_obs=2, subsample_fraction=0.9, seed=12)
    return fit_ensemble(ds, cfg), ds


def roundtrip(model):
    buf = io.StringIO()
    save_model(model, buf)
    return load_model(io.StringIO(buf.getvalue())), buf.getvalue()


def test_roundtrip_predictions_bit_identical(fitted):
    model, ds = fitted
    loaded, _ = roundtrip(model)
    rng = np.random.default_rng(99)
    queries = rng.uniform(-6, 6, size=(100, 3))
    queries[rng.uniform(size=queries.shape) < 0.1] = np.nan
    before = predict_batch(model, queries)
    after = predict_batch(loaded, queries)
    assert np.array_equal(before, after)  # bit-exact
    assert loaded.f0 == model.f0
    assert loaded.feature_names == model.feature_names
    assert loaded.config == model.config


def test_degenerate_stages_survive_a_round_trip(fitted):
    from brt.data import Dataset

    constant = Dataset.from_arrays(np.arange(6.0)[:, None], np.full(6, 2.5))
    model = fit_ensemble(constant, BoostConfig(n_trees=5, learn_rate=0.1, min_leaf_obs=1))
    assert model.degenerate_stages == 5
    assert roundtrip(model)[0].degenerate_stages == 5
    assert fitted[0].degenerate_stages == roundtrip(fitted[0])[0].degenerate_stages == 0


def test_save_to_path_and_load(tmp_path, fitted):
    model, _ = fitted
    path = tmp_path / "m.brtm"
    save_model(model, path)
    text = path.read_text()
    assert text.splitlines()[0] == FORMAT_VERSION
    loaded = load_model(path)
    assert predict(loaded, [0.0, 0.0, 0.0]) == predict(model, [0.0, 0.0, 0.0])


def test_save_is_deterministic(fitted):
    model, _ = fitted
    _, a = roundtrip(model)
    _, b = roundtrip(model)
    assert a == b


def test_truncated_file_is_rejected(fitted):
    model, _ = fitted
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    truncated = "\n".join(lines[: len(lines) // 2])
    with pytest.raises(ModelParseError, match="model parse error"):
        load_model(io.StringIO(truncated))


def test_version_mismatch(fitted):
    model, _ = fitted
    buf = io.StringIO()
    save_model(model, buf)
    swapped = buf.getvalue().replace(FORMAT_VERSION, "brtm/9", 1)
    with pytest.raises(ModelParseError, match="unsupported model version"):
        load_model(io.StringIO(swapped))


def test_unknown_fields_accepted_with_warning(fitted):
    model, _ = fitted
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[1])
    header["future_extension"] = {"anything": 1}
    lines[1] = json.dumps(header)
    stage = json.loads(lines[2])
    stage["annotation"] = "hello"
    lines[2] = json.dumps(stage)
    doc = "\n".join(lines)
    with pytest.warns(UserWarning, match="unknown field"):
        loaded = load_model(io.StringIO(doc))
    assert predict(loaded, [0.0, 0.0, 0.0]) == predict(model, [0.0, 0.0, 0.0])


def test_garbage_and_structural_errors(fitted):
    model, _ = fitted
    with pytest.raises(ModelParseError):
        load_model(io.StringIO(""))
    with pytest.raises(ModelParseError, match="line 2"):
        load_model(io.StringIO(f"{FORMAT_VERSION}\nnot json"))
    # header field missing
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[1])
    del header["f0"]
    bad = "\n".join([lines[0], json.dumps(header)] + lines[2:])
    with pytest.raises(ModelParseError, match="missing field 'f0'"):
        load_model(io.StringIO(bad))


def test_stage_count_mismatch(fitted):
    model, _ = fitted
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[1])
    header["n_stages"] = header["n_stages"] + 5
    bad = "\n".join([lines[0], json.dumps(header)] + lines[2:])
    with pytest.raises(ModelParseError, match="declares"):
        load_model(io.StringIO(bad))


def test_invalid_children_rejected(fitted):
    model, _ = fitted
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    stage = json.loads(lines[2])
    if stage["feature"][0] >= 0:
        stage["left"][0] = 0  # self-loop
    lines[2] = json.dumps(stage)
    with pytest.raises(ModelParseError, match="invalid children"):
        load_model(io.StringIO("\n".join(lines)))


def test_bad_config_rejected(fitted):
    model, _ = fitted
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[1])
    header["config"]["learn_rate"] = 5.0
    bad = "\n".join([lines[0], json.dumps(header)] + lines[2:])
    with pytest.raises(ModelParseError, match="bad config"):
        load_model(io.StringIO(bad))


def _mutated(model, lineno, field, value):
    buf = io.StringIO()
    save_model(model, buf)
    lines = buf.getvalue().splitlines()
    obj = json.loads(lines[lineno - 1])
    obj[field] = value(obj[field]) if callable(value) else value
    lines[lineno - 1] = json.dumps(obj)
    return io.StringIO("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "field, value",
    [
        ("left", 5),
        ("right", None),
        ("feature", lambda a: ["0", *a[1:]]),
        ("feature", lambda a: [True, *a[1:]]),
        ("feature", lambda a: [1.5, *a[1:]]),
        ("left", lambda a: [*a[:-1], 1.0]),
        ("right", lambda a: [*a[:-1], "2"]),
        ("missing_right", lambda a: ["false", *a[1:]]),
        ("threshold", lambda a: ["1.5", *a[1:]]),
        ("value", lambda a: [None, *a[1:]]),
        ("improvement", lambda a: [False, *a[1:]]),
    ],
)
def test_node_array_of_wrong_type_names_line_and_field(fitted, field, value):
    model, _ = fitted
    with pytest.raises(ModelParseError, match=f"line 4: field '{field}' must be a list of"):
        load_model(_mutated(model, 4, field, value))


def test_unknown_feature_index_rejected(fitted):
    model, _ = fitted
    with pytest.raises(ModelParseError, match="line 3: node 0 splits on unknown feature -7"):
        load_model(_mutated(model, 3, "feature", lambda a: [-7, *a[1:]]))


@pytest.mark.parametrize("value", ["3", 3.0, True, -1, None])
def test_n_stages_must_be_a_nonnegative_int(fitted, value):
    model, _ = fitted
    with pytest.raises(ModelParseError, match="line 2: field 'n_stages' must be a non-negative integer"):
        load_model(_mutated(model, 2, "n_stages", value))


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("seed", "abc", "an integer"),
        ("seed", 1.0, "an integer"),
        ("max_nodes", 3.5, "an integer"),
        ("n_trees", True, "an integer"),
        ("min_leaf_obs", None, "an integer"),
        ("learn_rate", "0.1", "a number"),
        ("subsample_fraction", False, "a number"),
        ("loss", 1, "a string"),
    ],
)
def test_config_value_of_wrong_type_names_field(fitted, key, value, kind):
    model, _ = fitted
    with pytest.raises(ModelParseError, match=rf"line 2: field 'config\.{key}' must be {kind}, got {value!r}"):
        load_model(_mutated(model, 2, "config", lambda c: {**c, key: value}))


def test_config_number_fields_accept_json_ints(fitted):
    model, _ = fitted
    loaded = load_model(_mutated(model, 2, "config", lambda c: {**c, "learn_rate": 0, "subsample_fraction": 1}))
    assert loaded.config.learn_rate == 0 and loaded.config.subsample_fraction == 1


def test_duplicate_feature_names_rejected(fitted):
    model, _ = fitted
    with pytest.raises(ModelParseError, match=r"line 2: duplicate feature name\(s\) \['x0'\]"):
        load_model(_mutated(model, 2, "feature_names", lambda names: [names[0], *names[:-1]]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "lineno, field, value",
    [
        (2, "f0", NAN),
        (2, "f0", -INF),
        (3, "gamma", INF),
        (4, "gamma", NAN),
        (3, "threshold", lambda a: [NAN, *a[1:]]),
        (4, "value", lambda a: [*a[:-1], INF]),
        (5, "improvement", lambda a: [-INF, *a[1:]]),
        (2, "config", lambda c: {**c, "n_trees": INF}),
        (2, "config", lambda c: {**c, "seed": [NAN]}),
    ],
)
def test_non_finite_numbers_rejected_naming_line_and_field(fitted, lineno, field, value):
    model, _ = fitted
    with pytest.raises(ModelParseError, match=rf"line {lineno}: field '{field}[.\w]*' must"):
        load_model(_mutated(model, lineno, field, value))


def _has_non_finite(value) -> bool:
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return True
    return False


@pytest.fixture(scope="module")
def small_saved():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, 10, 3, missing=True)
    cfg = BoostConfig(n_trees=4, learn_rate=0.3, max_nodes=6, min_leaf_obs=1, subsample_fraction=0.8, seed=5)
    buf = io.StringIO()
    save_model(fit_ensemble(ds, cfg), buf)
    lines = buf.getvalue().splitlines()
    objs = [json.loads(ln) for ln in lines[1:]]
    # every scalar in the document: (line index, field, key or list index or None)
    paths = []
    for i, obj in enumerate(objs):
        for field, v in obj.items():
            inner = v.keys() if isinstance(v, dict) else range(len(v)) if isinstance(v, list) else [None]
            paths.extend((i, field, key) for key in inner)
    return lines[0], objs, paths, ds.X


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(2**63) - 1, 2**64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_NON_FINITE = st.sampled_from([NAN, INF, -INF])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_mutations_raise_parse_error_or_predict(small_saved, data):
    version, objs, paths, X = small_saved
    i, field, key = data.draw(st.sampled_from(paths))
    value = data.draw(st.one_of(_SCALARS, _NON_FINITE, st.lists(st.one_of(_SCALARS, _NON_FINITE), max_size=3)))
    obj = copy.deepcopy(objs[i])
    if key is None:
        obj[field] = value
    else:
        obj[field][key] = value
    lines = [version] + [json.dumps(o) for o in objs]
    lines[i + 1] = json.dumps(obj)
    try:
        model = load_model(io.StringIO("\n".join(lines) + "\n"))
    except ModelParseError:
        return
    assert not _has_non_finite(value), f"loaded a document holding {value!r} at {field}[{key!r}]"
    predict_batch(model, X)


def _doc(model, stage_objs):
    """model's version and header lines over the given stage objects."""
    lines = roundtrip(model)[1].splitlines()[:2]
    header = json.loads(lines[1])
    header["n_stages"] = len(stage_objs)
    return io.StringIO("\n".join([lines[0], json.dumps(header)] + [json.dumps(o) for o in stage_objs]) + "\n")


def _split_stage(**changes):
    """A 3-node stage line splitting on feature 0, with ``changes`` applied to it."""
    stage = {
        "gamma": 1.0,
        "feature": [0, -1, -1],
        "threshold": [0.5, 0.0, 0.0],
        "missing_right": [False, False, False],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "value": [0.0, -1.0, 1.0],
        "improvement": [2.0, 0.0, 0.0],
    }
    for key, change in changes.items():
        stage[key] = change(stage[key])
    return stage


# One fault per stage line, and the message it must raise.
FAULTS = {
    "unknown feature": (dict(feature=lambda a: [7, *a[1:]]), "node 0 splits on unknown feature 7"),
    "bad children": (dict(left=lambda a: [0, *a[1:]]), "node 0 has invalid children"),
    "mistyped entry": (dict(threshold=lambda a: ["0.5", *a[1:]]), "field 'threshold' must be a list of"),
    "non-finite entry": (dict(value=lambda a: [*a[:-1], INF]), "field 'value' must hold finite numbers"),
    "unreachable node": (dict(feature=lambda a: [-1, *a[1:]]), "node 1 is not the child of exactly one split"),
}


@pytest.mark.parametrize("late", FAULTS)
@pytest.mark.parametrize("early", FAULTS)
def test_the_first_bad_line_is_named(fitted, early, late):
    model, _ = fitted
    stages = [_split_stage() for _ in range(5)]  # lines 3 to 7
    stages[1] = _split_stage(**FAULTS[early][0])
    stages[3] = _split_stage(**FAULTS[late][0])
    with pytest.raises(ModelParseError, match=rf"at line 4: {FAULTS[early][1]}"):
        load_model(_doc(model, stages))
    stages[1] = _split_stage()
    with pytest.raises(ModelParseError, match=rf"at line 6: {FAULTS[late][1]}"):
        load_model(_doc(model, stages))


def test_the_first_bad_line_is_named_among_many_stages(fitted):
    model, _ = fitted
    stages = [_split_stage() for _ in range(100)]  # lines 3 to 102, read in several blocks
    stages[57] = _split_stage(**FAULTS["mistyped entry"][0])
    stages[77] = _split_stage(**FAULTS["unknown feature"][0])
    with pytest.raises(ModelParseError, match=rf"at line 60: {FAULTS['mistyped entry'][1]}"):
        load_model(_doc(model, stages))
    stages[57] = _split_stage()
    with pytest.raises(ModelParseError, match=rf"at line 80: {FAULTS['unknown feature'][1]}"):
        load_model(_doc(model, stages))
    stages[77] = _split_stage()
    assert load_model(_doc(model, stages)).n_stages == 100


@pytest.mark.parametrize(
    "feature, left, right, node",
    [
        ([-1, -1, -1], [-1, -1, -1], [-1, -1, -1], 1),  # a stump with two leaves no split reaches
        ([0, -1, -1], [1, -1, -1], [1, -1, -1], 1),  # both children of the root are node 1
        ([0, 1, 1, -1, -1], [1, 3, 3, -1, -1], [2, 4, 4, -1, -1], 3),  # nodes 1 and 2 share children
        ([0, -1, -1, -1, -1], [1, -1, -1, -1, -1], [2, -1, -1, -1, -1], 3),  # two trailing unreachable leaves
    ],
)
def test_unreachable_or_shared_node_rejected(fitted, feature, left, right, node):
    model, _ = fitted
    n = len(feature)
    stage = {"gamma": 1.0, "feature": feature, "threshold": [0.5] * n, "missing_right": [False] * n,
             "left": left, "right": right, "value": [50.0] * n, "improvement": [1.0] * n}
    with pytest.raises(ModelParseError, match=rf"at line 4: node {node} is not the child of exactly one split"):
        load_model(_doc(model, [_split_stage(), stage, _split_stage()]))


def _reference_text(model) -> str:
    """The brtm/1 document of model, built whole: the bytes save_model must write."""
    dump = lambda obj: json.dumps(obj, separators=(",", ":"), allow_nan=False)  # noqa: E731
    header = {
        "config": dataclasses.asdict(model.config),
        "feature_names": list(model.feature_names),
        "f0": model.f0,
        "n_stages": model.n_stages,
    }
    lines = [FORMAT_VERSION, dump(header)]
    for stage in model.stages:
        tree = stage.tree
        nodes = {k: getattr(tree, k).tolist() for k in NODE_FIELDS}
        lines.append(dump({"gamma": stage.gamma, **nodes}))
    return "\n".join(lines) + "\n"


def test_save_streams_lines_and_writes_the_reference_bytes(tmp_path, standin_fits):
    """save_model writes a line at a time: its peak memory does not grow with
    the stage count, and the file holds the whole-document reference's bytes."""
    peaks = {}
    for n, (model, _) in standin_fits.items():
        path = tmp_path / f"{n}.brtm"
        _, peaks[n] = traced_peak(save_model, model, path)
        assert path.read_bytes() == _reference_text(model).encode("utf-8")
    assert_peak_flat(standin_fits[2000][0], standin_fits[4000][0], peaks[2000], peaks[4000])


def test_load_streams_lines_and_holds_one_copy(tmp_path, standin_fits):
    """load_model reads a line at a time and builds the columns a field at a
    time: its peak beyond the columns it returns does not grow with the stage count."""
    extra, loaded = {}, {}
    for n, (model, _) in standin_fits.items():
        path = tmp_path / f"{n}.brtm"
        save_model(model, path)
        loaded[n], peak = traced_peak(load_model, path)
        extra[n] = peak - column_bytes(loaded[n])
        for k in NODE_FIELDS:
            np.testing.assert_array_equal(loaded[n].nodes[k], model.nodes[k])
    assert_peak_flat(loaded[2000], loaded[4000], extra[2000], extra[4000])


def _saved(tmp_path, text: bytes) -> Path:
    path = tmp_path / "m.brtm"
    path.write_bytes(text)
    return path


def _same_model(a, b):
    assert (a.f0, a.config, a.feature_names) == (b.f0, b.config, b.feature_names)
    pairs = [(a.gamma, b.gamma), (a.node_count, b.node_count)] + [(a.nodes[k], b.nodes[k]) for k in NODE_FIELDS]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_crlf_file_loads_and_cr_alone_ends_no_line(tmp_path, fitted):
    model, _ = fitted
    text = _reference_text(model).encode("utf-8")
    _same_model(load_model(_saved(tmp_path, text.replace(b"\n", b"\r\n"))), model)
    with pytest.raises(ModelParseError, match="unsupported model version") as info:
        load_model(_saved(tmp_path, text.replace(b"\n", b"\r")))  # one line: the message shows its start only
    assert str(info.value).endswith("...' (expected 'brtm/1')") and len(str(info.value)) < 200


def test_blank_lines_are_skipped_and_counted(tmp_path, fitted):
    model, _ = fitted
    lines = _reference_text(model).encode("utf-8").split(b"\n")
    lines[5:5] = [b"", b"  \t", b"\r"]  # three blank lines among the stages: 3 + 60 stage lines
    lines.append(b"")
    path = _saved(tmp_path, b"\n".join(lines))
    _same_model(load_model(path), model)
    lines[-3:-3] = [lines[2]]  # one stage line more than the header declares
    with pytest.raises(ModelParseError, match="declares 60 stages but document has 61"):
        load_model(_saved(tmp_path, b"\n".join(lines)))
    del lines[2:4]  # one fewer
    with pytest.raises(ModelParseError, match="declares 60 stages but document has 59"):
        load_model(_saved(tmp_path, b"\n".join(lines)))


def test_bad_byte_on_line_40_of_100_stages(tmp_path, fitted):
    model, _ = fitted
    doc = _doc(model, [_split_stage() for _ in range(100)]).getvalue().encode("utf-8")
    lines = doc.split(b"\n")
    lines[39] = lines[39][:12] + b"\xfe" + lines[39][12:]
    path = _saved(tmp_path, b"\n".join(lines))
    message = "model parse error at line 40: not UTF-8: cannot decode byte 0xfe"
    with pytest.raises(ModelParseError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_model(path)
    # A stage-count mismatch is found at the end of the document, after the bad line.
    header = json.loads(lines[1])
    header["n_stages"] = 150
    lines[1] = json.dumps(header).encode("utf-8")
    with pytest.raises(ModelParseError, match="at line 40: not UTF-8"):
        load_model(_saved(tmp_path, b"\n".join(lines)))
