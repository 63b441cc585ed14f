import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt.boosting import BoostConfig, fit_ensemble, predict, predict_batch
from brt.model_io import FORMAT_VERSION, ModelParseError, load_model, save_model

from conftest import random_dataset


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
