"""What ``import brt`` and the command line's parser load, and the lazy ``brt`` namespace."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brt
from brt import args, cli

# Runs in a fresh interpreter: imports what argv[1] says, or runs brt as __main__ with
# the rest of argv, then prints the exit code and which heavy modules were imported.
_PROBE = """
import json, runpy, sys
code = None
if sys.argv[1] == "import":
    import brt
else:
    sys.argv = ["brt", *sys.argv[2:]]
    try:
        runpy.run_module("brt", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "brt.cli": "brt.cli" in sys.modules}))
"""


def _probe(*argv):
    src = str(Path(brt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True, timeout=60)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["train", "--help"], 0), (["pdp", "--help"], 0), ([], 2), (["train"], 2)],
    ids=["help", "train-help", "pdp-help", "bare", "train-without-data"],
)
def test_help_and_usage_errors_import_neither_numpy_nor_cli(argv, code):
    assert _probe("run", *argv) == {"code": code, "numpy": False, "brt.cli": False}


def test_import_brt_imports_no_numpy():
    assert _probe("import") == {"code": None, "numpy": False, "brt.cli": False}


def test_every_public_name_is_its_home_module_attribute():
    assert len(brt.__all__) == len(set(brt.__all__)) == 40
    assert sorted(brt._MODULE_OF) == sorted(brt.__all__)
    for name in brt.__all__:
        home = importlib.import_module(f"brt.{brt._MODULE_OF[name]}")
        assert getattr(brt, name) is getattr(home, name), name
    assert set(brt.__all__) <= set(dir(brt))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from brt import *", namespace)
    assert {name: namespace[name] for name in brt.__all__} == {name: getattr(brt, name) for name in brt.__all__}


def test_submodules_are_attributes():
    from brt import boosting

    assert boosting is brt.boosting is importlib.import_module("brt.boosting")


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        brt.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from brt import no_such_name", {})


def test_cli_main_is_the_parser_entry_point():
    assert cli.main is args.main


def test_every_benchmark_span_target_is_a_callable_attribute():
    """perfbench/spans.py wraps each (owner, attribute) of its TARGETS on the
    owner's own namespace, and a span whose name went away reads as absent. The
    file is parsed, not imported or changed."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    body = ast.parse(spans.read_text(encoding="utf-8")).body
    (targets,) = [n.value for n in body if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["TARGETS"]]
    assert len(targets.elts) >= 20
    for entry in targets.elts:
        owner_path, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        assert callable(vars(owner).get(attr)), f"{owner_path} {attr}"
