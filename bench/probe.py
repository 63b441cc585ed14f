"""In-process probes of what perfbench/run.py does not measure, printed as one
Markdown list line each. Each probe is a function that returns numbers, for
other tools to import. Run from the repo root:

    PYTHONPATH=src python3 bench/probe.py
"""

import importlib.util
import io
import sys
import tempfile
import timeit
import tracemalloc
from pathlib import Path
from unittest import mock

from brt import boosting, interpret
from brt.data import load_model_table
from brt.model_io import load_model, save_model
from brt.standin import bundled_path

FLAGSHIP = boosting.BoostConfig(n_trees=1200, seed=1)
DIVERSE = boosting.BoostConfig(n_trees=300, max_nodes=13, learn_rate=0.01, subsample_fraction=0.8, seed=1)


def diverse_data(seed: int = 1):
    """The benchmark's diverse table, generated by perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclass looks its module up
    spec.loader.exec_module(workloads)
    return load_model_table(io.StringIO(workloads.diverse_table(seed)))


def load_peak(path) -> tuple[int, int]:
    """(tracemalloc peak of load_model(path), bytes of the loaded model's columns)."""
    tracemalloc.start()
    try:
        model = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, model.gamma.nbytes + model.node_count.nbytes + sum(c.nbytes for c in model.nodes.values())


def mask_builds(model, data) -> int:
    """How many times one interaction_report(model, data) runs the fail-mask builder."""
    with mock.patch.object(boosting, "_fail_mask", wraps=boosting._fail_mask) as build, \
            mock.patch.object(interpret, "_fail_mask", build):
        interpret.interaction_report(model, data)
    return build.call_count


def cached_fit(data, config):
    """(fit_ensemble(data, config), cache_info() of its fitter's split-search cache)."""
    fitters = []

    class Recording(boosting.TreeFitter):
        def __init__(self, *args):
            super().__init__(*args)
            fitters.append(self)

    with mock.patch.object(boosting, "TreeFitter", Recording):
        model = boosting.fit_ensemble(data, config)
    return model, fitters[0]._counts.cache_info()


def fit_us_per_stage(data, config, repeats: int = 3) -> float:
    """The best of `repeats` wall times of fit_ensemble(data, config), collector on, in µs per stage."""
    runs = timeit.repeat(lambda: boosting.fit_ensemble(data, config), "gc.enable()", number=1, repeat=repeats)
    return min(runs) / config.n_trees * 1e6


def main() -> None:
    standin, diverse = load_model_table(bundled_path()), diverse_data()
    model, info = cached_fit(standin, boosting.BoostConfig(n_trees=5000))  # one fit serves the load and the cache probes
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.brtm")
        peak, columns = load_peak(Path(tmp) / "model.brtm")
    print(f"- load_model: tracemalloc peak {peak / 1e6:.2f} MB for {columns / 1e6:.2f} MB of columns")
    builds = mask_builds(boosting.fit_ensemble(diverse, DIVERSE), diverse)
    print(f"- interaction_report (diverse seed 1): the fail-mask builder ran {builds} times")
    searches = info.hits + info.misses
    print(f"- _counts cache: {info.hits / searches:.1%} of {searches} searches hit, maxsize {info.maxsize}")
    fits = [f"{name} {fit_us_per_stage(d, c):.0f} us/stage" for name, d, c in
            (("flagship", standin, FLAGSHIP), ("diverse", diverse, DIVERSE))]
    print("- fit in process, best of 3: " + ", ".join(fits))


if __name__ == "__main__":
    main()
