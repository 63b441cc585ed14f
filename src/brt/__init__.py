"""Boosted regression trees with interpretation analytics for annual data.

Each public name is loaded from its module on first use (PEP 562), so
``import brt`` imports neither numpy nor any submodule, and the command
line (``brt.args``) can parse before the analysis modules load.
"""

import importlib

# The public names of each submodule; a submodule itself is an attribute too.
_EXPORTS = {
    "boosting": (
        "BoostConfig", "BoostedModel", "Stage", "StagedCurve", "fit_ensemble", "line_search_gamma", "predict",
        "predict_batch", "staged_metric",
    ),
    "data": (
        "Dataset", "assemble_model_table", "fao_inr", "load_model_table", "load_series_csv", "monsoon_deviation",
        "weighted_index", "write_model_table", "yoy_change",
    ),
    "interpret": (
        "InfluenceReport", "InteractionReport", "PDProfile", "PDSurface", "interaction_report", "overall_interaction",
        "pairwise_interaction", "partial_dependence_1d", "partial_dependence_2d", "relative_influence",
    ),
    "metrics": ("FitReport", "fit_report"),
    "model_io": ("ModelParseError", "load_model", "save_model"),
    "rng": ("SplitMix64", "sample_without_replacement"),
    "tree": ("RegressionTree", "TreeLimits", "fit_tree", "predict_tree", "split_improvements"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "BoostConfig", "BoostedModel", "Dataset", "FitReport", "InfluenceReport", "InteractionReport", "ModelParseError",
    "PDProfile", "PDSurface", "RegressionTree", "SplitMix64", "Stage", "StagedCurve", "TreeLimits",
    "assemble_model_table", "fao_inr", "fit_ensemble", "fit_report", "fit_tree", "interaction_report",
    "line_search_gamma", "load_model", "load_model_table", "load_series_csv", "monsoon_deviation",
    "overall_interaction", "pairwise_interaction", "partial_dependence_1d", "partial_dependence_2d", "predict",
    "predict_batch", "predict_tree", "relative_influence", "sample_without_replacement", "save_model",
    "split_improvements", "staged_metric", "weighted_index", "write_model_table", "yoy_change",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
