"""Boosted regression trees with interpretation analytics for annual data."""

from .boosting import (
    BoostConfig,
    BoostedModel,
    Stage,
    StagedCurve,
    fit_ensemble,
    line_search_gamma,
    predict,
    predict_batch,
    staged_metric,
)
from .data import (
    Dataset,
    assemble_model_table,
    fao_inr,
    load_model_table,
    load_series_csv,
    monsoon_deviation,
    weighted_index,
    write_model_table,
    yoy_change,
)
from .interpret import (
    InfluenceReport,
    InteractionReport,
    PDProfile,
    PDSurface,
    interaction_report,
    overall_interaction,
    pairwise_interaction,
    partial_dependence_1d,
    partial_dependence_2d,
    relative_influence,
)
from .metrics import FitReport, fit_report
from .model_io import ModelParseError, load_model, save_model
from .rng import SplitMix64, sample_without_replacement
from .tree import (
    RegressionTree,
    TreeLimits,
    fit_tree,
    predict_tree,
    split_improvements,
)

__all__ = [
    "BoostConfig",
    "BoostedModel",
    "Dataset",
    "FitReport",
    "InfluenceReport",
    "InteractionReport",
    "ModelParseError",
    "PDProfile",
    "PDSurface",
    "RegressionTree",
    "SplitMix64",
    "Stage",
    "StagedCurve",
    "TreeLimits",
    "assemble_model_table",
    "fao_inr",
    "fit_ensemble",
    "fit_report",
    "fit_tree",
    "interaction_report",
    "line_search_gamma",
    "load_model",
    "load_model_table",
    "load_series_csv",
    "monsoon_deviation",
    "overall_interaction",
    "pairwise_interaction",
    "partial_dependence_1d",
    "partial_dependence_2d",
    "predict",
    "predict_batch",
    "predict_tree",
    "relative_influence",
    "sample_without_replacement",
    "save_model",
    "split_improvements",
    "staged_metric",
    "weighted_index",
    "write_model_table",
    "yoy_change",
]

__version__ = "0.1.0"
