"""Experiment definitions, orchestration, reporting and pass/fail evaluation."""

from .galton import (
    BoundsDoNotBracket,
    ConfigInvalid,
    GaltonExperimentConfig,
    SearchResult,
    max_sustainable_rate,
    rmse_envelope,
    run_galton,
    run_galton_series,
)
from .login import LoginExperimentConfig, LoginReport, run_login
from .report import (
    ExperimentReport,
    UnknownMetric,
    evaluate,
    export,
    load_report_summary,
)

__all__ = [
    "BoundsDoNotBracket",
    "ConfigInvalid",
    "ExperimentReport",
    "GaltonExperimentConfig",
    "LoginExperimentConfig",
    "LoginReport",
    "SearchResult",
    "UnknownMetric",
    "evaluate",
    "export",
    "load_report_summary",
    "max_sustainable_rate",
    "rmse_envelope",
    "run_galton",
    "run_galton_series",
    "run_login",
]
