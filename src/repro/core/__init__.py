"""Core study layer: orchestration, usability scoring, costs, analysis."""

from repro.core.analysis import (
    fom_series,
    mean_fom,
    parallel_efficiency,
    scaling_table,
    speedup,
)
from repro.core.costs import amg_cost_table
from repro.core.incidents import INCIDENT_DB, Incident, incidents_for
from repro.core.results import ResultStore
from repro.core.study import StudyConfig, StudyRunner
from repro.core.usability import (
    EffortLevel,
    UsabilityAssessment,
    assess_environment,
    usability_table,
)

__all__ = [
    "EffortLevel",
    "INCIDENT_DB",
    "Incident",
    "ResultStore",
    "StudyConfig",
    "StudyRunner",
    "UsabilityAssessment",
    "amg_cost_table",
    "assess_environment",
    "fom_series",
    "incidents_for",
    "mean_fom",
    "parallel_efficiency",
    "scaling_table",
    "speedup",
    "usability_table",
]
