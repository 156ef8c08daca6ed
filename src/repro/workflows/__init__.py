"""Composite scientific workflows and portability scoring.

The paper's introduction motivates converged computing with composite
workflows — "a tightly coupled scientific simulation and database along
with AI services" — and its discussion elevates portability to "a new
dimension of performance": a larger pool of suitable resources lets the
user decide when, how, and where to run.

This package makes that computable:

* :mod:`repro.workflows.dag` — workflow graphs (plain-dict DAGs) of
  components with resource requirements and data-flow edges;
* :mod:`repro.workflows.portability` — environment-fit scoring, the
  portability index, and where-to-run recommendations that weigh fit,
  cost, and expected acquisition wait.
"""

from repro.workflows.dag import Component, ComponentKind, Workflow
from repro.workflows.portability import (
    EnvironmentFit,
    PortabilityScorer,
    portability_index,
)

__all__ = [
    "Component",
    "ComponentKind",
    "EnvironmentFit",
    "PortabilityScorer",
    "Workflow",
    "portability_index",
]
