"""Execution engine: runs application models on environments."""

from repro.sim.cache import RunCache
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import RunRecord, RunState

__all__ = ["ExecutionEngine", "RunCache", "RunRecord", "RunState"]
