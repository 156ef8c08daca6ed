"""The typed stage pipeline: SMOKE → GRID → AB → SELECT → PUBLISH.

Each stage is a pure function from the previous stages' values; the
runner (:mod:`repro.campaigns.runner`) merely sequences them inside
telemetry spans.  Keeping the stage logic here, free of execution
concerns, is what makes the whole pipeline deterministic: given the
same two ensemble results, every stage output is byte-identical no
matter how those results were computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaigns.frontier import Candidate, CandidateKey
from repro.ensemble.runner import EnsembleResult
from repro.scenarios.spec import Scenario

#: the pipeline, in order; `meta`/reports index stages by these names
STAGES = ("smoke", "grid", "ab", "select", "publish")


@dataclass
class StageRecord:
    """One stage's deterministic summary for the published report."""

    name: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"stage": self.name, **self.detail}


def partition_survivors(
    candidates: list[Candidate],
) -> tuple[list[Candidate], list[Candidate]]:
    """(survivors, pruned) under the margin the candidates were gated at."""
    survivors = [c for c in candidates if c.sla_ok]
    pruned = [c for c in candidates if not c.sla_ok]
    return survivors, pruned


def surviving_scenarios(
    spec_scenarios: tuple[Scenario, ...], survivors: list[Candidate]
) -> tuple[Scenario, ...]:
    """The scenarios the GRID stage must still run, in spec order.

    A scenario advances iff at least one of *its own* candidates — the
    cells its footprint touches — survived the smoke gate.  (Untouched
    cells were never candidates; the baseline candidate represents
    them, and the baseline always runs in the grid stage regardless —
    it anchors thresholds and the AB comparisons.)
    """
    alive = {c.scenario_id for c in survivors if not c.is_baseline}
    return tuple(scn for scn in spec_scenarios if scn.scenario_id in alive)


def ensemble_accounting(result: EnsembleResult) -> dict:
    """One ensemble's reuse/cache accounting for a stage record.

    Deterministic for a fixed starting cache state: world probes happen
    sequentially in the main process and the diff/attach path is pure,
    so workers 1 and 4 report the same numbers.
    """
    out = {"worlds": result.worlds, "world_cache": result.world_cache.to_dict()}
    if result.stats.reuse is not None:
        out["cell_reuse"] = result.stats.reuse.to_dict()
    return out


def ab_rows(grid_candidates: list[Candidate]) -> list[dict]:
    """AB: every scenario candidate against its baseline-world cell.

    Deltas are candidate minus baseline on the same (env, app, scale)
    coordinate; ``significant`` marks cost deltas whose 95% Student-t
    confidence intervals (from the per-replica samples) do not overlap
    — the same CI machinery the distribution report uses
    (:mod:`repro.ensemble.stats`).  Rows come out in candidate (fold)
    order, so the table is byte-identical for any worker count.
    """
    baselines = {
        (c.env, c.app, c.scale): c for c in grid_candidates if c.is_baseline
    }
    rows: list[dict] = []
    for cand in grid_candidates:
        if cand.is_baseline:
            continue
        base = baselines.get((cand.env, cand.app, cand.scale))
        if base is None:
            continue
        cost_delta = cand.cost_mean - base.cost_mean
        row = {
            "scenario": cand.scenario_id,
            "env": cand.env,
            "app": cand.app,
            "scale": cand.scale,
            "cost_delta": cost_delta,
            "cost_ratio": (
                cand.cost_mean / base.cost_mean if base.cost_mean else None
            ),
            "fom_ratio": (
                cand.fom_mean / base.fom_mean
                if cand.fom_mean is not None
                and base.fom_mean is not None
                and base.fom_mean > 0
                else None
            ),
            "exceedance": cand.exceedance,
            "significant": abs(cost_delta) > cand.cost_ci95 + base.cost_ci95,
        }
        rows.append(row)
    return rows
