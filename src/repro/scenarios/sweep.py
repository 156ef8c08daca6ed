"""Scenario sweeps: N counterfactual worlds × the campaign's cells.

A :class:`ScenarioSweep` is a thin front-end over the shared execution
planner (:mod:`repro.plan`): the scenario list *compiles* to one
:class:`~repro.plan.ir.RunPlan` — one world per scenario, the usual
(environment, size) cells world-major in one flat shard list — and the
single :class:`~repro.plan.executor.PlanExecutor` fans it across the
worker pool.  A 4-scenario sweep over a 14-cell campaign is simply 56
shards; worlds make progress concurrently instead of queueing behind
each other.

Container builds are scenario-independent (no perturbation touches the
build matrix), so the sweep builds the matrix once and seeds every
world's incident log with a fresh copy of the build incidents — exactly
what :class:`~repro.core.study.StudyRunner` does per campaign.

Determinism carries over unchanged: each shard is pure, each scenario's
randomness is keyed (never drawn from call order), so any worker count
produces byte-identical per-scenario datasets, and the baseline world of
a sweep is byte-identical to a plain :class:`StudyRunner` campaign.

**Incremental sweeps** (``incremental=True``, requires ``cache_dir``)
exploit cell-granular reuse through the executor's baseline-first
schedule (:mod:`repro.plan.executor`): cells a scenario cannot touch
attach their folded summaries from the cache the baseline world just
wrote, and only the touched cells simulate.  The sweep always compiles
a baseline world in for that; with ``include_baseline=False`` it is
left out of the outcomes.  A 50-scenario sweep where each scenario
perturbs one environment re-simulates ~one cell per world instead of
all of them, with byte-identical per-scenario datasets
(``benchmarks/test_bench_incremental.py`` keeps the receipt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.study import StudyConfig, StudyReport, StudyRunner
from repro.parallel.stats import ExecutionStats
from repro.reporting.deltas import delta_table, scenario_deltas
from repro.reporting.tables import render_table
from repro.scenarios.presets import scenario_grid
from repro.scenarios.spec import Scenario
from repro.telemetry import span


@dataclass(frozen=True)
class ScenarioOutcome:
    """One world's campaign: the scenario and everything it produced."""

    scenario: Scenario
    report: StudyReport


@dataclass
class SweepResult:
    """Every world of a sweep, in plan order.

    ``stats`` is the executor's accounting
    (:class:`~repro.parallel.stats.ExecutionStats`): shard transport,
    recovery events and, for incremental sweeps, the cell reuse — how
    many cells the diff classified reusable/dirty, how many actually
    attached from cache, how many executed, and how many cache entries
    were malformed on the reuse path (each of those re-executed and left
    a warning trace — degradation is surfaced, never silent).
    """

    outcomes: dict[str, ScenarioOutcome]
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def reuse(self):
        """``stats.reuse``, read-only.  Kept because the frozen
        end-to-end benchmark (``perfbench/workloads.py``) reads
        ``SweepResult.reuse``; everything else reads ``stats``."""
        return self.stats.reuse

    @property
    def baseline(self) -> StudyReport:
        for outcome in self.outcomes.values():
            if outcome.scenario.is_baseline:
                return outcome.report
        raise ValueError(
            "this sweep has no baseline world to compare against (it ran "
            "with include_baseline=False); re-run with a baseline to build "
            "a delta report"
        )

    @property
    def reports(self) -> dict[str, StudyReport]:
        """Scenario id → study report, baseline included."""
        return {sid: outcome.report for sid, outcome in self.outcomes.items()}

    def _counterfactuals(self) -> dict[str, StudyReport]:
        return {
            sid: outcome.report
            for sid, outcome in self.outcomes.items()
            if not outcome.scenario.is_baseline
        }

    def deltas(self):
        """Per-scenario :class:`~repro.reporting.deltas.ScenarioDelta` rows."""
        return scenario_deltas(self.baseline, self._counterfactuals())

    def delta_table(self):
        """The what-if comparison as a :class:`~repro.reporting.tables.Table`."""
        return delta_table(self.baseline, self._counterfactuals())

    def render_deltas(self) -> str:
        """The delta report as fixed-width text."""
        return render_table(self.delta_table())

    def to_json_dict(self) -> dict:
        """A JSON-safe snapshot: per-world summaries plus delta rows.

        Delta rows need a baseline world to diff against; a sweep run
        with ``include_baseline=False`` exports summaries only.
        """
        from dataclasses import asdict

        out: dict = {
            "scenarios": list(self.outcomes),
            "reports": {
                sid: outcome.report.to_json_dict()["summary"]
                for sid, outcome in self.outcomes.items()
            },
        }
        if any(o.scenario.is_baseline for o in self.outcomes.values()):
            out["deltas"] = [asdict(delta) for delta in self.deltas()]
        out.update(self.stats.to_dict())
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


class ScenarioSweep:
    """Runs a study under N scenarios and compares them to the baseline.

    ``workers`` and ``cache_dir`` behave exactly as on
    :class:`~repro.core.study.StudyRunner`; the cache keys embed each
    scenario's digest, so worlds never share entries but each world
    replays its own on a repeat sweep.
    """

    def __init__(
        self,
        config: StudyConfig,
        scenarios: Iterable[Scenario] | Sequence[Scenario],
        *,
        workers: int = 1,
        cache_dir: str | None = None,
        include_baseline: bool = True,
        incremental: bool = False,
        retry=None,
        chaos=None,
        resume: bool = False,
    ):
        # Imported lazily: repro.plan sits below this module in the
        # import graph (its shards import repro.scenarios.spec).
        from repro.plan.executor import require_cache_dir

        require_cache_dir(cache_dir, incremental=incremental, resume=resume)
        self.config = config
        self.scenarios = list(scenarios)
        self.workers = workers
        self.cache_dir = cache_dir
        self.include_baseline = include_baseline
        self.incremental = incremental
        self.retry = retry
        self.chaos = chaos
        self.resume = resume
        # Fail fast on duplicate/reserved ids — before any world runs.
        scenario_grid(self.scenarios, include_baseline=include_baseline)

    def _worlds(self) -> list[Scenario]:
        return scenario_grid(self.scenarios, include_baseline=self.include_baseline)

    def compile(self):
        """The whole sweep as one :class:`~repro.plan.ir.RunPlan`.

        An incremental sweep always has a baseline world: its cells are
        what the scenario worlds attach.
        """
        # Imported lazily: repro.plan sits below this module in the
        # import graph (its shards import repro.scenarios.spec).
        from repro.plan import compile_scenarios

        return compile_scenarios(
            self.config,
            self.scenarios,
            cache_dir=self.cache_dir,
            include_baseline=self.include_baseline or self.incremental,
        )

    def run(self) -> SweepResult:
        """Execute every world; returns per-scenario reports.

        Per-scenario datasets (and their order) are byte-identical to a
        from-scratch sweep whether or not the run is incremental; only
        the cache/reuse counters differ.
        """
        from repro.plan import PlanExecutor

        builder_runner = StudyRunner(self.config)
        builder_runner.build_containers()
        build_incidents = builder_runner.incidents

        # A baseline world compiled in only for reuse is not reported.
        reported = {scn.scenario_id for scn in self._worlds()}
        outcomes: dict[str, ScenarioOutcome] = {}
        plan = self.compile()
        executor = PlanExecutor(
            plan,
            workers=self.workers,
            incremental=self.incremental,
            retry=self.retry,
            chaos=self.chaos,
            resume=self.resume,
        )
        with span(
            "sweep.run",
            worlds=plan.n_worlds,
            workers=self.workers,
            incremental=self.incremental,
        ):
            for world, merged in executor.merged_worlds(seed_incidents=build_incidents):
                # Worlds keep their own ids (the injected BASELINE's id
                # is "baseline"), so no two worlds can share a label.
                scn = world.scenario
                if scn.scenario_id not in reported:
                    continue
                outcomes[scn.scenario_id] = ScenarioOutcome(
                    scenario=scn,
                    report=StudyReport(
                        store=merged.store,
                        incidents=merged.incidents,
                        spend_by_cloud=merged.spend_by_cloud,
                        containers_built=builder_runner.builder.built,
                        containers_failed=builder_runner.builder.failed,
                        clusters_created=merged.clusters_created,
                        cache=merged.cache,
                    ),
                )
        return SweepResult(outcomes=outcomes, stats=executor.stats)
