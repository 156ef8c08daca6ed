"""Incremental plan execution: the 50-scenario sweep benchmark.

The incremental mode's acceptance claim, measured end to end: a
**50-scenario sweep where each scenario touches one environment** —
single-cloud fabric degradations cycling over four clouds, the shape a
parameter study actually takes — must cost **at most 40% of the
from-scratch sweep**, with byte-identical per-scenario datasets.

The from-scratch side runs without a cache directory: that is the cost
of simulating all 51 × 4 cells, which is exactly what incrementality
claims to avoid.  The incremental side starts from a *cold* cache — it
pays for the baseline campaign, all 50 touched cells, and every cache
write, and still has to win on the strength of attaching the 150
untouched cells alone.  Cells run at scale 256 (the paper's largest),
the most expensive cells to provision and simulate — the regime reuse
is for.

Results land in ``BENCH_incremental.json`` (redirect with
``BENCH_INCREMENTAL_ARTIFACT``) and are gated against
``benchmarks/BASELINE_incremental.json``: a cost-ratio regression of
more than 25% versus the committed baseline fails the benchmark job.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import record_timing
from repro.core.study import StudyConfig
from repro.scenarios import FabricDegradation, Scenario, ScenarioSweep

#: where the machine-readable incremental benchmark artifact lands
BENCH_INCREMENTAL_ARTIFACT = os.environ.get(
    "BENCH_INCREMENTAL_ARTIFACT", "BENCH_incremental.json"
)

#: committed baseline numbers; >25% regression fails the job
BASELINE_PATH = Path(__file__).parent / "BASELINE_incremental.json"
REGRESSION_TOLERANCE = 1.25

#: the acceptance floor: incremental ≤ 40% of from-scratch
ACCEPTANCE_RATIO = 0.40

#: one environment per cloud; scale 256 makes each cell as expensive
#: to provision and simulate as the study gets
_ENVS = ("cpu-eks-aws", "cpu-aks-az", "cpu-gke-g", "cpu-onprem-a")
_CLOUDS = ("aws", "az", "g", "p")
N_SCENARIOS = 50


def _config() -> StudyConfig:
    return StudyConfig(
        env_ids=_ENVS, apps=("amg2023",), sizes=(256,), iterations=5, seed=0
    )


def _scenarios() -> list[Scenario]:
    """50 what-if worlds, each degrading exactly one cloud's fabric."""
    return [
        Scenario(
            scenario_id=f"fabric-{i:02d}",
            fabric=FabricDegradation(
                latency_multiplier=1.0 + 0.02 * (i + 1),
                clouds=(_CLOUDS[i % len(_CLOUDS)],),
            ),
        )
        for i in range(N_SCENARIOS)
    ]


def test_bench_incremental_sweep_vs_from_scratch():
    """Acceptance: ≤40% of from-scratch cost, byte-identical datasets."""
    config = _config()
    scenarios = _scenarios()

    # Warm lazy imports and first-call caches on a small slice so
    # neither timed side pays the process's one-time costs.
    ScenarioSweep(config, scenarios[:2]).run()

    start = time.perf_counter()
    scratch = ScenarioSweep(config, scenarios).run()
    t_scratch = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        incremental = ScenarioSweep(
            config, scenarios, cache_dir=cache_dir, incremental=True
        ).run()
        t_incremental = time.perf_counter() - start

    # Faster, not different: every world's dataset is byte-identical.
    assert set(incremental.outcomes) == set(scratch.outcomes)
    for sid, outcome in scratch.outcomes.items():
        assert (
            incremental.outcomes[sid].report.store.to_csv()
            == outcome.report.store.to_csv()
        ), f"incremental dataset diverged for {sid}"

    # The reuse accounting must say what the diff promised: 3 of every
    # scenario world's 4 cells attach, only the touched cell executes.
    reuse = incremental.stats.reuse
    assert reuse is not None
    n_cells = len(_ENVS) * N_SCENARIOS
    assert reuse.planned_reusable == n_cells - N_SCENARIOS
    assert reuse.planned_dirty == N_SCENARIOS
    assert reuse.attached == reuse.planned_reusable
    assert reuse.executed == N_SCENARIOS
    assert reuse.invalid == 0

    ratio = t_incremental / t_scratch
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload = {
        "schema": 1,
        "campaign": {
            "environments": list(_ENVS),
            "scenarios": N_SCENARIOS,
            "cells_per_world": len(_ENVS),
            "scale": 256,
            "iterations": 5,
        },
        "sweep": {
            "from_scratch_seconds": t_scratch,
            "incremental_seconds": t_incremental,
            "ratio": ratio,
            "speedup": t_scratch / t_incremental,
        },
        "reuse": reuse.to_dict(),
        "byte_identical": True,
        "baseline": baseline,
    }
    with open(BENCH_INCREMENTAL_ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    record_timing(
        "incremental::sweep_50_scenarios",
        t_incremental,
        kind="cost-ratio-claim",
        from_scratch_seconds=t_scratch,
        ratio=ratio,
        attached=reuse.attached,
        executed=reuse.executed,
    )
    print(
        f"\n50-scenario sweep: from-scratch {t_scratch:.2f}s, incremental "
        f"{t_incremental:.2f}s -> ratio {ratio:.3f} "
        f"({reuse.attached} cells attached, {reuse.executed} executed)"
    )

    # The acceptance floor...
    assert ratio <= ACCEPTANCE_RATIO, (
        f"incremental sweep cost {ratio:.1%} of from-scratch "
        f"(acceptance requires <= {ACCEPTANCE_RATIO:.0%})"
    )
    # ...and the CI regression gate against the committed baseline.
    ceiling = baseline["incremental_ratio"] * REGRESSION_TOLERANCE
    assert ratio <= ceiling, (
        f"incremental execution regressed: cost ratio {ratio:.3f} > "
        f"{ceiling:.3f} (baseline {baseline['incremental_ratio']} x 1.25)"
    )
