"""The columnar fold: ``store.to_frame()`` versus the row-based fold.

The planner's fold claim, measured on one ≥10k-record campaign (4 environments
× all 11 apps × the paper's 4 sizes): the zero-copy columnar fold
(``store.to_frame().cell_aggregates()``) beats the row-based fold
(``ResultFrame.from_records(records).cell_aggregates()``) by a wide
margin, with byte-identical records and aggregates between the seed
path (per-iteration ``run()`` calls) and the columnar store (built by
``ExecutionEngine.run_block``).  The block-vs-seed execution speedup is
gated by ``benchmarks/test_bench_vector.py``.

Results land in ``BENCH_plan.json`` (redirect with ``BENCH_PLAN_ARTIFACT``)
and are gated against ``benchmarks/BASELINE_plan.json``: a regression of
more than 25% versus the committed baseline numbers fails the benchmark
job.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from benchmarks.conftest import record_timing
from repro.apps.registry import APPS
from repro.core.results import ResultStore
from repro.ensemble.frame import ResultFrame
from repro.envs.registry import ENVIRONMENTS
from repro.sim.execution import ExecutionEngine

#: where the machine-readable plan benchmark artifact lands
BENCH_PLAN_ARTIFACT = os.environ.get("BENCH_PLAN_ARTIFACT", "BENCH_plan.json")

#: committed baseline numbers; >25% regression fails the job
BASELINE_PATH = Path(__file__).parent / "BASELINE_plan.json"
REGRESSION_TOLERANCE = 1.25

#: the benchmark campaign: ≥10k records across the paper's size range
_ENVS = ("cpu-eks-aws", "cpu-onprem-a", "gpu-gke-g", "cpu-aks-az")
_SCALES = (32, 64, 128, 256)
_ITERATIONS = math.ceil(10_500 / (len(_ENVS) * len(APPS) * len(_SCALES)))


def _campaign_cells():
    for env_id in _ENVS:
        env = ENVIRONMENTS[env_id]
        for app in APPS:
            for scale in _SCALES:
                yield env, app, scale


def _seed_pipeline():
    """The seed row-based path: per-iteration runs, row-based fold."""
    engine = ExecutionEngine(seed=0)
    records = []
    for env, app, scale in _campaign_cells():
        for iteration in range(_ITERATIONS):
            records.append(engine.run(env, app, scale, iteration=iteration))
    aggregates = ResultFrame.from_records(records).cell_aggregates()
    return records, aggregates


def _columnar_store():
    """The planner's path: run_block into a columnar store."""
    engine = ExecutionEngine(seed=0)
    store = ResultStore()
    for env, app, scale in _campaign_cells():
        engine.run_block(env, app, scale, iterations=_ITERATIONS, store=store)
    return store


def _best_of(fn, repeats: int):
    best, result = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_columnar_fold_vs_row_based_fold():
    """Acceptance: the zero-copy fold beats the row-based fold at ≥10k records."""
    records, agg_seed = _seed_pipeline()
    store = _columnar_store()
    assert len(records) >= 10_000

    # Same data either way: records and aggregates are byte-identical.
    assert store.records == records
    assert store.to_frame().cell_aggregates().rows() == agg_seed.rows()

    # The fold alone: row-based conversion+aggregation vs zero-copy.
    t_row_fold, _ = _best_of(
        lambda: ResultFrame.from_records(records).cell_aggregates(), repeats=3
    )
    t_col_fold, _ = _best_of(
        lambda: store.to_frame().cell_aggregates(), repeats=3
    )
    fold_speedup = t_row_fold / t_col_fold

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload = {
        "schema": 1,
        "campaign": {
            "records": len(records),
            "environments": list(_ENVS),
            "apps": len(APPS),
            "scales": list(_SCALES),
            "iterations": _ITERATIONS,
        },
        "fold": {
            "row_seconds": t_row_fold,
            "columnar_seconds": t_col_fold,
            "speedup": fold_speedup,
        },
        "baseline": baseline,
    }
    with open(BENCH_PLAN_ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    record_timing(
        "plan::columnar_fold",
        t_col_fold,
        kind="speedup-claim",
        row_seconds=t_row_fold,
        speedup=fold_speedup,
    )
    print(f"\n{len(records)} records: fold {fold_speedup:.1f}x")

    # The CI regression gate against the committed baseline.
    fold_floor = baseline["fold_speedup"] / REGRESSION_TOLERANCE
    assert fold_speedup >= fold_floor, (
        f"columnar fold regressed: {fold_speedup:.1f}x < {fold_floor:.1f}x"
    )
