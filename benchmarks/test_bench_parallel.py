"""Serial vs. sharded vs. cached study throughput.

The campaign's (environment, size) cells are independent (§2.9: one
cluster per size), so the study shards across a process pool and caches
finished runs content-addressed by their coordinates.  These benchmarks
put numbers on the three execution modes over the CLI's default campaign
config (every environment, every app, 2 iterations) so ``BENCH_*.json``
tracks the speedup, and assert the headline guarantees: identical
datasets in every mode, and a ≥2x wall-time win for a cache-warm
campaign over a cold serial one.

Worker count: the cold sharded benchmark uses 4 workers.  On a
multi-core host the pool buys wall time roughly linearly in cores; on a
single-core CI runner it only buys process overhead, which is why the
asserted ≥2x comes from the cache path — that one is hardware-
independent.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.registry import APPS
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS

#: the CLI's default campaign (`python -m repro study`)
DEFAULT_CONFIG = StudyConfig(
    env_ids=tuple(ENVIRONMENTS),
    apps=tuple(APPS),
    sizes=None,
    iterations=2,
    seed=0,
)


def _run(workers: int = 1, cache_dir: str | None = None):
    return StudyRunner(DEFAULT_CONFIG, workers=workers, cache_dir=cache_dir).run()


def test_bench_serial_study(benchmark):
    """Baseline: the whole campaign in one process, no cache."""
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert report.datasets > 1000


def test_bench_sharded_study(benchmark):
    """Sharded: (env, size) cells over 4 workers, no cache."""
    report = benchmark.pedantic(
        _run, kwargs={"workers": 4}, rounds=1, iterations=1
    )
    assert report.datasets > 1000


def test_bench_cached_study(benchmark, tmp_path):
    """Cache-warm: every cell replayed from the content-addressed cache."""
    _run(cache_dir=str(tmp_path))  # populate
    report = benchmark.pedantic(
        _run,
        kwargs={"workers": 4, "cache_dir": str(tmp_path)},
        rounds=1,
        iterations=1,
    )
    assert report.cache.hits == report.datasets


def test_sharded_and_cached_studies_match_serial_with_2x_speedup(tmp_path):
    """Acceptance: identical datasets, ≥2x for the cache-warm campaign."""
    t0 = time.perf_counter()
    serial = _run()
    t_serial = time.perf_counter() - t0

    sharded = _run(workers=4)
    assert sharded.store.to_csv() == serial.store.to_csv()
    assert sharded.spend_by_cloud == serial.spend_by_cloud

    _run(workers=4, cache_dir=str(tmp_path))  # cold, populates the cache
    t0 = time.perf_counter()
    warm = _run(workers=4, cache_dir=str(tmp_path))
    t_warm = time.perf_counter() - t0

    assert warm.store.to_csv() == serial.store.to_csv()
    assert warm.cache.hits == warm.datasets
    speedup = t_serial / t_warm
    print(f"\nserial {t_serial:.3f}s, cache-warm {t_warm:.3f}s -> {speedup:.1f}x")
    assert speedup >= 2.0, f"cache-warm speedup only {speedup:.2f}x"
