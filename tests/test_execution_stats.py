"""Execution accounting: where it appears, and how it folds.

The accounting a run carries (cache counters, incremental cell reuse,
fault recovery) reaches four JSON documents: ``study --json``,
``scenario run --json``, ``ensemble run --json`` and the campaign
report.  The snapshot tests pin which of those keys each document has,
on a clean run and on a chaos run whose injected transients force
retries, so ``faults`` appears exactly where recovery is reported and
nowhere else.  The property tests check that folding
:class:`~repro.parallel.stats.ExecutionStats` and
:class:`~repro.parallel.stats.CacheStats` values with ``add`` is a plain
field-wise sum.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.parallel.stats import (
    CacheStats,
    ExecutionStats,
    FaultStats,
    ReuseStats,
    TransportStats,
)

_SELECTION = [
    "--envs", "cpu-eks-aws", "--apps", "lammps", "--sizes", "32",
    "--iterations", "1",
]
#: every first attempt raises a transient error, so every executed
#: cell is retried once
_CHAOS = ["--chaos", "transient=1.0"]

_CACHE_KEYS = {"hits", "misses", "invalid"}
_REUSE_KEYS = {"planned_reusable", "planned_dirty", "attached", "executed", "invalid"}
_FAULT_KEYS = {
    "retries", "requeues", "rebuilds", "timeouts", "serial_hops", "injected",
    "resumed",
}
_SUMMARY_KEYS = {
    "datasets", "clusters_created", "containers_built", "containers_failed",
    "spend_by_cloud", "incidents", "cache",
}

_CAMPAIGN_SPEC = {
    "sla": {"min_exceedance": 0.5, "min_completion": 0.5, "max_cost_per_fom": 2.0},
    "scenarios": [
        {"scenario_id": "cheap-aws",
         "price_shocks": [{"cloud": "aws", "multiplier": 0.9}]},
        {"scenario_id": "slow-aws",
         "fabric": {"latency_multiplier": 3.0, "clouds": ["aws"]}},
    ],
    "env_ids": ["cpu-eks-aws"],
    "apps": ["lammps"],
    "sizes": [16],
    "iterations": 1,
    "smoke": {"replicas": 1, "margin": 0.5},
    "grid": {"replicas": 2},
}

chaos_modes = pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])


def _snapshot(tmp_path, capsys, argv, chaos) -> dict:
    path = tmp_path / "snapshot.json"
    assert main([*argv, *(_CHAOS if chaos else []), "--json", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())


def _check_faults(doc: dict, chaos: bool) -> None:
    if chaos:
        assert set(doc["faults"]) == _FAULT_KEYS
        assert doc["faults"]["retries"] > 0
        assert doc["faults"]["injected"] > 0
    else:
        assert "faults" not in doc


@chaos_modes
def test_study_summary_keys(tmp_path, capsys, chaos):
    data = _snapshot(tmp_path, capsys, ["study", *_SELECTION], chaos)
    summary = data["summary"]
    assert set(summary) - {"faults"} == _SUMMARY_KEYS
    assert set(summary["cache"]) == _CACHE_KEYS
    _check_faults(summary, chaos)


@chaos_modes
def test_incremental_sweep_keys(tmp_path, capsys, chaos):
    argv = [
        "scenario", "run", *_SELECTION, "--scenario", "spot-everything",
        "--incremental", "--cache", str(tmp_path / "cache"),
    ]
    data = _snapshot(tmp_path, capsys, argv, chaos)
    assert set(data) - {"faults"} == {"scenarios", "reports", "deltas", "cell_reuse"}
    assert set(data["cell_reuse"]) == _REUSE_KEYS
    _check_faults(data, chaos)
    assert set(data["reports"]) == {"baseline", "spot-everything"}
    for summary in data["reports"].values():
        # Per-world summaries carry their cache counters only; reuse
        # and recovery are sweep-level accounting.
        assert set(summary) == _SUMMARY_KEYS
        assert set(summary["cache"]) == _CACHE_KEYS


@chaos_modes
def test_incremental_ensemble_keys(tmp_path, capsys, chaos):
    argv = [
        "ensemble", "run", *_SELECTION, "--replicas", "2",
        "--scenario", "spot-everything",
        "--incremental", "--cache", str(tmp_path / "cache"),
    ]
    data = _snapshot(tmp_path, capsys, argv, chaos)
    assert set(data) - {"faults"} == {
        "spec", "digest", "worlds", "world_cache", "spend_usd", "incidents",
        "cells", "cell_reuse",
    }
    assert set(data["world_cache"]) == _CACHE_KEYS
    assert set(data["cell_reuse"]) == _REUSE_KEYS
    _check_faults(data, chaos)


@chaos_modes
def test_campaign_report_keys(tmp_path, capsys, chaos):
    spec = tmp_path / "campaign.json"
    spec.write_text(json.dumps(_CAMPAIGN_SPEC))
    data = _snapshot(tmp_path, capsys, ["campaign", "run", "--spec", str(spec)], chaos)
    stages = data["stages"]
    assert set(stages) == {"smoke", "grid", "ab", "select", "publish"}
    for name in ("smoke", "grid"):
        assert set(stages[name]["world_cache"]) == _CACHE_KEYS
        assert set(stages[name]["cell_reuse"]) == _REUSE_KEYS
    for name, detail in stages.items():
        # Recovery is execution-shaped: it lives in the profile, never
        # in the deterministic stage records.
        assert "faults" not in detail
        if name not in ("smoke", "grid"):
            assert "world_cache" not in detail and "cell_reuse" not in detail
    profile = data["profile"]
    assert set(profile) - {"faults"} == {"stage_seconds"}
    _check_faults(profile, chaos)


# -- folding ------------------------------------------------------------------

_counts = st.integers(min_value=0, max_value=1000)
_MODES = ("inline", "shm", "pickle", "mixed")
_TRANSPORT_COUNTERS = ("blocks", "bytes", "copied_bytes")

_transport = st.builds(
    TransportStats,
    **{name: _counts for name in _TRANSPORT_COUNTERS},
    mode=st.sampled_from(_MODES),
)
_faults = st.builds(FaultStats, **{name: st.integers(0, 3) for name in _FAULT_KEYS})
_reuse = st.none() | st.builds(ReuseStats, **{name: _counts for name in _REUSE_KEYS})
_execution = st.builds(ExecutionStats, transport=_transport, faults=_faults, reuse=_reuse)
_cache = st.builds(
    CacheStats,
    hits=_counts,
    misses=_counts,
    invalid=_counts,
    invalid_reasons=st.dictionaries(st.sampled_from(["corrupt", "short", "stale"]), _counts),
)


def _expected_mode(modes) -> str:
    """Shards that never left the process don't vote; one other mode
    wins outright; any disagreement is ``mixed``."""
    voting = {mode for mode in modes if mode != "inline"}
    if not voting:
        return "inline"
    return voting.pop() if len(voting) == 1 else "mixed"


@settings(max_examples=200, deadline=None)
@given(st.lists(_execution, max_size=6))
def test_execution_stats_fold_is_a_fieldwise_sum(items):
    before = copy.deepcopy(items)
    total = ExecutionStats()
    for item in items:
        total.add(item)
    assert items == before  # folding never mutates an input

    for name in _TRANSPORT_COUNTERS:
        assert getattr(total.transport, name) == sum(
            getattr(i.transport, name) for i in items
        )
    assert total.transport.mode == _expected_mode(i.transport.mode for i in items)
    fault_sums = {name: sum(getattr(i.faults, name) for i in items) for name in _FAULT_KEYS}
    assert {name: getattr(total.faults, name) for name in _FAULT_KEYS} == fault_sums

    reuses = [i.reuse for i in items if i.reuse is not None]
    if reuses:
        for name in _REUSE_KEYS:
            assert getattr(total.reuse, name) == sum(getattr(r, name) for r in reuses)
    else:
        assert total.reuse is None

    out = total.to_dict()
    assert set(out) <= {"cell_reuse", "faults"}
    assert ("cell_reuse" in out) == bool(reuses)
    assert ("faults" in out) == any(fault_sums.values())
    if "faults" in out:
        assert out["faults"] == fault_sums
    if "cell_reuse" in out:
        assert set(out["cell_reuse"]) == _REUSE_KEYS


@settings(max_examples=200, deadline=None)
@given(st.lists(_cache, max_size=6))
def test_cache_stats_fold_is_a_fieldwise_sum(items):
    before = copy.deepcopy(items)
    total = CacheStats()
    for item in items:
        total.add(item)
    assert items == before

    assert total.to_dict() == {
        "hits": sum(i.hits for i in items),
        "misses": sum(i.misses for i in items),
        "invalid": sum(i.invalid for i in items),
    }
    reasons: dict[str, int] = {}
    for item in items:
        for label, count in item.invalid_reasons.items():
            reasons[label] = reasons.get(label, 0) + count
    assert total.invalid_reasons == reasons
