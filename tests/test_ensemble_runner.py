"""The replication engine: determinism, seed-study anchoring, caching."""

import numpy as np
import pytest

from repro.core.study import StudyConfig, StudyRunner
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.scenarios import scenario

SMOKE = dict(
    env_ids=("cpu-eks-aws", "cpu-onprem-a"),
    apps=("amg2023", "lammps"),
    sizes=(32,),
    iterations=2,
)


@pytest.fixture(scope="module")
def smoke_result():
    spec = EnsembleSpec(n_replicas=3, scenarios=(scenario("price-war"),), **SMOKE)
    return EnsembleRunner(spec).run()


def test_worlds_and_cells(smoke_result):
    # 2 scenarios (baseline + price-war) x 3 replicas
    assert smoke_result.worlds == 6
    # 2 envs x 2 apps x 1 size per scenario
    assert len(smoke_result.cells) == 8
    assert smoke_result.scenario_ids() == ["baseline", "price-war"]


def test_every_cell_folds_every_world(smoke_result):
    for stats in smoke_result.cells.values():
        assert stats.worlds == 3
        assert stats.cost.count == 3


def test_thresholds_come_from_the_seed_study(smoke_result):
    config = StudyConfig(seed=0, **SMOKE)
    store = StudyRunner(config).run().store
    for (env, app, scale), threshold in smoke_result.thresholds.items():
        assert threshold == float(np.mean(store.foms(env, app, scale)))


def test_workers_do_not_change_the_rendered_tables():
    """Acceptance: workers=1 vs workers=4 byte-identical distributions."""
    spec = EnsembleSpec(n_replicas=2, scenarios=(scenario("azure-price-spike"),),
                        **SMOKE)
    serial = EnsembleRunner(spec, workers=1).run()
    sharded = EnsembleRunner(spec, workers=4).run()
    assert serial.render() == sharded.render()
    assert serial.to_json() == sharded.to_json()


def test_single_replica_baseline_reproduces_the_seed_study():
    """Acceptance: n_replicas=1, no scenarios == the seed study's points."""
    spec = EnsembleSpec(n_replicas=1, base_seed=0, **SMOKE)
    result = EnsembleRunner(spec).run()
    store = StudyRunner(StudyConfig(seed=0, **SMOKE)).run().store

    assert result.worlds == 1
    for (sid, env, app, scale), stats in result.cells.items():
        assert sid == "baseline"
        foms = store.foms(env, app, scale)
        if foms:
            # The single replica's mean IS the seed study's point value.
            assert stats.fom.count == 1
            assert stats.fom.mean == float(np.mean(foms))
        else:
            assert stats.fom.count == 0
        cell_records = store.query(env_id=env, app=app, scale=scale)
        assert stats.cost.mean == pytest.approx(
            sum(r.cost_usd for r in cell_records)
        )


def test_replicas_actually_vary():
    spec = EnsembleSpec(n_replicas=3, **SMOKE)
    result = EnsembleRunner(spec).run()
    spreads = [s.fom.std for s in result.cells.values() if s.fom.count >= 2]
    assert spreads and any(std > 0 for std in spreads)


def test_world_cache_replays_summaries(tmp_path):
    spec = EnsembleSpec(n_replicas=2, scenarios=(scenario("price-war"),), **SMOKE)
    cold = EnsembleRunner(spec, cache_dir=str(tmp_path)).run()
    assert cold.world_cache.hits == 0
    assert cold.world_cache.misses == 4

    warm = EnsembleRunner(spec, cache_dir=str(tmp_path)).run()
    assert warm.world_cache.hits == 4
    assert warm.world_cache.misses == 0
    # The replay folds to the same bytes as the fresh run (the cache
    # counters themselves are the only fields allowed to differ).
    assert warm.render() == cold.render()
    cold_data, warm_data = cold.to_json_dict(), warm.to_json_dict()
    cold_data.pop("world_cache"), warm_data.pop("world_cache")
    assert warm_data == cold_data


def test_world_cache_corruption_resimulates_silently(tmp_path):
    from repro.sim.cache import RunCache

    spec = EnsembleSpec(n_replicas=2, **SMOKE)
    runner = EnsembleRunner(spec, cache_dir=str(tmp_path))
    cold = runner.run()
    # The directory also holds run/cell entries; target the two world
    # summaries specifically.
    world_paths = [
        RunCache(tmp_path).path(runner._world_key(world))
        for world in runner._plans()
    ]
    assert all(path.exists() for path in world_paths)
    # Non-JSON garbage in one entry, and JSON-valid-but-mistyped values
    # in the other: both must fold as misses, never crash the ensemble.
    world_paths[0].write_text("{truncated")
    world_paths[1].write_text(
        '{"v": 1, "cells": [{"env": "e", "app": "a", "scale": "big", '
        '"records": 1, "completed": 1, "fom_mean": "x", "wall_mean": null, '
        '"cost_total": 1.0}], "spend": "oops", "incidents": 0}'
    )
    repaired = EnsembleRunner(spec, cache_dir=str(tmp_path)).run()
    assert repaired.render() == cold.render()
    assert repaired.world_cache.misses == 2


def test_uncached_run_reports_no_phantom_cache_traffic():
    spec = EnsembleSpec(n_replicas=2, **SMOKE)
    result = EnsembleRunner(spec).run()
    assert result.world_cache.hits == 0
    assert result.world_cache.misses == 0
    assert result.to_json_dict()["world_cache"] == {
        "hits": 0,
        "misses": 0,
        "invalid": 0,
    }


def test_world_cache_is_replica_aware(tmp_path):
    EnsembleRunner(EnsembleSpec(n_replicas=1, **SMOKE),
                   cache_dir=str(tmp_path)).run()
    # One more replica: replica 0 replays, replica 1 executes.
    grown = EnsembleRunner(EnsembleSpec(n_replicas=2, **SMOKE),
                           cache_dir=str(tmp_path)).run()
    assert grown.world_cache.hits == 1
    assert grown.world_cache.misses == 1


def test_scenario_distributions_differ_from_baseline(smoke_result):
    base = smoke_result.cells[("baseline", "cpu-eks-aws", "amg2023", 32)]
    war = smoke_result.cells[("price-war", "cpu-eks-aws", "amg2023", 32)]
    # A pure price shock cannot change a cell's FOM distribution...
    assert war.fom.mean == base.fom.mean
    # ...but the 20%-off war moves every cloud cost distribution down.
    assert war.cost.mean < base.cost.mean
    assert smoke_result.spend["price-war"].mean < smoke_result.spend["baseline"].mean


def test_thresholds_anchor_to_the_baseline_world_not_plan_position():
    """A user-supplied empty scenario listed *after* a perturbed one
    must not make the perturbed world the exceedance anchor."""
    from repro.scenarios import FabricDegradation, Scenario

    degraded = Scenario(
        scenario_id="degraded",
        fabric=FabricDegradation(latency_multiplier=3.0, bandwidth_multiplier=0.5),
    )
    my_base = Scenario(scenario_id="my-base")  # empty: a baseline world
    spec = EnsembleSpec(
        n_replicas=1, scenarios=(degraded, my_base),
        env_ids=("cpu-eks-aws",), apps=("minife",), sizes=(32,), iterations=2,
    )
    result = EnsembleRunner(spec).run()
    # No extra baseline is injected (my-base is one), and the threshold
    # matches the *baseline* world's FOM, not the degraded world's.
    assert result.scenario_ids() == ["degraded", "my-base"]
    threshold = result.threshold_for("cpu-eks-aws", "minife", 32)
    base = result.cells[("my-base", "cpu-eks-aws", "minife", 32)]
    degraded_cell = result.cells[("degraded", "cpu-eks-aws", "minife", 32)]
    assert threshold == base.fom.mean
    assert degraded_cell.fom.mean != threshold


def test_exceedance_of_baseline_includes_the_anchor_world(smoke_result):
    for (sid, env, app, scale), stats in smoke_result.cells.items():
        if sid != "baseline" or stats.fom.count == 0:
            continue
        threshold = smoke_result.threshold_for(env, app, scale)
        # Replica 0 hits its own point value, so P >= 1/n always.
        assert stats.fom.exceedance(threshold) >= 1 / stats.fom.count


def test_json_snapshot_shape(smoke_result):
    data = smoke_result.to_json_dict()
    assert data["worlds"] == 6
    assert data["spec"]["n_replicas"] == 3
    assert len(data["cells"]) == 8
    cell = data["cells"][0]
    assert {"scenario", "env", "app", "scale", "fom", "cost_usd"} <= set(cell)
    assert cell["fom"]["count"] == 3
