"""Cell- and world-level cache: keys, the record codec, study reuse."""

import json

from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS
from repro.sim.cache import decode_record, encode_record, shard_key
from repro.sim.execution import ExecutionEngine
from repro.sim.run_result import RunState


ENV = ENVIRONMENTS["cpu-eks-aws"]


def _csv_fields(record):
    return (
        record.env_id,
        record.app,
        record.scale,
        record.nodes,
        record.iteration,
        record.state,
        record.fom,
        record.fom_units,
        record.wall_seconds,
        record.hookup_seconds,
        record.cost_usd,
        record.failure_kind,
    )


# ------------------------------------------------------------------- keys


def test_key_is_stable_and_coordinate_sensitive():
    base = dict(seed=0, env_id="cpu-eks-aws", scale=32, apps=("amg2023",), iterations=2)
    assert shard_key(**base) == shard_key(**base)
    assert shard_key(**{**base, "seed": 1}) != shard_key(**base)
    assert shard_key(**{**base, "env_id": "cpu-aks-az"}) != shard_key(**base)
    assert shard_key(**{**base, "scale": 64}) != shard_key(**base)


def test_shard_key_covers_apps_and_iterations():
    base = dict(seed=0, env_id="cpu-eks-aws", scale=32, apps=("amg2023",), iterations=2)
    assert shard_key(**base) == shard_key(**base)
    assert shard_key(**{**base, "apps": ("lammps",)}) != shard_key(**base)
    assert shard_key(**{**base, "iterations": 3}) != shard_key(**base)


def test_engine_option_change_invalidates_key():
    base = dict(seed=0, env_id="cpu-aks-az", scale=32, apps=("osu",), iterations=2)
    tuned = shard_key(**base, engine_options={"azure_ucx_tuned": True, "options": {}})
    untuned = shard_key(**base, engine_options={"azure_ucx_tuned": False, "options": {}})
    with_opts = shard_key(
        **base, engine_options={"azure_ucx_tuned": True, "options": {"warmup": 5}}
    )
    assert len({shard_key(**base), tuned, untuned, with_opts}) == 4


def test_world_key_is_seed_scenario_and_slice_sensitive():
    from repro.sim.cache import world_key

    base = dict(
        seed=0, env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,),
        iterations=2,
    )
    assert world_key(**base) == world_key(**base)
    # Replica worlds (seed offsets) never collide...
    assert world_key(**{**base, "seed": 1}) != world_key(**base)
    # ...nor do scenario worlds, campaign slices, or the sizes=None default.
    assert world_key(**base, scenario="abc123") != world_key(**base)
    assert world_key(**{**base, "apps": ("lammps",)}) != world_key(**base)
    assert world_key(**{**base, "sizes": None}) != world_key(**base)
    # And world keys live in their own namespace: never equal a shard key.
    assert world_key(**base) != shard_key(
        seed=0, env_id="cpu-eks-aws", scale=32, apps=("amg2023",), iterations=2
    )


# ------------------------------------------------------------ record codec


def test_record_round_trips_through_json():
    record = ExecutionEngine(seed=5).run(ENV, "amg2023", 32)
    decoded = decode_record(json.loads(json.dumps(encode_record(record))))
    assert _csv_fields(decoded) == _csv_fields(record)
    assert decoded.state is RunState.COMPLETED


# ------------------------------------------------------------ study-level


def test_cached_study_identical_to_uncached(tmp_path):
    config = StudyConfig.smoke(seed=4)
    plain = StudyRunner(config).run()
    cold = StudyRunner(config, cache_dir=str(tmp_path)).run()
    warm = StudyRunner(config, cache_dir=str(tmp_path)).run()
    assert cold.store.to_csv() == plain.store.to_csv()
    assert warm.store.to_csv() == plain.store.to_csv()
    assert warm.spend_by_cloud == plain.spend_by_cloud
    # Stats count *runs* only; the cell-level lookups are not folded in.
    assert cold.cache.misses == cold.datasets and cold.cache.hits == 0
    assert warm.cache.hits == warm.datasets and warm.cache.misses == 0


def test_cached_study_seed_change_is_all_misses(tmp_path):
    StudyRunner(StudyConfig.smoke(seed=4), cache_dir=str(tmp_path)).run()
    other = StudyRunner(StudyConfig.smoke(seed=5), cache_dir=str(tmp_path)).run()
    assert other.cache.hits == 0
    assert other.cache.misses > 0


def test_cold_cached_study_writes_no_batch_envelopes(tmp_path):
    # Only cell summaries land in the cache: one entry per (env, size)
    # cell, never a run-record batch envelope beside it.
    runner = StudyRunner(StudyConfig.smoke(seed=4), cache_dir=str(tmp_path))
    runner.run()
    entries = [p for p in tmp_path.glob("*/*.json") if not p.name.startswith(".")]
    assert len(entries) == len(runner.compile().shards)
    for path in entries:
        assert json.loads(path.read_text(encoding="utf-8")).get("kind") != "batch"
