"""Scenario sweeps: determinism, baseline identity, cache isolation.

These are the subsystem's contract tests:

* the *empty* scenario reproduces the seed study byte for byte;
* any scenario is byte-identical at ``workers=1`` and ``workers=4``;
* the ``spot-everything`` what-if shows real cost *and* incident deltas
  against the baseline on the paper-default campaign;
* scenario cache entries never collide with baseline entries.
"""

import pytest

from repro.core.study import StudyConfig, StudyRunner
from repro.scenarios import (
    BASELINE,
    QuotaSqueeze,
    ReportingShift,
    Scenario,
    ScenarioSweep,
    scenario,
)
from repro.sim.run_result import RunState


def _flat_incidents(incidents):
    return [
        (env, i.category, i.effort_minutes, i.description, i.source)
        for env, incs in incidents.items()
        for i in incs
    ]


def _config(seed=0):
    return StudyConfig(
        env_ids=("cpu-eks-aws", "gpu-cyclecloud-az", "cpu-onprem-a"),
        apps=("amg2023", "lammps"),
        sizes=(32, 64),
        iterations=2,
        seed=seed,
    )


# ------------------------------------------------------- baseline identity


def test_empty_scenario_reproduces_the_seed_study_exactly():
    plain = StudyRunner(_config()).run()
    empty = StudyRunner(_config(), scenario=BASELINE).run()
    assert empty.store.to_csv() == plain.store.to_csv()
    assert empty.store.records == plain.store.records
    assert _flat_incidents(empty.incidents) == _flat_incidents(plain.incidents)
    assert empty.spend_by_cloud == plain.spend_by_cloud


def test_empty_scenario_is_baseline_for_any_worker_count():
    plain = StudyRunner(_config()).run()
    empty4 = StudyRunner(
        _config(), workers=4, scenario=Scenario(scenario_id="noop")
    ).run()
    assert empty4.store.to_csv() == plain.store.to_csv()
    assert _flat_incidents(empty4.incidents) == _flat_incidents(plain.incidents)
    assert empty4.spend_by_cloud == plain.spend_by_cloud


def test_sweep_baseline_world_matches_a_plain_study_runner():
    sweep = ScenarioSweep(_config(), [scenario("flaky-clouds")])
    result = sweep.run()
    plain = StudyRunner(_config()).run()
    assert result.baseline.store.to_csv() == plain.store.to_csv()
    assert _flat_incidents(result.baseline.incidents) == _flat_incidents(plain.incidents)
    assert result.baseline.spend_by_cloud == plain.spend_by_cloud


# ------------------------------------------------------ worker determinism


@pytest.mark.parametrize("name", ["spot-everything", "quota-crunch", "degraded-efa"])
def test_scenario_campaign_identical_for_any_worker_count(name):
    scn = scenario(name)
    serial = StudyRunner(_config(), workers=1, scenario=scn).run()
    sharded = StudyRunner(_config(), workers=4, scenario=scn).run()
    assert sharded.store.to_csv() == serial.store.to_csv()
    assert sharded.store.records == serial.store.records
    assert _flat_incidents(sharded.incidents) == _flat_incidents(serial.incidents)
    assert sharded.spend_by_cloud == serial.spend_by_cloud


def test_sweep_identical_for_any_worker_count():
    scns = [scenario("spot-everything"), scenario("azure-price-spike")]
    serial = ScenarioSweep(_config(), scns, workers=1).run()
    sharded = ScenarioSweep(_config(), scns, workers=4).run()
    assert list(serial.reports) == list(sharded.reports)
    for sid in serial.reports:
        assert (
            sharded.reports[sid].store.to_csv() == serial.reports[sid].store.to_csv()
        ), sid
        assert sharded.reports[sid].spend_by_cloud == serial.reports[sid].spend_by_cloud


# ------------------------------------------------- the spot-everything claim


def test_spot_everything_shows_real_deltas_on_the_default_campaign():
    # The paper-default campaign (every env, every app, 2 iterations).
    config = StudyConfig(
        env_ids=StudyConfig.full_study().env_ids,
        apps=StudyConfig.full_study().apps,
        sizes=None,
        iterations=2,
        seed=0,
    )
    result = ScenarioSweep(config, [scenario("spot-everything")], workers=4).run()
    (delta,) = result.deltas()
    assert delta.spend_delta_usd < 0  # spot is cheaper...
    assert delta.run_cost_delta_usd < 0
    assert delta.incident_delta > 0  # ...but reclaims cost effort
    assert delta.failed_delta > 0
    preempted = [
        r for r in result.reports["spot-everything"].store
        if r.failure_kind == "spot-preemption"
    ]
    assert len(preempted) == delta.failed_delta
    rendered = result.render_deltas()
    assert "spot-everything" in rendered and "baseline" in rendered


# ------------------------------------------------------------- quota crunch


def test_total_quota_denial_abandons_cells_instead_of_crashing():
    total_crunch = Scenario(
        scenario_id="no-quota-at-all",
        quota=QuotaSqueeze(grant_probability_scale=0.0),
    )
    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-onprem-a"),
        apps=("amg2023", "lammps"),
        sizes=(32,),
        iterations=2,
        seed=0,
    )
    report = StudyRunner(config, scenario=total_crunch).run()
    skipped = report.store.query(env_id="cpu-eks-aws", state=RunState.SKIPPED)
    assert {r.app for r in skipped} == {"amg2023", "lammps"}
    assert all(r.extra["reason"] == "quota denied" for r in skipped)
    quota_incidents = [
        i for i in report.incidents.get("cpu-eks-aws", ())
        if i.source == "scenario:no-quota-at-all:quota"
    ]
    assert len(quota_incidents) == 1
    # On-prem has no quota workflow and is untouched.
    assert report.store.query(env_id="cpu-onprem-a", state=RunState.COMPLETED)
    # Denied cells provision nothing, so no AWS spend accrues.
    assert report.spend_by_cloud.get("aws", 0.0) == 0.0


# ------------------------------------------- lag and delay are observable


def test_laggy_bills_charges_reconciliation_effort():
    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-onprem-a"), apps=("amg2023",),
        sizes=(32,), iterations=2, seed=0,
    )
    result = ScenarioSweep(config, [scenario("laggy-bills")], workers=1).run()
    (delta,) = result.deltas()
    # Same spend, same runs — but the lagged world pays reconciliation.
    assert delta.spend_delta_usd == 0.0
    assert delta.completed_delta == 0
    assert delta.incident_delta > 0
    lag_incidents = [
        i for incs in result.reports["laggy-bills"].incidents.values()
        for i in incs if i.source == "scenario:laggy-bills:billing-lag"
    ]
    assert len(lag_incidents) == delta.incident_delta
    assert all("invisible" in i.description for i in lag_incidents)


def test_billing_lag_incidents_respect_the_shifted_clouds():
    az_only = Scenario(
        scenario_id="az-lag-only",
        reporting=ReportingShift(lag_hours=(("az", 72.0),)),
    )
    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-aks-az"), apps=("amg2023",), sizes=(32,),
        iterations=1, seed=0,
    )
    report = StudyRunner(config, scenario=az_only).run()
    lagged = [
        (env, i) for env, incs in report.incidents.items() for i in incs
        if i.source.endswith(":billing-lag")
    ]
    assert lagged, "the shifted cloud must charge reconciliation"
    assert all(env == "cpu-aks-az" for env, _ in lagged)


def test_quota_delay_scale_charges_proportional_waiting_effort():
    def wait_effort(delay_scale):
        scn = Scenario(
            scenario_id=f"wait-x{delay_scale}",
            quota=QuotaSqueeze(delay_scale=delay_scale),
        )
        config = StudyConfig(
            env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32, 64),
            iterations=1, seed=0,
        )
        report = StudyRunner(config, scenario=scn).run()
        waits = [
            i for incs in report.incidents.values() for i in incs
            if i.source.endswith(":quota-wait")
        ]
        assert waits, "a squeezed world must charge the grant wait"
        return sum(i.effort_minutes for i in waits)

    assert wait_effort(3.0) == pytest.approx(3.0 * wait_effort(1.0))


def test_quota_wait_respects_the_cloud_filter():
    aws_only = Scenario(
        scenario_id="aws-wait-only",
        quota=QuotaSqueeze(delay_scale=3.0, clouds=("aws",)),
    )
    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-aks-az"), apps=("amg2023",), sizes=(32,),
        iterations=1, seed=0,
    )
    report = StudyRunner(config, scenario=aws_only).run()
    waits = [
        (env, i) for env, incs in report.incidents.items() for i in incs
        if i.source.endswith(":quota-wait")
    ]
    assert waits, "the squeezed cloud must charge its wait"
    assert all(env == "cpu-eks-aws" for env, _ in waits)


# ------------------------------------------------------------- cache safety


def test_touched_cells_never_share_cache_entries_with_the_baseline(tmp_path):
    cache_dir = str(tmp_path / "cache")
    config = StudyConfig(
        env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,),
        iterations=2, seed=0,
    )
    scn = scenario("spot-aws")  # touches the cell's own cloud

    base_cold = StudyRunner(config, cache_dir=cache_dir).run()
    assert base_cold.cache.misses > 0 and base_cold.cache.hits == 0
    scn_cold = StudyRunner(config, cache_dir=cache_dir, scenario=scn).run()
    assert scn_cold.cache.hits == 0  # touched cell: different keys

    base_warm = StudyRunner(config, cache_dir=cache_dir).run()
    scn_warm = StudyRunner(config, cache_dir=cache_dir, scenario=scn).run()
    assert base_warm.store.to_csv() == base_cold.store.to_csv()
    assert scn_warm.store.to_csv() == scn_cold.store.to_csv()


def test_untouched_cells_reuse_baseline_cache_entries_byte_identically(tmp_path):
    # Cache keys embed the scenario's per-cell *footprint*, so a cell a
    # scenario cannot touch keys exactly like the baseline cell — the
    # cross-world reuse incremental plan execution is built on.
    cache_dir = str(tmp_path / "cache")
    config = StudyConfig(
        env_ids=("cpu-eks-aws",), apps=("amg2023",), sizes=(32,),
        iterations=2, seed=0,
    )
    scn = scenario("azure-price-spike")  # cannot touch an aws cell

    base_cold = StudyRunner(config, cache_dir=cache_dir).run()
    scn_warm = StudyRunner(config, cache_dir=cache_dir, scenario=scn).run()
    assert scn_warm.cache.misses == 0  # every probe hits baseline entries
    assert scn_warm.store.to_csv() == base_cold.store.to_csv()


def test_sweep_replays_from_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-onprem-a"), apps=("amg2023",), sizes=(32,),
        iterations=2, seed=0,
    )
    scns = [scenario("spot-aws")]
    cold = ScenarioSweep(config, scns, cache_dir=cache_dir).run()
    warm = ScenarioSweep(config, scns, cache_dir=cache_dir).run()
    for sid in cold.reports:
        assert warm.reports[sid].store.to_csv() == cold.reports[sid].store.to_csv()
        assert warm.reports[sid].cache.hits == warm.reports[sid].datasets


# ------------------------------------------------------------ sweep hygiene


def test_sweep_rejects_duplicate_scenarios():
    with pytest.raises(ValueError, match="duplicate"):
        ScenarioSweep(_config(), [scenario("spot-aws"), scenario("spot-aws")])


def test_sweep_rejects_a_perturbed_scenario_wearing_the_baseline_label():
    impostor = Scenario(
        scenario_id="baseline",
        quota=QuotaSqueeze(grant_probability_scale=0.5),
    )
    with pytest.raises(ValueError, match="reserved"):
        ScenarioSweep(_config(), [impostor])


def test_distinct_baseline_equivalent_worlds_keep_their_ids():
    config = StudyConfig(
        env_ids=("cpu-onprem-a",), apps=("amg2023",), sizes=(32,),
        iterations=1, seed=0,
    )
    result = ScenarioSweep(
        config, [Scenario(scenario_id="as-run"), Scenario(scenario_id="control")]
    ).run()
    # Both worlds are empty, so no extra baseline is injected and every
    # world stays addressable under its own id.
    assert list(result.reports) == ["as-run", "control"]
    assert result.baseline is result.reports["as-run"]
    assert result.reports["as-run"].store.to_csv() == (
        result.reports["control"].store.to_csv()
    )


def test_sweep_without_baseline_when_asked():
    result = ScenarioSweep(
        _config(), [scenario("azure-price-spike")], include_baseline=False
    ).run()
    assert list(result.reports) == ["azure-price-spike"]
    # No baseline world -> delta accessors fail loudly, not with KeyError.
    with pytest.raises(ValueError, match="include_baseline"):
        result.render_deltas()
