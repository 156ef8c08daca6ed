"""Cross-module property tests (hypothesis).

These encode the invariants DESIGN.md promises: billing conservation,
placement caps, weak/strong scaling laws, and deterministic replay of
the execution engine.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.placement import PlacementPolicy, apply_placement
from repro.cloud.pricing import BillingMeter
from repro.envs.registry import ENVIRONMENTS, environment
from repro.network.fabrics import FABRICS, fabric
from repro.sim.execution import ExecutionEngine
from repro.units import HOUR

env_ids = st.sampled_from(sorted(ENVIRONMENTS))
fabric_names = st.sampled_from(sorted(FABRICS))


# ------------------------------------------------------------------ billing

@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["aws", "az", "g"]),
            st.integers(min_value=1, max_value=256),
            st.floats(min_value=1.0, max_value=100_000.0),
            st.floats(min_value=0.1, max_value=40.0),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_billing_total_is_sum_of_events(events):
    meter = BillingMeter()
    expected = 0.0
    for cloud, nodes, duration, rate in events:
        ev = meter.meter(cloud, "t", nodes, 0.0, duration, rate)
        expected += nodes * duration / HOUR * rate
    assert meter.accrued() == pytest.approx(expected)
    assert meter.by_cloud().grand_total == pytest.approx(expected)


@given(
    cloud=st.sampled_from(["aws", "az", "g"]),
    end=st.floats(min_value=0.0, max_value=1e6),
    query=st.floats(min_value=0.0, max_value=2e6),
)
@settings(max_examples=100, deadline=None)
def test_reported_never_exceeds_accrued(cloud, end, query):
    meter = BillingMeter()
    meter.meter(cloud, "t", 8, 0.0, end, 3.0)
    assert meter.reported(query, cloud) <= meter.accrued(cloud) + 1e-9


# ----------------------------------------------------------------- placement

@given(
    cloud=st.sampled_from(["aws", "az", "g", "p"]),
    kind=st.sampled_from(["vm", "k8s", "onprem"]),
    nodes=st.integers(min_value=1, max_value=512),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=150, deadline=None)
def test_placement_fraction_in_unit_interval(cloud, kind, nodes, seed):
    result = apply_placement(cloud, kind, nodes, seed=seed)
    assert 0.0 <= result.colocated_fraction <= 1.0
    assert result.status


# -------------------------------------------------------------------- fabric

@given(name=fabric_names, nbytes=st.integers(min_value=0, max_value=1 << 24))
@settings(max_examples=150, deadline=None)
def test_p2p_time_at_least_latency(name, nbytes):
    f = fabric(name)
    assert f.p2p_time(nbytes) >= f.latency_s


# ------------------------------------------------------------------- engine

@given(
    env_id=st.sampled_from(
        ["cpu-eks-aws", "cpu-onprem-a", "cpu-gke-g", "gpu-aks-az"]
    ),
    scale=st.sampled_from([32, 64, 128, 256]),
    iteration=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_engine_replay_is_identical(env_id, scale, iteration):
    env = environment(env_id)
    a = ExecutionEngine(seed=3).run(env, "amg2023", scale, iteration=iteration)
    b = ExecutionEngine(seed=3).run(env, "amg2023", scale, iteration=iteration)
    assert a.fom == b.fom
    assert a.wall_seconds == b.wall_seconds
    assert a.cost_usd == b.cost_usd


@given(
    env_id=st.sampled_from(["cpu-eks-aws", "cpu-cyclecloud-az", "cpu-gke-g"]),
    iteration=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_weak_scaled_amg_fom_grows_with_units(env_id, iteration):
    env = environment(env_id)
    engine = ExecutionEngine(seed=1)
    f32 = engine.run(env, "amg2023", 32, iteration=iteration).fom
    f256 = engine.run(env, "amg2023", 256, iteration=iteration).fom
    assert f256 > 2.0 * f32


@given(
    env_id=st.sampled_from(["cpu-eks-aws", "cpu-onprem-a", "gpu-gke-g"]),
    scale=st.sampled_from([32, 64, 128, 256]),
    iteration=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_run_costs_consistent_with_duration(env_id, scale, iteration):
    env = environment(env_id)
    rec = ExecutionEngine(seed=2).run(env, "lammps", scale, iteration=iteration)
    rate = env.instance().cost_per_hour
    expected = rec.nodes * rate * rec.total_seconds / HOUR
    assert rec.cost_usd == pytest.approx(expected)
