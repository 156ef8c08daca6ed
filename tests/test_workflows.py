"""Workflow DAG and portability-scoring tests."""

import pytest

from repro.envs.registry import ENVIRONMENTS, environment
from repro.errors import ConfigurationError
from repro.workflows.dag import (
    Component,
    ComponentKind,
    Workflow,
    mummi_style_workflow,
)
from repro.workflows.portability import (
    LOW_LATENCY_THRESHOLD_US,
    PortabilityScorer,
    portability_index,
)


def _sim(**kw):
    defaults = dict(name="sim", kind=ComponentKind.SIMULATION, min_nodes=32)
    defaults.update(kw)
    return Component(**defaults)


# ----------------------------------------------------------------- DAG


def test_workflow_construction():
    wf = Workflow("test")
    wf.add(_sim())
    wf.add(Component("db", ComponentKind.DATABASE))
    wf.connect("sim", "db", bytes_per_cycle=1024)
    assert [c.name for c in wf.components()] == ["sim", "db"]
    assert wf.edges() == [("sim", "db", 1024)]


def test_duplicate_component_rejected():
    wf = Workflow("t")
    wf.add(_sim())
    with pytest.raises(ConfigurationError):
        wf.add(_sim())


def test_cycle_rejected():
    wf = Workflow("t")
    wf.add(_sim())
    wf.add(Component("db", ComponentKind.DATABASE))
    wf.connect("sim", "db", bytes_per_cycle=1)
    with pytest.raises(ConfigurationError):
        wf.connect("db", "sim", bytes_per_cycle=1)


def test_unknown_edge_endpoints():
    wf = Workflow("t")
    wf.add(_sim())
    with pytest.raises(ConfigurationError):
        wf.connect("sim", "ghost", bytes_per_cycle=1)


def test_traffic_between_symmetric():
    wf = mummi_style_workflow()
    assert wf.traffic_between("macro-sim", "ml-selector") == 2 << 30
    assert wf.traffic_between("ml-selector", "macro-sim") == 2 << 30
    assert wf.traffic_between("macro-sim", "orchestrator") == 1 << 20


def test_mummi_workflow_shape():
    wf = mummi_style_workflow()
    assert len(wf.components()) == 5
    assert wf.total_nodes() == 64 + 16 + 4 + 2 + 1
    assert len(wf.critical_path()) >= 3


#: the mummi workflow's topological order, which is also its longest chain
_MUMMI_ORDER = ["orchestrator", "macro-sim", "ml-selector", "micro-sim", "feature-db"]


def test_mummi_topological_order_and_critical_path_pinned():
    wf = mummi_style_workflow()
    assert [c.name for c in wf.components()] == _MUMMI_ORDER
    assert wf.critical_path() == _MUMMI_ORDER


def test_mummi_edges_grouped_by_source_in_insertion_order():
    assert mummi_style_workflow().edges() == [
        ("macro-sim", "ml-selector", 2 << 30),
        ("macro-sim", "feature-db", 256 << 20),
        ("micro-sim", "feature-db", 512 << 20),
        ("ml-selector", "micro-sim", 64 << 20),
        ("orchestrator", "macro-sim", 1 << 20),
    ]


def test_self_loop_rejected_and_graph_unchanged():
    wf = Workflow("t")
    wf.add(_sim())
    with pytest.raises(ConfigurationError):
        wf.connect("sim", "sim", bytes_per_cycle=1)
    assert wf.edges() == []
    assert wf.critical_path() == ["sim"]


def test_reconnect_updates_bytes_in_place():
    wf = Workflow("t")
    for name in ("a", "b", "c"):
        wf.add(_sim(name=name))
    wf.connect("a", "b", bytes_per_cycle=1)
    wf.connect("a", "c", bytes_per_cycle=2)
    wf.connect("a", "b", bytes_per_cycle=3)
    assert wf.edges() == [("a", "b", 3), ("a", "c", 2)]


def test_empty_workflow():
    wf = Workflow("t")
    assert wf.components() == []
    assert wf.edges() == []
    assert wf.critical_path() == []


def test_component_validation():
    with pytest.raises(ConfigurationError):
        Component("bad", ComponentKind.AI, min_nodes=0)


# ---------------------------------------------------------- portability


def test_tightly_coupled_component_needs_low_latency_fabric():
    scorer = PortabilityScorer()
    sim = _sim(needs_low_latency=True)
    fit_eks = scorer.assess(sim, environment("cpu-eks-aws"))
    assert not fit_eks.feasible
    assert any("latency" in r for r in fit_eks.reasons)
    fit_onprem = scorer.assess(sim, environment("cpu-onprem-a"))
    assert fit_onprem.feasible
    fit_cyclecloud = scorer.assess(sim, environment("cpu-cyclecloud-az"))
    assert fit_cyclecloud.feasible  # InfiniBand HDR under the threshold


def test_gpu_requirement():
    scorer = PortabilityScorer()
    ai = Component("train", ComponentKind.AI, min_nodes=2, needs_gpu=True,
                   needs_containers=True)
    assert not scorer.assess(ai, environment("cpu-eks-aws")).feasible
    assert scorer.assess(ai, environment("gpu-eks-aws")).feasible


def test_container_requirement_excludes_onprem():
    scorer = PortabilityScorer()
    svc = Component("svc", ComponentKind.SERVICE, needs_containers=True)
    fit = scorer.assess(svc, environment("cpu-onprem-a"))
    assert not fit.feasible
    assert "container" in fit.reasons[0]


def test_elasticity_prefers_kubernetes():
    scorer = PortabilityScorer()
    svc = Component("scaler", ComponentKind.SERVICE, needs_elasticity=True,
                    needs_containers=True)
    ranked = scorer.rank(svc)
    assert ranked
    assert ENVIRONMENTS[ranked[0].env_id].kind.value == "k8s"
    assert all(ENVIRONMENTS[f.env_id].kind.value != "onprem" for f in ranked)


def test_undeployable_environment_never_feasible():
    scorer = PortabilityScorer()
    anything = Component("x", ComponentKind.SERVICE)
    fit = scorer.assess(anything, environment("gpu-parallelcluster-aws"))
    assert not fit.feasible


def test_portability_index_range_and_ordering():
    flexible = Component("portable", ComponentKind.SERVICE)
    picky = Component(
        "picky", ComponentKind.SIMULATION, min_nodes=64,
        needs_low_latency=True, needs_gpu=True,
    )
    p_flex = portability_index(flexible)
    p_picky = portability_index(picky)
    assert 0.0 <= p_picky < p_flex <= 1.0


def test_place_whole_workflow():
    scorer = PortabilityScorer(seed=0)
    wf = mummi_style_workflow()
    placement = scorer.place(wf)
    assert set(placement) == {c.name for c in wf.components()}
    assert all(fit.feasible for fit in placement.values())
    # Tightly coupled GPU micro-sim must land on an IB GPU environment.
    micro_env = ENVIRONMENTS[placement["micro-sim"].env_id]
    assert micro_env.is_gpu
    assert micro_env.base_fabric().latency_us <= LOW_LATENCY_THRESHOLD_US


def test_placement_colocates_chatty_pairs():
    scorer = PortabilityScorer(seed=0)
    wf = Workflow("chatty")
    wf.add(Component("a", ComponentKind.AI, min_nodes=2, needs_gpu=True,
                     needs_containers=True))
    wf.add(Component("b", ComponentKind.AI, min_nodes=2, needs_gpu=True,
                     needs_containers=True))
    wf.connect("a", "b", bytes_per_cycle=50 << 30)  # 50 GB per cycle
    placement = scorer.place(wf)
    assert placement["a"].env_id == placement["b"].env_id


def test_impossible_component_raises():
    scorer = PortabilityScorer()
    impossible = Component(
        "nope", ComponentKind.SIMULATION, min_nodes=1,
        needs_gpu=True, needs_containers=True, needs_low_latency=True,
        needs_elasticity=True,
    )
    ranked = scorer.rank(impossible)
    # Only AKS GPU satisfies GPU+containers+IB+elastic; verify either a
    # sensible ranking or an informative failure for a stricter variant.
    if ranked:
        env = ENVIRONMENTS[ranked[0].env_id]
        assert env.is_gpu and env.kind.value == "k8s"
        assert env.base_fabric().latency_us <= LOW_LATENCY_THRESHOLD_US


def test_plan_cost(amount=None):
    scorer = PortabilityScorer(seed=0)
    wf = mummi_style_workflow()
    placement = scorer.place(wf)
    cost = scorer.plan_cost_per_hour(placement)
    assert cost >= 0.0
