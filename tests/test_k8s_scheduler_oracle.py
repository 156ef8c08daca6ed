"""The heap-ordered pod scheduler against a linear filter-plus-max oracle.

:class:`~repro.k8s.scheduler.KubeScheduler` binds from per-pool heaps.
The reference keeps none: for every pod it filters all nodes by pool
and by a re-sum of each node's pod list, then takes
``max((score, name))`` with ties to the node listed first, exactly the
linear scan the heaps replaced.  On random node pools (mixed pools,
capacities, readiness and pod-IP budgets) and random operation
sequences (gang binds with mixed selectors that succeed or roll back,
single binds, direct ``remove_pod``, readiness flips, MiniClusters
created and deleted through the Flux Operator) every bind must pick
the reference's node and fail exactly when the reference finds none.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.k8s.cluster import KubernetesCluster
from repro.k8s.cni import CniConfig
from repro.k8s.flux_operator import FluxOperator, MiniClusterSpec
from repro.k8s.objects import KubeNode, Pod, ResourceRequest
from repro.k8s.scheduler import KubeScheduler

POOLS = ("workers", "gpu", None)
RESOURCES = ("nvidia.com/gpu", "rdma/ib")

# -- the reference ----------------------------------------------------------------


def _fresh_fits(node: KubeNode, pods: list[Pod], pod: Pod) -> bool:
    if not node.ready:
        return False
    res = pod.resources
    if sum(p.resources.cpu_cores for p in pods) + res.cpu_cores > node.cpu_cores:
        return False
    if sum(p.resources.memory_bytes for p in pods) + res.memory_bytes > node.memory_bytes:
        return False
    for name, count in res.extended_dict().items():
        used = sum(p.resources.extended_dict().get(name, 0) for p in pods)
        if used + count > node.extended_capacity.get(name, 0):
            return False
    ips = sum(1 for p in pods if not p.host_network)
    return pod.host_network or ips + 1 <= node.ip_capacity


def _fresh_score(node: KubeNode, pods: list[Pod]) -> float:
    free = node.cpu_cores - sum(p.resources.cpu_cores for p in pods)
    return free / node.cpu_cores if node.cpu_cores else 0.0


def _reference_gang(nodes: list[KubeNode], gang: list[Pod]) -> list[int] | None:
    """Node positions the linear scan binds ``gang`` to; ``None`` = it fails."""
    shadow = [list(node.pods) for node in nodes]
    placed = []
    for pod in gang:
        selector = pod.labels.get("nodeSelector")
        feasible = [
            i
            for i, node in enumerate(nodes)
            if not (selector and node.labels.get("pool") != selector)
            and _fresh_fits(node, shadow[i], pod)
        ]
        if not feasible:
            return None
        best = max(feasible, key=lambda i: (_fresh_score(nodes[i], shadow[i]), nodes[i].name))
        shadow[best].append(pod)
        placed.append(best)
    return placed


# -- generation ---------------------------------------------------------------


@st.composite
def _pools(draw):
    n = draw(st.integers(1, 7))
    names = draw(st.permutations([f"node-{i}" for i in range(n)]))
    nodes = []
    for name in names:
        nodes.append(
            KubeNode(
                name=name,
                cpu_cores=draw(st.sampled_from([0.0, 1.0, 2.0, 3.3, 4.0, 8.0])),
                memory_bytes=draw(st.sampled_from([1 << 30, 4 << 30, 16 << 30])),
                extended_capacity={
                    res: draw(st.integers(0, 2))
                    for res in draw(st.sets(st.sampled_from(RESOURCES)))
                },
                ip_capacity=draw(st.integers(0, 6)),
                labels={} if (pool := draw(st.sampled_from(POOLS))) is None
                else {"pool": pool},
                ready=draw(st.sampled_from([True, True, True, False])),
            )
        )
    return nodes


_request = st.builds(
    lambda cpu, mem, ext: ResourceRequest.of(cpu, mem, **ext),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1.1, 2.0]),
    st.sampled_from([128 << 20, 1 << 30, 3 << 30]),
    st.dictionaries(st.sampled_from(RESOURCES), st.integers(1, 2), max_size=1),
)
_pod_shape = st.tuples(
    _request, st.sampled_from(("workers", "gpu", "absent", None, None)), st.booleans()
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("gang"), st.lists(_pod_shape, min_size=1, max_size=6)),
        st.tuples(st.just("bind"), _pod_shape),
        st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
        st.tuples(st.just("ready"), st.integers(0, 1 << 16)),
        st.tuples(st.just("create"), st.integers(1, 4), st.sampled_from([0.2, 0.45, 0.95])),
        st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
    ),
    max_size=14,
)


# -- the property ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_pools(), _ops)
def test_binds_match_the_linear_reference(nodes, ops):
    names = (f"pod-{i}" for i in itertools.count())
    sched = KubeScheduler(nodes)
    cluster = KubernetesCluster(
        cloud_cluster=None, cni=CniConfig("gke-native"), version="1.29",
        service="GKE", nodes=nodes,
    )
    operator = FluxOperator(cluster)

    def make_pod(shape) -> Pod:
        request, selector, host_network = shape
        labels = {"nodeSelector": selector} if selector else {}
        return Pod(name=next(names), image="img", resources=request,
                   labels=labels, host_network=host_network)

    def check_gang(gang: list[Pod], bind) -> None:
        expected = _reference_gang(nodes, gang)
        if expected is None:
            before = [list(node.pods) for node in nodes]
            with pytest.raises(SchedulingError):
                bind()
            assert [node.pods for node in nodes] == before
            assert not any(pod.is_bound for pod in gang)
        else:
            placed = bind()
            assert [nodes.index(node) for node in placed] == expected
            assert all(pod.node_name == nodes[i].name for pod, i in zip(gang, expected))

    for op in ops:
        kind = op[0]
        if kind == "gang":
            gang = [make_pod(shape) for shape in op[1]]
            check_gang(gang, lambda: sched.bind_all(gang))
        elif kind == "bind":
            pod = make_pod(op[1])
            check_gang([pod], lambda: [sched.bind(pod)])
        elif kind == "remove":
            bound = [(node, pod) for node in nodes for pod in node.pods]
            if bound:
                node, pod = bound[op[1] % len(bound)]
                node.remove_pod(pod)
        elif kind == "ready":
            node = nodes[op[1] % len(nodes)]
            node.ready = not node.ready
        elif kind == "create":
            size, fraction = op[1], op[2]
            spec = MiniClusterSpec(name=next(names), image="img", size=size,
                                   tasks_per_node=1, cpu_fraction=fraction)
            if size > len(nodes):
                with pytest.raises(SchedulingError):
                    operator.create(spec)
                continue
            shape = ResourceRequest.of(nodes[0].cpu_cores * fraction,
                                       int(nodes[0].memory_bytes * 0.9))
            gang = [Pod(name="probe", image="img", resources=shape,
                        labels={"nodeSelector": "workers"}, host_network=True)
                    for _ in range(size)]
            expected = _reference_gang(nodes, gang)
            if expected is None:
                with pytest.raises(SchedulingError):
                    operator.create(spec)
            else:
                mc = operator.create(spec)
                assert [nodes.index(next(n for n in nodes if n.name == p.node_name))
                        for p in mc.pods] == expected
        elif kind == "delete" and operator.miniclusters:
            mc = operator.miniclusters[op[1] % len(operator.miniclusters)]
            operator.delete(mc)
            assert not any(pod.is_bound for pod in mc.pods)


def test_a_node_freed_between_binds_is_the_emptiest_again():
    # Two equal nodes; fill one, then free it behind the scheduler's
    # back.  The next pod must see it as the emptiest node again.
    nodes = [KubeNode(name=f"n{i}", cpu_cores=4.0, memory_bytes=8 << 30) for i in range(2)]
    sched = KubeScheduler(nodes)
    pods = [Pod(name=f"p{i}", image="img",
                resources=ResourceRequest.of(1.0, 1 << 30)) for i in range(3)]
    assert sched.bind(pods[0]) is nodes[1]  # ties go to the larger name
    assert sched.bind(pods[1]) is nodes[0]
    assert sched.bind(pods[2]) is nodes[1]
    nodes[1].remove_pod(pods[0])
    nodes[1].remove_pod(pods[2])
    late = Pod(name="late", image="img", resources=ResourceRequest.of(1.0, 1 << 30))
    assert sched.bind(late) is nodes[1]


def _gang_on(nodes, shapes):
    gang = [Pod(name=f"p{i}", image="img", resources=ResourceRequest.of(cpu, 1 << 20),
                labels={"nodeSelector": selector} if selector else {})
            for i, (cpu, selector) in enumerate(shapes)]
    expected = _reference_gang(nodes, gang)
    placed = KubeScheduler(nodes).bind_all(gang)
    assert [nodes.index(node) for node in placed] == expected
    return [node.name for node in placed]


def test_a_node_that_did_not_fit_one_pod_is_offered_to_the_next():
    # n1 wins the tie but is too small for the first pod; the second
    # pod must still find it, now the emptiest node.
    nodes = [KubeNode(name="n0", cpu_cores=8.0, memory_bytes=8 << 30),
             KubeNode(name="n1", cpu_cores=1.0, memory_bytes=8 << 30)]
    assert _gang_on(nodes, [(2.0, None), (0.5, None)]) == ["n0", "n1"]


def test_a_node_bound_from_one_pool_is_rekeyed_in_the_others():
    # The second pod binds n0 from the "workers" heap; the every-node
    # heap must then rank n0 by its new load (third pod: tie, so n1)
    # and still hold it (fourth pod: n0 is the emptiest).
    nodes = [KubeNode(name="n0", cpu_cores=4.0, memory_bytes=8 << 30,
                      labels={"pool": "workers"}),
             KubeNode(name="n1", cpu_cores=4.0, memory_bytes=8 << 30)]
    shapes = [(1.0, None), (1.0, "workers"), (1.0, None), (1.0, None)]
    assert _gang_on(nodes, shapes) == ["n1", "n0", "n1", "n0"]


def test_gang_bind_calls_fits_about_once_per_pod():
    nodes = [KubeNode(name=f"n{i:03d}", cpu_cores=96.0, memory_bytes=384 << 30,
                      labels={"pool": "workers"}) for i in range(256)]
    request = ResourceRequest.of(96.0 * 0.95, 300 << 30)
    gang = [Pod(name=f"p{i}", image="img", resources=request,
                labels={"nodeSelector": "workers"}, host_network=True)
            for i in range(256)]
    sched = KubeScheduler(nodes)
    placed = sched.bind_all(gang)
    assert len({node.name for node in placed}) == 256
    assert sched.fits_calls == 256
