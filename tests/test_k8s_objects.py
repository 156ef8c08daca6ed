"""Kubernetes object-model tests."""

import pytest

from repro.k8s.objects import KubeNode, Pod, PodPhase, ResourceRequest


def _node(cpu=96.0, mem=384 << 30, **ext):
    return KubeNode(
        name="n1", cpu_cores=cpu, memory_bytes=mem, extended_capacity=dict(ext)
    )


def _pod(cpu=1.0, mem=1 << 30, host_network=False, **ext):
    return Pod(
        name="p",
        image="img",
        resources=ResourceRequest.of(cpu, mem, **ext),
        host_network=host_network,
    )


def test_resource_request_extended():
    r = ResourceRequest.of(4.0, 1 << 30, **{"nvidia.com/gpu": 8})
    assert r.extended_dict() == {"nvidia.com/gpu": 8}


def test_node_fits_cpu_budget():
    node = _node(cpu=4.0)
    assert node.fits(_pod(cpu=4.0))
    assert not node.fits(_pod(cpu=4.5))


def test_node_fits_memory_budget():
    node = _node(mem=2 << 30)
    assert node.fits(_pod(mem=2 << 30))
    assert not node.fits(_pod(mem=3 << 30))


def test_extended_resources_enforced():
    node = _node(**{"nvidia.com/gpu": 8})
    assert node.fits(_pod(**{"nvidia.com/gpu": 8}))
    assert not node.fits(_pod(**{"nvidia.com/gpu": 9}))
    assert not node.fits(_pod(**{"rdma/ib": 1}))  # not advertised


def test_accounting_accumulates():
    node = _node(cpu=8.0)
    for i in range(3):
        node.add_pod(_pod(cpu=2.0))
    assert node.cpu_used() == 6.0
    assert node.fits(_pod(cpu=2.0))
    assert not node.fits(_pod(cpu=3.0))


def test_ip_budget_counts_non_host_network_pods():
    node = _node()
    node.ip_capacity = 2
    for i in range(2):
        node.add_pod(_pod())
    assert not node.fits(_pod())
    # Host-network pods don't consume pod IPs.
    assert node.fits(_pod(host_network=True))


def test_add_and_remove_pod_bind_and_unbind():
    node = _node(cpu=4.0)
    pod = _pod(cpu=4.0)
    node.add_pod(pod)
    assert pod.node_name == node.name
    assert pod.phase is PodPhase.RUNNING
    assert not node.fits(_pod(cpu=1.0))
    node.remove_pod(pod)
    assert node.pods == []
    assert not pod.is_bound
    assert pod.phase is PodPhase.PENDING
    assert node.fits(_pod(cpu=4.0))


def test_not_ready_node_rejects_pods():
    node = _node()
    node.ready = False
    assert not node.fits(_pod())


def test_pod_phase_lifecycle():
    p = _pod()
    assert p.phase is PodPhase.PENDING
    assert not p.is_bound
    p.node_name = "n1"
    assert p.is_bound
