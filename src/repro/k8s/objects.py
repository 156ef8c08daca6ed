"""Kubernetes object model: nodes, pods, resource requests.

A deliberately small subset of the real API — just what the Flux
Operator and the study's daemonsets exercise.  Resources follow the
Kubernetes convention: CPU in whole cores, memory in bytes, plus
extended resources for GPUs (``nvidia.com/gpu``) and fabric devices
(``vpc.amazonaws.com/efa``, ``rdma/ib``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class PodPhase(enum.Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


@dataclass(frozen=True)
class ResourceRequest:
    """Pod resource requirements."""

    cpu_cores: float = 1.0
    memory_bytes: int = 1 << 30
    extended: tuple[tuple[str, int], ...] = ()

    def extended_dict(self) -> dict[str, int]:
        return dict(self.extended)

    @staticmethod
    def of(cpu_cores: float, memory_bytes: int, **extended: int) -> "ResourceRequest":
        return ResourceRequest(
            cpu_cores=cpu_cores,
            memory_bytes=memory_bytes,
            extended=tuple(sorted(extended.items())),
        )


@dataclass
class Pod:
    """A pod: one container (the study runs one app container per pod)."""

    name: str
    image: str
    resources: ResourceRequest
    labels: dict[str, str] = field(default_factory=dict)
    host_network: bool = False
    phase: PodPhase = PodPhase.PENDING
    node_name: str | None = None
    #: seconds spent pulling the image on its node (set at bind time)
    pull_seconds: float = 0.0

    @property
    def is_bound(self) -> bool:
        return self.node_name is not None


@dataclass
class KubeNode:
    """A Kubernetes worker node backed by a cloud instance."""

    name: str
    cpu_cores: float
    memory_bytes: int
    extended_capacity: dict[str, int] = field(default_factory=dict)
    #: pod IP addresses available (CNI-dependent; see repro.k8s.cni)
    ip_capacity: int = 110
    labels: dict[str, str] = field(default_factory=dict)
    pods: list[Pod] = field(default_factory=list)
    #: images already present (second pull of an image is free)
    image_cache: set[str] = field(default_factory=set)
    ready: bool = True

    # -- binding --------------------------------------------------------------

    def add_pod(self, pod: Pod) -> None:
        """Bind ``pod`` here; the caller has already checked :meth:`fits`."""
        pod.node_name = self.name
        pod.phase = PodPhase.RUNNING
        self.pods.append(pod)

    def remove_pod(self, pod: Pod) -> None:
        """Unbind ``pod`` from this node, returning it to pending."""
        self.pods.remove(pod)
        pod.node_name = None
        pod.phase = PodPhase.PENDING

    # -- accounting -----------------------------------------------------------

    def cpu_used(self) -> float:
        return sum(p.resources.cpu_cores for p in self.pods)

    def memory_used(self) -> int:
        return sum(p.resources.memory_bytes for p in self.pods)

    def extended_used(self, resource: str) -> int:
        return sum(p.resources.extended_dict().get(resource, 0) for p in self.pods)

    def ips_used(self) -> int:
        # Host-network pods do not consume a pod IP.
        return sum(1 for p in self.pods if not p.host_network)

    def fits(self, pod: Pod) -> bool:
        """Admission check for one more pod."""
        if not self.ready:
            return False
        if self.cpu_used() + pod.resources.cpu_cores > self.cpu_cores:
            return False
        if self.memory_used() + pod.resources.memory_bytes > self.memory_bytes:
            return False
        for res, count in pod.resources.extended_dict().items():
            if self.extended_used(res) + count > self.extended_capacity.get(res, 0):
                return False
        if not pod.host_network and self.ips_used() + 1 > self.ip_capacity:
            return False
        return True
