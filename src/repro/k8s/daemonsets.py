"""DaemonSets used by the study environments.

Three daemonsets matter to the paper:

* the **NVIDIA device plugin** (all GPU clusters) exposing
  ``nvidia.com/gpu``;
* the **EFA device plugin** on EKS exposing ``vpc.amazonaws.com/efa``;
* the **AKS InfiniBand installer** the authors had to *write themselves*
  (§3.1 Development: "develop a custom daemonset to install InfiniBand
  drivers") — it compiles/loads the IB drivers on each AKS node and
  exposes ``rdma/ib``; without it, AKS pods fall back to kernel TCP.

A :class:`DaemonSetSpec` rolls one pod per node and contributes
per-node extended resources once ready.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.k8s.objects import KubeNode, Pod, PodPhase, ResourceRequest


@dataclass(frozen=True)
class DaemonSetSpec:
    """A daemonset definition."""

    name: str
    image: str
    #: extended resources each node advertises once the DS pod is ready
    provides: tuple[tuple[str, int], ...] = ()
    #: per-node rollout time, seconds (driver compile/install for AKS IB)
    rollout_seconds_per_node: float = 5.0
    host_network: bool = True
    #: whether this daemonset was developed in-house for the study
    custom_development: bool = False

    def pod_for(self, node: KubeNode) -> Pod:
        return Pod(
            name=f"{self.name}-{node.name}",
            image=self.image,
            resources=ResourceRequest(cpu_cores=0.1, memory_bytes=128 << 20),
            labels={"app": self.name, "kind": "daemonset"},
            host_network=self.host_network,
        )


NVIDIA_DEVICE_PLUGIN = DaemonSetSpec(
    name="nvidia-device-plugin",
    image="nvcr.io/nvidia/k8s-device-plugin:v0.14",
    provides=(("nvidia.com/gpu", 8),),
    rollout_seconds_per_node=8.0,
)

EFA_DEVICE_PLUGIN = DaemonSetSpec(
    name="aws-efa-k8s-device-plugin",
    image="aws/efa-device-plugin:v0.4",
    provides=(("vpc.amazonaws.com/efa", 1),),
    rollout_seconds_per_node=6.0,
)

#: The custom daemonset of §3.1 / converged-computing/aks-infiniband-install.
AKS_INFINIBAND_INSTALLER = DaemonSetSpec(
    name="aks-infiniband-install",
    image="ghcr.io/converged-computing/aks-infiniband-install:latest",
    provides=(("rdma/ib", 1),),
    rollout_seconds_per_node=45.0,  # driver build + modprobe per node
    custom_development=True,
)


@dataclass
class DaemonSetRollout:
    """Tracks a daemonset's rollout across a node set."""

    spec: DaemonSetSpec
    pods: list[Pod] = field(default_factory=list)

    def deploy(self, nodes: list[KubeNode]) -> float:
        """Place one pod per node; returns total rollout time.

        Rollout is parallel across nodes, so wall time is the per-node
        time (plus a small scheduling sweep proportional to node count).
        """
        placed = [self.spec.pod_for(node) for node in nodes]
        for node, pod in zip(nodes, placed):
            node.add_pod(pod)
            node.extended_capacity.update(self.spec.provides)
        self.pods.extend(placed)
        sweep = 0.02 * len(nodes)
        return self.spec.rollout_seconds_per_node + sweep

    @property
    def ready_count(self) -> int:
        return sum(1 for p in self.pods if p.phase is PodPhase.RUNNING)
