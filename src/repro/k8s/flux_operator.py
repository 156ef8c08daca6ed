"""The Flux Operator: a Flux MiniCluster across Kubernetes pods.

The study unified all Kubernetes environments with the Flux Operator
(§2.3): a custom resource (``MiniCluster``) that stands up one pod per
node, bootstraps a Flux broker overlay across them, and exposes a batch
queue inside the pods.  This module models that lifecycle:

1. a :class:`MiniClusterSpec` names the container image, size, and
   per-pod resources;
2. :class:`FluxOperator.create` gang-schedules the pods (all-or-nothing,
   like the real operator's indexed Job), charges image-pull time on
   cache-miss, waits for broker bootstrap (a tree broadcast — log(n)
   rounds), and returns a :class:`MiniCluster` holding the bound pods
   and the bring-up time.

A study cell charges that bring-up time as part of its setup cost
(:mod:`repro.parallel.shard`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.k8s.cluster import KubernetesCluster
from repro.k8s.objects import Pod, ResourceRequest
from repro.telemetry import count, span


@dataclass(frozen=True)
class MiniClusterSpec:
    """The ``MiniCluster`` custom resource, abridged."""

    name: str
    image: str
    size: int
    tasks_per_node: int
    #: pod resources; defaults claim nearly the whole node, the
    #: operator's recommended layout for tightly coupled MPI apps
    cpu_fraction: float = 0.95
    gpu_per_pod: int = 0
    fabric_resource: str | None = None  # e.g. "vpc.amazonaws.com/efa", "rdma/ib"
    #: image pull time on a cold node, seconds (study containers were
    #: multi-GB application stacks)
    image_pull_seconds: float = 120.0


@dataclass
class MiniCluster:
    """A running MiniCluster."""

    spec: MiniClusterSpec
    pods: list[Pod]
    bringup_seconds: float

    @property
    def size(self) -> int:
        return len(self.pods)


@dataclass
class FluxOperator:
    """Creates and deletes MiniClusters on a Kubernetes cluster."""

    cluster: KubernetesCluster
    miniclusters: list[MiniCluster] = field(default_factory=list)

    def create(self, spec: MiniClusterSpec) -> MiniCluster:
        """Stand up a MiniCluster; raises if the gang cannot schedule."""
        if spec.size > self.cluster.size:
            raise SchedulingError(
                f"MiniCluster of {spec.size} exceeds cluster size {self.cluster.size}"
            )
        pods = []
        if spec.size:
            node_template = self.cluster.nodes[0]
            extended: dict[str, int] = {}
            if spec.gpu_per_pod:
                extended["nvidia.com/gpu"] = spec.gpu_per_pod
            if spec.fabric_resource:
                extended[spec.fabric_resource] = 1
            # One request serves every pod: it is immutable.
            resources = ResourceRequest.of(
                cpu_cores=node_template.cpu_cores * spec.cpu_fraction,
                memory_bytes=int(node_template.memory_bytes * 0.9),
                **extended,
            )
            pods = [
                Pod(
                    name=f"{spec.name}-{i}",
                    image=spec.image,
                    resources=resources,
                    labels={"minicluster": spec.name, "nodeSelector": "workers"},
                    host_network=True,  # study pods used host networking for fabrics
                )
                for i in range(spec.size)
            ]
        scheduler = self.cluster.scheduler()
        with span("k8s.bind", pods=len(pods)):
            try:
                nodes = scheduler.bind_all(pods)
            finally:
                # Counted per gang, not per pod: nothing on the bind path
                # pays for telemetry.
                count("k8s.fits_calls", scheduler.fits_calls)
        count("k8s.pods_bound", len(nodes))

        # Image pulls: cold nodes pay the pull, warm nodes are free.
        pull_times = []
        for pod, node in zip(pods, nodes):
            if spec.image in node.image_cache:
                pod.pull_seconds = 0.0
            else:
                pod.pull_seconds = spec.image_pull_seconds
                node.image_cache.add(spec.image)
            pull_times.append(pod.pull_seconds)
        pull_wall = max(pull_times) if pull_times else 0.0

        # Flux broker bootstrap: tree overlay, log2(size) rounds of
        # attach + PMI exchange, ~1.5 s per round at study scales.
        rounds = max(1, math.ceil(math.log2(max(spec.size, 2))))
        bootstrap = 1.5 * rounds

        mc = MiniCluster(spec=spec, pods=pods, bringup_seconds=pull_wall + bootstrap)
        self.miniclusters.append(mc)
        return mc

    def delete(self, mc: MiniCluster) -> None:
        """Tear down a MiniCluster, freeing its pods' nodes."""
        if mc not in self.miniclusters:
            raise SchedulingError("MiniCluster not managed by this operator")
        nodes = {node.name: node for node in self.cluster.nodes}
        for pod in mc.pods:
            node = nodes.get(pod.node_name)
            if node is not None:
                node.remove_pod(pod)
        self.miniclusters.remove(mc)
