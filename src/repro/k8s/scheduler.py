"""Kubernetes pod scheduler: filter + score, least-allocated strategy.

Implements the two-phase kube-scheduler pipeline: *filter* nodes that
can admit the pod (resource fit, readiness, IP budget — see
:meth:`~repro.k8s.objects.KubeNode.fits`), then *score* survivors and
bind to the best.  We score by least-allocated CPU, the default-profile
behaviour that matters for the Flux Operator's one-pod-per-node layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.k8s.objects import KubeNode, Pod


@dataclass
class KubeScheduler:
    """Binds pods to nodes."""

    nodes: list[KubeNode]
    #: bound pods in bind order, for inspection
    bound: list[Pod] = field(default_factory=list)

    def filter(self, pod: Pod) -> list[KubeNode]:
        """Feasible nodes for ``pod``, honouring label selectors."""
        feasible = []
        for node in self.nodes:
            selector = pod.labels.get("nodeSelector")
            if selector and node.labels.get("pool") != selector:
                continue
            if node.fits(pod):
                feasible.append(node)
        return feasible

    @staticmethod
    def score(node: KubeNode, pod: Pod) -> float:
        """Least-allocated scoring: prefer the emptiest node."""
        free_cpu = node.cpu_cores - node.cpu_used()
        free_frac = free_cpu / node.cpu_cores if node.cpu_cores else 0.0
        return free_frac

    def bind(self, pod: Pod) -> KubeNode:
        """Schedule one pod; raises :class:`SchedulingError` if unschedulable."""
        if pod.is_bound:
            raise SchedulingError(f"pod {pod.name} already bound to {pod.node_name}")
        feasible = self.filter(pod)
        if not feasible:
            raise SchedulingError(
                f"0/{len(self.nodes)} nodes available for pod {pod.name} "
                f"(insufficient resources or pod-IP budget)"
            )
        best = max(feasible, key=lambda n: (self.score(n, pod), n.name))
        best.add_pod(pod)
        self.bound.append(pod)
        return best

    def bind_all(self, pods: list[Pod]) -> list[KubeNode]:
        """Bind a pod group; all-or-nothing (gang semantics).

        The Flux Operator needs its whole MiniCluster up before Flux
        brokers can bootstrap, so a partial binding is rolled back and
        reported — matching how a stuck pending pod manifests.
        """
        placed: list[tuple[Pod, KubeNode]] = []
        try:
            for pod in pods:
                node = self.bind(pod)
                placed.append((pod, node))
        except SchedulingError:
            for pod, node in placed:
                node.remove_pod(pod)
                self.bound.remove(pod)
            raise
        return [node for _, node in placed]
