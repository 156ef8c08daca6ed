"""Kubernetes pod scheduler: filter + score, least-allocated strategy.

Implements the two-phase kube-scheduler pipeline: *filter* nodes that
can admit the pod (resource fit, readiness, IP budget — see
:meth:`~repro.k8s.objects.KubeNode.fits`), then *score* survivors and
bind to the best.  We score by least-allocated CPU, the default-profile
behaviour that matters for the Flux Operator's one-pod-per-node layout.

The pick is defined as the linear filter-plus-max::

    max((n for n in nodes if in_pool(n, pod) and n.fits(pod)),
        key=lambda n: (score(n), n.name))

with ties on ``(score, name)`` going to the node listed first, as
``max`` breaks them.  Scanning every node for every pod would make a
MiniCluster's gang bind quadratic in its size, so :meth:`bind_all`
orders each ``nodeSelector`` pool (``None`` = every node) once, in a
heap keyed ``(-score, -rank of name, position)``.  A node's score
depends only on the node, never on the pod, so one order serves every
pod.  Each pod pops entries until the first node whose ``fits(pod)``
is true: every pool node ranked above it was popped and failed
``fits``, and every node still in the heap ranks below it, so it is
exactly the node the linear max picks; an empty heap means no node is
feasible.  The popped nodes that did not fit go back unchanged, and
the chosen node goes back under its new score in every heap that holds
it (the entry it leaves in another pool's heap carries an old
generation and is skipped when popped).  Nothing but the gang's own
binds changes a node during one call, so the keys stay current; the
heaps are rebuilt on every call.

A gang of ``n`` pods onto ``n`` equal nodes therefore calls ``fits``
``n`` times where the linear scan called it ``n²`` times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.k8s.objects import KubeNode, Pod


@dataclass
class KubeScheduler:
    """Binds pods to nodes."""

    nodes: list[KubeNode]
    #: bound pods in bind order, for inspection
    bound: list[Pod] = field(default_factory=list)
    #: ``KubeNode.fits`` calls made while binding so far
    fits_calls: int = 0

    @staticmethod
    def score(node: KubeNode) -> float:
        """Least-allocated scoring: prefer the emptiest node."""
        free_cpu = node.cpu_cores - node.cpu_used()
        free_frac = free_cpu / node.cpu_cores if node.cpu_cores else 0.0
        return free_frac

    def bind(self, pod: Pod) -> KubeNode:
        """Schedule one pod; raises :class:`SchedulingError` if unschedulable."""
        return self.bind_all([pod])[0]

    def bind_all(self, pods: list[Pod]) -> list[KubeNode]:
        """Bind a pod group; all-or-nothing (gang semantics).

        The Flux Operator needs its whole MiniCluster up before Flux
        brokers can bootstrap, so a partial binding is rolled back and
        reported — matching how a stuck pending pod manifests.
        """
        nodes = self.nodes
        order = {name: i for i, name in enumerate(sorted({n.name for n in nodes}))}
        rank = [order[node.name] for node in nodes]
        gen = [0] * len(nodes)
        heaps: dict[str | None, list[tuple]] = {}

        def entry(pos: int) -> tuple:
            return (-self.score(nodes[pos]), -rank[pos], pos, gen[pos])

        start = len(self.bound)
        placed: list[KubeNode] = []
        try:
            for pod in pods:
                if pod.is_bound:
                    raise SchedulingError(
                        f"pod {pod.name} already bound to {pod.node_name}"
                    )
                selector = pod.labels.get("nodeSelector") or None
                heap = heaps.get(selector)
                if heap is None:
                    heap = heaps[selector] = [
                        entry(pos)
                        for pos, node in enumerate(nodes)
                        if selector is None or node.labels.get("pool") == selector
                    ]
                    heapq.heapify(heap)
                rejected = []
                chosen = None
                while heap:
                    item = heapq.heappop(heap)
                    pos = item[2]
                    if item[3] != gen[pos]:
                        continue  # superseded by the node's re-keyed entry
                    self.fits_calls += 1
                    if nodes[pos].fits(pod):
                        chosen = pos
                        break
                    rejected.append(item)
                for item in rejected:
                    heapq.heappush(heap, item)
                if chosen is None:
                    raise SchedulingError(
                        f"0/{len(nodes)} nodes available for pod {pod.name} "
                        f"(insufficient resources or pod-IP budget)"
                    )
                node = nodes[chosen]
                node.add_pod(pod)
                self.bound.append(pod)
                placed.append(node)
                gen[chosen] += 1
                pool = node.labels.get("pool")
                for key, other in heaps.items():
                    if key is None or key == pool:
                        heapq.heappush(other, entry(chosen))
        except SchedulingError:
            for pod, node in zip(pods, placed):
                node.remove_pod(pod)
            del self.bound[start:]
            raise
        return placed
