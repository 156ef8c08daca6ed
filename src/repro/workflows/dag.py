"""Workflow graphs: components, requirements, data flow.

A :class:`Workflow` is a DAG of :class:`Component` nodes.
Edges carry the bytes exchanged per workflow cycle, which the
portability scorer uses to penalise splitting chatty component pairs
across environments (cloud egress + WAN latency).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class ComponentKind(enum.Enum):
    SIMULATION = "simulation"  # tightly coupled MPI
    AI = "ai"  # training/inference services
    DATABASE = "database"
    SERVICE = "service"  # messaging, dashboards, coordination


@dataclass(frozen=True)
class Component:
    """One workflow component and its resource requirements."""

    name: str
    kind: ComponentKind
    min_nodes: int = 1
    needs_gpu: bool = False
    #: tightly coupled: requires a low-latency fabric (< ~5 us)
    needs_low_latency: bool = False
    #: needs to scale up/down during the run (favors Kubernetes)
    needs_elasticity: bool = False
    #: must run containerized (cloud-native component)
    needs_containers: bool = False

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ConfigurationError("min_nodes must be >= 1")


class Workflow:
    """A DAG of components with data-flow edges.

    Components keep their insertion order and edges their connection
    order; every query is a deterministic function of those orders.
    """

    def __init__(self, name: str):
        self.name = name
        self._components: dict[str, Component] = {}
        #: src -> {dst: bytes per cycle}, in connection order
        self._succ: dict[str, dict[str, int]] = {}
        #: dst -> sources, in connection order
        self._pred: dict[str, list[str]] = {}

    # -- construction -----------------------------------------------------------

    def add(self, component: Component) -> Component:
        if component.name in self._components:
            raise ConfigurationError(f"duplicate component {component.name!r}")
        self._components[component.name] = component
        self._succ[component.name] = {}
        self._pred[component.name] = []
        return component

    def connect(self, src: str, dst: str, *, bytes_per_cycle: int) -> None:
        for name in (src, dst):
            if name not in self._components:
                raise ConfigurationError(f"unknown component {name!r}")
        if bytes_per_cycle < 0:
            raise ConfigurationError("bytes_per_cycle must be non-negative")
        if self._reaches(dst, src):
            raise ConfigurationError(
                f"edge {src}->{dst} would create a cycle"
            )
        if dst not in self._succ[src]:
            self._pred[dst].append(src)
        self._succ[src][dst] = bytes_per_cycle

    # -- graph helpers ----------------------------------------------------------

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether a directed path leads from ``start`` to ``goal``."""
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for nxt in self._succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _topological_order(self) -> list[str]:
        """Kahn's algorithm by generations: each generation lists the
        components whose last predecessor was in the one before, in the
        order those predecessors release them."""
        indegree = {name: len(srcs) for name, srcs in self._pred.items()}
        generation = [name for name, d in indegree.items() if d == 0]
        order: list[str] = []
        while generation:
            order.extend(generation)
            released = []
            for node in generation:
                for nxt in self._succ[node]:
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        released.append(nxt)
            generation = released
        return order

    # -- queries ----------------------------------------------------------------

    def components(self) -> list[Component]:
        return [self._components[name] for name in self._topological_order()]

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise ConfigurationError(f"unknown component {name!r}") from None

    def edges(self) -> list[tuple[str, str, int]]:
        """Edges grouped by source in component order, each source's
        edges in connection order."""
        return [
            (src, dst, nbytes)
            for src, out in self._succ.items()
            for dst, nbytes in out.items()
        ]

    def traffic_between(self, a: str, b: str) -> int:
        total = 0
        for u, v, nbytes in self.edges():
            if {u, v} == {a, b}:
                total += nbytes
        return total

    def total_nodes(self) -> int:
        return sum(c.min_nodes for c in self.components())

    def critical_path(self) -> list[str]:
        """Longest chain of components by edge count.

        Ties go to the earliest candidate: the first predecessor (in
        connection order) among a component's longest incoming chains,
        and the first end point in topological order.
        """
        order = self._topological_order()
        if not order:
            return []
        #: component -> (chain length ending here, predecessor on it)
        best: dict[str, tuple[int, str]] = {}
        for node in order:
            chains = [(best[p][0] + 1, p) for p in self._pred[node]]
            best[node] = max(chains, key=lambda c: c[0]) if chains else (0, node)
        node = max(best, key=lambda n: best[n][0])
        path = [node]
        while best[node][1] != node:
            node = best[node][1]
            path.append(node)
        path.reverse()
        return path


def mummi_style_workflow() -> Workflow:
    """A canonical composite workflow from the paper's motivation.

    Modeled on the multiscale simulation campaigns cited in §1.1
    (MuMMI-like): a tightly coupled MPI simulation feeding an AI model
    selector, backed by a database and a coordination service.
    """
    wf = Workflow("multiscale-campaign")
    wf.add(Component("macro-sim", ComponentKind.SIMULATION, min_nodes=64,
                     needs_low_latency=True))
    wf.add(Component("micro-sim", ComponentKind.SIMULATION, min_nodes=16,
                     needs_gpu=True, needs_low_latency=True))
    wf.add(Component("ml-selector", ComponentKind.AI, min_nodes=4,
                     needs_gpu=True, needs_elasticity=True, needs_containers=True))
    wf.add(Component("feature-db", ComponentKind.DATABASE, min_nodes=2,
                     needs_containers=True))
    wf.add(Component("orchestrator", ComponentKind.SERVICE, min_nodes=1,
                     needs_elasticity=True, needs_containers=True))
    wf.connect("macro-sim", "ml-selector", bytes_per_cycle=2 << 30)
    wf.connect("macro-sim", "feature-db", bytes_per_cycle=256 << 20)
    wf.connect("ml-selector", "micro-sim", bytes_per_cycle=64 << 20)
    wf.connect("micro-sim", "feature-db", bytes_per_cycle=512 << 20)
    wf.connect("orchestrator", "macro-sim", bytes_per_cycle=1 << 20)
    return wf
