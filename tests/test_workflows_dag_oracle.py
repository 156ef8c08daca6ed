"""Workflow DAG queries against networkx as an independent oracle.

:class:`~repro.workflows.dag.Workflow` keeps its graph in plain dicts.
On random graphs — random node insertion order, random edge attempts
including ones that would close a cycle — every query must agree with
the networkx reference exactly: topological order, edge order, the
longest chain (including how ties break), and which edges are refused.
Skipped where networkx is not installed; it is not a dependency.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workflows.dag import Component, ComponentKind, Workflow

nx = pytest.importorskip("networkx")


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 8))
    names = draw(st.permutations([f"c{i}" for i in range(n)]))
    if not names:
        return names, []
    node = st.sampled_from(names)
    attempts = draw(
        st.lists(st.tuples(node, node, st.integers(0, 1 << 20)), max_size=24)
    )
    return names, attempts


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_random_graphs_match_networkx(graph):
    names, attempts = graph
    wf = Workflow("random")
    ref = nx.DiGraph()
    for name in names:
        wf.add(Component(name, ComponentKind.SERVICE))
        ref.add_node(name)
    for src, dst, nbytes in attempts:
        ref.add_edge(src, dst, bytes_per_cycle=nbytes)
        ref_refused = not nx.is_directed_acyclic_graph(ref)
        if ref_refused:
            ref.remove_edge(src, dst)
        try:
            wf.connect(src, dst, bytes_per_cycle=nbytes)
            refused = False
        except ConfigurationError:
            refused = True
        assert refused == ref_refused, (src, dst)

    assert [c.name for c in wf.components()] == list(nx.topological_sort(ref))
    assert wf.edges() == [
        (u, v, data["bytes_per_cycle"]) for u, v, data in ref.edges(data=True)
    ]
    assert wf.critical_path() == nx.dag_longest_path(ref, weight=None)
