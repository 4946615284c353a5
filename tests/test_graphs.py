"""Graph container, minors, invariants and the named families."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromfield.errors import BadSizeError
from chromfield.graphs import (Graph, circuit_graph, complete_graph,
                               enumerate_spanning_subgraphs, grid_graph,
                               line_graph, make_family, null_graph,
                               square_with_diagonal, star_graph)


def test_family_shapes():
    assert null_graph(4).e == 0 and null_graph(4).n == 4
    assert line_graph(5).e == 4
    assert sorted(star_graph(6).degree_sequence()) == [1, 1, 1, 1, 1, 5]
    assert circuit_graph(5).e == 5
    assert complete_graph(5).e == 10
    g = square_with_diagonal()
    assert (g.n, g.e) == (4, 5)
    assert sorted(g.degree_sequence()) == [2, 2, 3, 3]


def test_degenerate_circuits():
    c1 = circuit_graph(1)
    assert c1.has_loop() and c1.e == 1
    c2 = circuit_graph(2)
    assert not c2.has_loop()
    assert c2.e == 2 and len(set(c2.edges)) == 1  # doubled edge


def test_grid_strip():
    g = grid_graph(2, 3)
    assert g.n == 6 and g.e == 7
    assert g.is_connected()
    assert g.bipartition() is not None


def test_make_family_dispatch():
    assert make_family("line", 3).e == 2
    assert make_family("c4d", 4) == square_with_diagonal()
    with pytest.raises(ValueError):
        make_family("moebius", 4)
    for kind, n in (("line", 0), ("c4d", 3), ("c4d", 5)):
        with pytest.raises(BadSizeError):
            make_family(kind, n)


def test_edge_normalization_and_canonical_key():
    # endpoints are normalized u <= v; edge order is preserved as given,
    # and the canonical key sorts it away
    a = Graph.make(3, [(2, 0), (1, 0)])
    b = Graph.make(3, [(0, 1), (0, 2)])
    assert sorted(a.edges) == sorted(b.edges) == [(0, 1), (0, 2)]
    assert a.canonical_key() == b.canonical_key()
    assert a.graph_hash() == b.graph_hash()
    assert len(a.graph_hash()) == 16


def test_components_and_cycle_rank():
    g = line_graph(3).disjoint_union(circuit_graph(3))
    assert g.component_count() == 2
    assert g.cycle_rank() == 1
    assert not g.is_connected()
    assert null_graph(4).component_count() == 4
    assert complete_graph(4).cycle_rank() == 3


def test_bipartition():
    even = circuit_graph(6).bipartition()
    assert even is not None
    n1, n2 = sorted(len(side) for side in even)
    assert (n1, n2) == (3, 3)
    assert circuit_graph(5).bipartition() is None
    sides = star_graph(5).bipartition()
    assert sorted(len(side) for side in sides) == [1, 4]


def test_delete_and_contract():
    c3 = circuit_graph(3)
    assert c3.delete_edge(0).e == 2
    contracted = c3.contract_edge(0)
    assert contracted.n == 2
    # the two remaining edges become parallel, both kept
    assert contracted.e == 2 and len(set(contracted.edges)) == 1
    # contracting one of those parallels turns the other into a loop
    again = contracted.contract_edge(0)
    assert again.n == 1 and again.has_loop()
    # contracting a loop removes it
    assert again.contract_edge(0).e == 0


def test_isolated_vertices_and_union():
    g = line_graph(2).add_isolated(2)
    assert g.n == 4 and g.e == 1
    u = line_graph(2).disjoint_union(line_graph(3))
    assert u.n == 5 and u.e == 3
    assert u.edges[-1] == (2, 3) or (2, 3) in u.edges


@st.composite
def multigraphs(draw):
    """Loops, parallel edges and isolated vertices allowed, n = 0 too."""
    n = draw(st.integers(0, 6))
    ends = st.integers(0, n - 1) if n else st.nothing()
    return Graph.make(n, draw(st.lists(st.tuples(ends, ends), max_size=8 if n else 0)))


@given(multigraphs())
@example(square_with_diagonal())
@example(Graph.make(0, []))
@example(Graph.make(4, [(0, 0), (1, 2), (2, 1), (1, 2)]))
@settings(max_examples=60, deadline=None)
def test_json_and_edge_list_round_trips(g):
    # display names are not serialized; the vertex count and the edges,
    # in order and with multiplicity, are
    via_json = Graph.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    via_text = Graph.from_edge_list_text(g.to_edge_list_text())
    assert (via_json.n, via_json.edges) == (g.n, g.edges)
    assert (via_text.n, via_text.edges) == (g.n, g.edges)


def test_spanning_subgraph_enumeration():
    g = circuit_graph(3)
    summaries = list(enumerate_spanning_subgraphs(g))
    assert len(summaries) == 2 ** 3
    full = max(summaries, key=lambda s: s.edge_count)
    assert full.edge_count == 3 and sorted(full.component_sizes) == [3]
    empty = min(summaries, key=lambda s: s.edge_count)
    assert sorted(empty.component_sizes) == [1, 1, 1]
