"""Frontier transfer engine against the subgraph walk.

The walk, called directly, is the reference: the engine must give the
same polynomial on the fixture graphs, on random multigraphs in any
vertex order, on the five-wide circulants and prisms, and under
relabeling.  Larger circuits and 3xL grids are checked against closed
forms and exact special values instead, and 24-edge graphs against the
coloring oracle.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chromfield import frontier
from chromfield.families import z_circuit
from chromfield.graphs import Graph, circuit_graph, complete_graph, grid_graph
from chromfield.partition import (_counts_to_z, _qt_to_z, oracle_z,
                                  subgraph_counts, z_poly)
from chromfield.poly import Q, S, V, W

QT = Q - S


def walk_z(g: Graph):
    return _counts_to_z(subgraph_counts(g), g.n)


def frontier_z(g: Graph, order=None):
    steps = frontier.transfer_steps(g, range(g.n) if order is None else order)
    return _qt_to_z(frontier.transfer_z(g, steps))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph.make(g.n, edges)


def circulant(n: int, jumps) -> Graph:
    return Graph.make(n, [(i, (i + j) % n) for j in jumps for i in range(n)])


def prism(n: int) -> Graph:
    """Two n-circuits joined by a perfect matching."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return Graph.make(2 * n, ring + [(n + u, n + v) for u, v in ring]
                      + [(i, n + i) for i in range(n)])


def test_matches_walk_on_golden_fixture_graphs(catalog, golden_z, golden_ph):
    graphs = {name: catalog[name] for name in golden_z}
    graphs.update((name, complete_graph(5) if name == "k5" else catalog[name])
                  for name in golden_ph)
    for name, g in graphs.items():
        want = walk_z(g)
        assert frontier_z(g) == want, name
        assert frontier_z(g, reversed(range(g.n))) == want, name


@st.composite
def multigraphs(draw):
    """Disjoint unions of two random multigraphs (loops and parallel edges
    allowed) plus isolated vertices, relabeled."""
    parts = []
    for _ in range(2):
        n = draw(st.integers(1, 4))
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        parts.append(Graph.make(n, draw(st.lists(ends, max_size=6))))
    g = parts[0].disjoint_union(parts[1]).add_isolated(draw(st.integers(0, 2)))
    return relabeled(g, random.Random(draw(st.integers(0, 2 ** 32))))


@given(multigraphs(), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_matches_walk_on_random_multigraphs_in_any_order(g, seed):
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    assert frontier_z(g, order) == walk_z(g)


@st.composite
def banded_multigraphs(draw):
    """Narrow multigraphs the engine is chosen for: edges join vertices at
    most two apart, with loops, parallel edges and gaps that split them."""
    n = draw(st.integers(6, 9))
    pair = st.integers(0, n - 1).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u, min(u + 2, n - 1))))
    edges = draw(st.lists(pair, min_size=14, max_size=15))
    return relabeled(Graph.make(n, edges), random.Random(draw(st.integers(0, 2 ** 32))))


@given(banded_multigraphs())
@settings(max_examples=15, deadline=None)
def test_z_poly_picks_the_engine_on_narrow_multigraphs(g):
    assert frontier.plan(g) is not None
    assert z_poly(g) == walk_z(g)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=10, deadline=None)
def test_same_z_under_relabeling(seed):
    rng = random.Random(seed)
    for base, want in ((grid_graph(2, 5), walk_z(grid_graph(2, 5))),
                       (circuit_graph(16), z_circuit(16))):
        g = relabeled(base, rng)
        assert frontier.plan(g) is not None
        assert z_poly(g) == want


def test_engine_choice_follows_frontier_width():
    narrow = [grid_graph(2, 6), grid_graph(3, 4), grid_graph(2, 7),
              circuit_graph(18), circuit_graph(20), circulant(9, (1, 2)),
              circulant(10, (1, 2)), prism(6), prism(7)]
    wide = [complete_graph(6), complete_graph(7)]
    rng = random.Random(5)
    for g in narrow:
        assert frontier.plan(relabeled(g, rng)) is not None, g.name
    for g in wide:
        assert frontier.plan(relabeled(g, rng)) is None, g.name
    # small graphs stay on the walk whatever their width
    assert frontier.plan(circuit_graph(8)) is None


def test_labelled_bell_numbers():
    # S(m, k) by its recurrence; a block is free or distinguished
    stirling = [[1]]
    for m in range(1, len(frontier._LABELLED_BELL)):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)])
    assert frontier._LABELLED_BELL == tuple(
        sum(c << k for k, c in enumerate(row)) for row in stirling)
    assert frontier.MAX_WIDTH == 5


def test_five_wide_graphs_match_walk():
    # each needs a frontier of 5 vertices, the widest the engine takes
    rng = random.Random(24)
    for base in (circulant(9, (1, 2)), circulant(10, (1, 2)),
                 circulant(11, (1, 2)), prism(6)):
        g = relabeled(base, rng)
        steps = frontier.plan(g)
        assert steps is not None
        assert _qt_to_z(frontier.transfer_z(g, steps)) == walk_z(g)


def test_graphs_too_large_for_the_walk_match_oracle():
    # 24 edges each; the walk took seconds on these, the engine milliseconds
    for g in (grid_graph(4, 4), circulant(12, (1, 2))):
        assert frontier.plan(g) is not None
        z = z_poly(g)
        for q, s in ((2, 1), (3, 1), (3, 2)):
            assert z.substitute(q=q, s=s) == oracle_z(g, q, s, V, W), (q, s)


def test_sweep_of_the_empty_graph_has_no_steps():
    g = Graph.make(0, [])
    assert frontier.sweep(g, lambda k, d: 1, 0) == []
    assert frontier.plan(g) == []
    assert z_poly(g) == 1


def test_no_six_bit_packing_limit():
    # 64 parallel edges: the walk refuses them, the engine sums them
    g = Graph.make(2, [(0, 1)] * 64)
    assert frontier.plan(g) is not None
    one = QT + S * W
    assert frontier_z(g) == one * one + ((1 + V) ** 64 - 1) * (QT + S * W ** 2)


def test_circuits_match_closed_form(monkeypatch):
    for n in range(1, 21):
        assert frontier_z(circuit_graph(n)) == z_circuit(n), n
    monkeypatch.setenv("CHROMFIELD_EDGE_CAP", "60")
    assert z_poly(circuit_graph(60)) == z_circuit(60)


def test_three_row_grids(monkeypatch):
    for lx in range(1, 5):
        g = grid_graph(3, lx)
        assert frontier_z(g, sorted(range(g.n), key=lambda x: (x % lx, x))) == walk_z(g)
    monkeypatch.setenv("CHROMFIELD_EDGE_CAP", "40")
    g = grid_graph(3, 8)
    z = z_poly(g)
    # q = 1, s = 0: every spanning subgraph weighs v^edges
    assert z.substitute(q=1, s=0) == (1 + V) ** g.e
    # a connected bipartite graph has two proper 2-colorings, each putting
    # one side of 12 vertices in the distinguished color
    assert z.substitute(q=2, s=1, v=-1) == 2 * W ** 12
    assert z.substitute(s=Q) == W ** g.n * z.substitute(s=0)
