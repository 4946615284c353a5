"""Frontier transfer engine against the subgraph walk.

The walk, called directly, is the reference: the engine must give the
same polynomial on the fixture graphs, on random multigraphs in any
vertex order, on the five-wide circulants and prisms, and under
relabeling.  Larger circuits and 3xL grids are checked against closed
forms and exact special values instead, and 24-edge graphs against the
coloring oracle.  The planner's bitset greedy is checked against a
set-based copy kept here as its reference.
"""

import itertools
import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import engine_of
from chromfield import frontier
from chromfield.families import z_circuit
from chromfield.graphs import (Graph, circuit_graph, complete_graph, grid_graph,
                               star_graph)
from chromfield.partition import _counts_to_z, oracle_z, subgraph_counts, z_poly
from chromfield.poly import Q, S, V, W

QT = Q - S


def walk_z(g: Graph):
    return _counts_to_z(subgraph_counts(g), g.n)


def frontier_z(g: Graph, order=None):
    steps = frontier.transfer_steps(g, range(g.n) if order is None else order)
    return frontier.transfer_z(g, steps)


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
def small_multigraphs(draw):
    """Multigraphs on at most 5 vertices with loops and parallel edges."""
    n = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Graph.make(n, draw(st.lists(ends, max_size=7)))


def assert_every_order_matches_walk(g: Graph):
    want = walk_z(g)
    for order in itertools.permutations(range(g.n)):
        assert frontier_z(g, order) == want, order


@given(small_multigraphs())
@settings(max_examples=25, deadline=None)
def test_matches_walk_in_every_order_on_small_multigraphs(g):
    assert_every_order_matches_walk(g)


def test_vertex_joins_a_distinguished_block_then_meets_a_free_one():
    # in the order 0, 1, 2 the edge 0-1 left unchosen can leave 0
    # distinguished and 1 free; vertex 2 then joins 0's block, taking its
    # label and its w, and a chosen edge to 1 is refused
    tri = Graph.make(3, [(0, 1), (0, 2), (1, 2)])
    assert frontier_z(tri) == walk_z(tri)
    # each of the 3! proper colorings with 3 colors, s of them
    # distinguished, puts s vertices in distinguished colors
    for s in range(4):
        assert frontier_z(tri).substitute(q=3, s=s, v=-1) == 6 * W ** s
    # vertex 3 then joins 2's block, or stays alone, through parallel edges
    assert_every_order_matches_walk(
        Graph.make(4, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 3)]))


def test_loop_on_a_vertex_with_no_label_yet():
    # vertex 1's loop comes before its edge to 0, so it is decided while
    # 1 is alone; the loop closes a cycle whatever label 1 takes later
    g = Graph.make(2, [(1, 1), (0, 1)])
    assert frontier.transfer_steps(g, [0, 1])[1][1] == (1, 0)
    assert frontier_z(g, [0, 1]) == walk_z(g)
    assert_every_order_matches_walk(
        Graph.make(3, [(1, 1), (1, 1), (0, 1), (2, 2), (1, 2), (1, 2)]))


def test_vertex_retires_while_still_alone():
    # vertex 1 retires in its own step; if its only edge is left unchosen
    # it closes as qt + s w on its own
    g = Graph.make(2, [(0, 1)])
    assert frontier.transfer_steps(g, [0, 1])[1][2] == (0, 1)
    one = QT + S * W
    assert frontier_z(g) == one * one + V * (QT + S * W ** 2)
    # a middle isolated vertex and a pendant vertex placed last
    assert_every_order_matches_walk(
        Graph.make(5, [(0, 1), (1, 3), (3, 4), (0, 0)]))


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
    # planned against the walk alone; z_poly may take the subset sum on
    # the smaller ones, so the transfer on the planned steps is checked too
    steps = frontier.plan(g, 1 << g.e)
    assert steps is not None
    want = walk_z(g)
    assert frontier.transfer_z(g, steps) == want
    assert z_poly(g) == want


@given(st.integers(0, 2 ** 32))
@settings(max_examples=10, deadline=None)
def test_same_z_under_relabeling(seed):
    rng = random.Random(seed)
    for base, want in ((grid_graph(2, 5), walk_z(grid_graph(2, 5))),
                       (circuit_graph(16), z_circuit(16))):
        g = relabeled(base, rng)
        assert engine_of(g) == ("transfer", want)


def test_engine_choice_follows_frontier_width():
    narrow = [grid_graph(2, 6), grid_graph(3, 4), grid_graph(2, 7),
              circuit_graph(18), circuit_graph(20), circulant(9, (1, 2)),
              circulant(10, (1, 2)), prism(6), prism(7)]
    wide = [complete_graph(6), complete_graph(7)]
    rng = random.Random(5)
    # planned against the walk alone, whose bound on its work is 2^e
    for g in narrow:
        assert frontier.plan(relabeled(g, rng), 1 << g.e) is not None, g.name
    for g in wide:
        assert frontier.plan(relabeled(g, rng), 1 << g.e) is None, g.name
    # small graphs stay on the walk whatever their width
    assert frontier.plan(circuit_graph(8), 1 << 8) is None


def test_engine_choice_names_each_engine():
    # the transfer against the cheaper of 2^e and 2 * 3^n: the subset sum
    # takes the complete graphs and C9(1,2), C10(1,2) from both others
    panel = {
        "subsets": [complete_graph(n) for n in range(5, 9)]
        + [circulant(9, (1, 2)), circulant(10, (1, 2))],
        "transfer": [circulant(11, (1, 2)), circulant(12, (1, 2)),
                     grid_graph(2, 6), grid_graph(3, 4), grid_graph(2, 7),
                     circuit_graph(18), circuit_graph(20), prism(6), prism(7)],
        "walk": [circuit_graph(8), grid_graph(3, 3), complete_graph(4),
                 star_graph(6)],
    }
    rng = random.Random(26)
    for engine, graphs in panel.items():
        for g in graphs:
            for _ in range(2):
                assert engine_of(relabeled(g, rng))[0] == engine, (g.name, engine)


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
        # planned against the walk alone: z_poly takes the subset sum on
        # C9(1,2) and C10(1,2)
        steps = frontier.plan(g, 1 << g.e)
        assert steps is not None
        assert frontier.transfer_z(g, steps) == walk_z(g)


def test_graphs_too_large_for_the_walk_match_oracle():
    # 24 edges each; the walk took seconds on these, the engine milliseconds
    for g in (grid_graph(4, 4), circulant(12, (1, 2))):
        engine, z = engine_of(g)
        assert engine == "transfer"
        for q, s in ((2, 1), (3, 1), (3, 2)):
            assert z.substitute(q=q, s=s) == oracle_z(g, q, s, V, W), (q, s)


def reference_greedy(n, nbrs, ends, start, weight, limit):
    """The planner's greedy order with Python sets: one order from
    ``start`` and its work, None once the work passes ``limit``."""
    open_nbrs = [len(s) for s in nbrs]  # neighbours not yet placed
    placed = [False] * n
    front: set[int] = set()
    order: list[int] = []
    work = 0
    v = start
    while True:
        placed[v] = True
        order.append(v)
        work += weight(len(front) + 1, sum(placed[u] for u in ends[v]))
        if work > limit:
            return None
        for u in nbrs[v]:
            open_nbrs[u] -= 1
            if not open_nbrs[u]:
                front.discard(u)
        if open_nbrs[v]:
            front.add(v)
        if len(order) == n:
            return order, work
        best = None
        for u in {x for f in front for x in nbrs[f] if not placed[x]}:
            linked = nbrs[u] & front
            size = (len(front) + (open_nbrs[u] > 0)
                    - sum(1 for f in linked if open_nbrs[f] == 1))
            key = (size, -len(linked), u)
            if best is None or key < best:
                best = key
        if best is None:
            v = min((x for x in range(n) if not placed[x]),
                    key=lambda x: (len(nbrs[x]), x))
        else:
            v = best[2]


def reference_sweep(g: Graph, weight, limit):
    """``frontier.sweep`` over ``reference_greedy``."""
    n = g.n
    nbrs: list[set[int]] = [set() for _ in range(n)]
    ends: list[list[int]] = [[] for _ in range(n)]  # one entry per edge end
    for u, v in g.edges:
        ends[u].append(v)
        if u != v:
            ends[v].append(u)
            nbrs[u].add(v)
            nbrs[v].add(u)
    order = None if n else []
    for start in sorted(range(n), key=lambda x: (len(nbrs[x]), x)):
        found = reference_greedy(n, nbrs, ends, start, weight, limit)
        if found is not None:
            order, work = found
            limit = work - 1
    return None if order is None else frontier.transfer_steps(g, order)


def transfer_weight(k, d):
    return (frontier._LABELLED_BELL[k] * (1 + d) if k <= frontier.MAX_WIDTH
            else math.inf)


@st.composite
def sweep_graphs(draw):
    """Multigraphs of up to 12 vertices, loops and parallel edges allowed,
    sometimes banded so that the transfer weight stays finite."""
    n = draw(st.integers(0, 12))
    if not n:
        return Graph.make(0, [])
    reach = draw(st.sampled_from((2, 3, n)))
    pair = st.integers(0, n - 1).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u, min(u + reach, n - 1))))
    edges = draw(st.lists(pair, max_size=24))
    return relabeled(Graph.make(n, edges), random.Random(draw(st.integers(0, 2 ** 32))))


def assert_sweep_matches_reference(g: Graph) -> None:
    for limit in (math.inf, 1 << g.e, 4 * (g.n + g.e), 0):
        assert frontier.sweep(g, transfer_weight, limit) == \
            reference_sweep(g, transfer_weight, limit), limit
    for q in (2, 3):
        for limit in (math.inf, 10 ** 4):
            assert frontier.sweep(g, lambda k, d: q ** k, limit) == \
                reference_sweep(g, lambda k, d: q ** k, limit), (q, limit)


@given(sweep_graphs())
@settings(max_examples=150, deadline=None)
@example(Graph.make(5, [(0, 2), (1, 3), (0, 1), (2, 3), (1, 4), (0, 2), (0, 4)]))
def test_sweep_matches_the_set_based_reference(g):
    assert_sweep_matches_reference(g)


def test_sweep_matches_the_set_based_reference_on_a_fixed_panel():
    # random multigraphs, about one in twelve of which a planner that
    # forgets a frontier vertex down to its last open neighbour orders
    # differently, and the benchmark strips under relabeling
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = Graph.make(n, [(rng.randrange(n), rng.randrange(n))
                           for _ in range(rng.randint(0, 14))])
        assert_sweep_matches_reference(g)
    for g in (grid_graph(2, 6), grid_graph(3, 4), grid_graph(2, 7),
              circuit_graph(18), circuit_graph(20)):
        assert_sweep_matches_reference(relabeled(g, rng))


def test_sweep_of_the_empty_graph_has_no_steps():
    g = Graph.make(0, [])
    assert frontier.sweep(g, lambda k, d: 1, 0) == []
    assert frontier.plan(g, 1) == []
    assert z_poly(g) == 1


def test_no_six_bit_packing_limit():
    # 64 parallel edges: the walk refuses them, the engine sums them
    g = Graph.make(2, [(0, 1)] * 64)
    assert frontier.plan(g, 1 << g.e) is not None
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


def test_null_graphs_fill_the_top_slot():
    # each isolated vertex is free (q - s) or distinguished (s w), so the
    # packed value of N_n reaches s^n w^n, its highest slot
    for n in range(1, 13):
        g = Graph.make(n, [])
        want = (QT + S * W) ** n
        assert frontier.transfer_z(g, frontier.transfer_steps(g, range(n))) == want


def test_loops_on_one_vertex():
    # (q - s + s w) (1 + v)^e: every loop closes a cycle in either block label
    for e in range(9):
        g = Graph.make(1, [(0, 0)] * e)
        want = (QT + S * W) * (1 + V) ** e
        assert frontier.transfer_z(g, frontier.transfer_steps(g, [0])) == want
