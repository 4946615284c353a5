"""Subgraph-expansion engine against the reference enumerator and the
direct coloring oracle.

Two fully independent routes exist to every value: the union-find DFS over
edge subsets (production path) and a per-coloring sum over all q^n color
assignments (oracle path).  These tests insist the routes agree exactly.
"""

import itertools
import math
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import time_limit
from chromfield import frontier, partition
from chromfield.errors import (BadDecompositionError, BadInputError,
                               CapExceededError, LoopyGraphError)
from chromfield.graphs import (Graph, circuit_graph, complete_graph,
                               enumerate_spanning_subgraphs, grid_graph,
                               line_graph, make_family, null_graph,
                               square_with_diagonal, star_graph)
from chromfield.partition import (DEFAULT_VERTEX_CAP, chromatic_number,
                                  chromatic_poly, layers, oracle_count_table,
                                  oracle_ph, oracle_z, ph_poly, subgraph_counts,
                                  tutte_poly, z_poly, zero_field_by_walk,
                                  zero_field_poly)
from chromfield.identities import identity_suite
from chromfield.poly import ONE, Q, S, V, W, MultiPoly

QT = Q - S


def reference_z(g: Graph) -> MultiPoly:
    """Cluster sum assembled straight from the spanning-subgraph stream."""
    total = MultiPoly.zero()
    for sub in enumerate_spanning_subgraphs(g):
        term = V ** sub.edge_count
        for size in sub.component_sizes:
            term = term * (QT + S * W ** size)
        total = total + term
    return total


@pytest.mark.parametrize("g", [line_graph(3), circuit_graph(3),
                               star_graph(4), square_with_diagonal(),
                               circuit_graph(2), circuit_graph(1)])
def test_engine_matches_reference_cluster_sum(g):
    assert z_poly(g) == reference_z(g)


def test_engine_on_disconnected_graph():
    g = line_graph(2).disjoint_union(circuit_graph(3)).add_isolated(1)
    assert z_poly(g) == reference_z(g)


def test_subgraph_counts_partition_the_power_set():
    g = square_with_diagonal()
    counts = subgraph_counts(g)
    assert sum(counts.values()) == 2 ** g.e


def test_parallel_split_gives_identical_polynomial():
    g = complete_graph(4)
    assert z_poly(g, workers=3) == z_poly(g, workers=1)


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("fn", [z_poly, subgraph_counts, identity_suite])
def test_worker_count_below_one_is_refused(fn, workers):
    # C4 is narrow, so z_poly would take the frontier engine and never
    # reach the walk's own check
    with pytest.raises(BadInputError, match="workers"):
        fn(circuit_graph(4), workers)


# -- the spanning-forest walk --------------------------------------------------

def brute_subgraph_counts(g: Graph) -> dict[int, int]:
    """The walk's counters from the reference enumeration of all 2^e
    subgraphs, keyed (size multiset, 6 bits per size) << 6 | edge count."""
    counts: dict[int, int] = {}
    for sub in enumerate_spanning_subgraphs(g):
        key = sum(1 << (6 * size) for size in sub.component_sizes)
        pk = key << 6 | sub.edge_count
        counts[pk] = counts.get(pk, 0) + 1
    return counts


@st.composite
def multigraphs(draw):
    """Loops, parallel edges and isolated vertices; 0 to 10 edges."""
    n = draw(st.integers(0, 6))
    ends = st.integers(0, n - 1) if n else st.nothing()
    return Graph.make(n, draw(st.lists(st.tuples(ends, ends),
                                       max_size=10 if n else 0)))


@given(multigraphs())
@example(Graph.make(0, []))
@example(Graph.make(3, []))
@example(Graph.make(2, [(0, 1)]))
@example(Graph.make(1, [(0, 0)]))
@example(Graph.make(4, [(0, 1), (1, 2), (2, 0), (0, 1), (3, 3), (2, 0),
                        (1, 2)]))
@settings(max_examples=40, deadline=None)
def test_subgraph_counts_match_brute_force(g):
    want = brute_subgraph_counts(g)
    assert subgraph_counts(g, workers=1) == want
    assert subgraph_counts(g, workers=2) == want


@given(multigraphs())
# forced prefixes: a loop, then a parallel pair whose second copy closes a
# cycle; and a triangle closed by the first of a parallel pair
@example(Graph.make(3, [(1, 1), (0, 1), (0, 1), (1, 2), (0, 2), (2, 2)]))
@example(Graph.make(4, [(0, 1), (1, 2), (0, 2), (0, 2), (3, 3), (2, 3)]))
@settings(max_examples=40, deadline=None)
def test_split_matches_brute_force_on_any_machine(g):
    # four usable CPUs are claimed and the pool runs inline, so the split
    # is taken whatever this machine has: with 6 or more edges, 16 tasks
    # each force the first 4 edge decisions (patched here, not by a
    # fixture, since hypothesis rejects function-scoped ones)
    split = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            split.append(len(tasks))
            return map(fn, tasks)

    with mock.patch.object(partition, "ProcessPoolExecutor", InlinePool), \
            mock.patch.object(partition, "_usable_cpus", lambda: 4):
        got = subgraph_counts(g, workers=4)
    assert got == brute_subgraph_counts(g)
    assert split == ([16] if g.e >= 6 else [])


def test_cycle_closing_edges_do_not_branch():
    # 2^30 subgraphs each; a walk that branched on the 30 loops, or on the
    # 29 parallel edges after the first, would run for minutes
    one_loopy = Graph.make(1, [(0, 0)] * 30)
    k2_thick = Graph.make(2, [(0, 1)] * 30)
    with time_limit(10):
        loops = subgraph_counts(one_loopy)
        parallel = subgraph_counts(k2_thick)
    single = 1 << 6  # one component of one vertex
    assert loops == {single << 6 | m: math.comb(30, m) for m in range(31)}
    apart, joined = 2 << 6, 1 << 12  # two singletons; one pair
    assert parallel == {(apart if m == 0 else joined) << 6 | m: math.comb(30, m)
                        for m in range(31)}


@pytest.mark.parametrize("g, cpus, procs, tasks", [
    (complete_graph(6), 1, None, None),  # one usable CPU: serial, no pool
    (complete_graph(6), 2, 2, 8),        # split for 2 processes, not 64
    (complete_graph(6), 3, 3, 16),
    (complete_graph(6), 256, 64, 256),   # capped by workers
    (line_graph(7), 256, 32, 32),        # 6 edges: capped by its 32 tasks
])
def test_pool_is_capped_at_usable_cpus(monkeypatch, g, cpus, procs, tasks):
    serial = subgraph_counts(g, workers=1)
    made, split = [], []

    class RecordingPool:
        """Records max_workers and the tasks, and runs them inline: no
        process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            split.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(partition, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(partition, "_usable_cpus", lambda: cpus)
    assert subgraph_counts(g, workers=64) == serial
    assert made == ([] if procs is None else [procs])
    assert split == ([] if tasks is None else [tasks])


# -- reductions of the four-variable polynomial --------------------------------

@pytest.mark.parametrize("g", [line_graph(4), circuit_graph(4), complete_graph(4)])
def test_special_value_reductions(g):
    # the walk's own decode, so the s=0 line does not test Z against itself
    z = z_poly(g)
    zf = zero_field_by_walk(g)
    assert z.substitute(w=1) == zf
    assert z.substitute(s=0) == zf
    assert z.substitute(w=0) == zf.substitute(q=QT)
    assert z.substitute(s=Q) == W ** g.n * zf
    assert z.substitute(v=-1) == ph_poly(g)


def test_ph_of_looped_graph_vanishes():
    assert ph_poly(circuit_graph(1)).is_zero()
    z = z_poly(circuit_graph(1))
    assert z == (V + 1) * (QT + S * W)


# -- direct coloring oracle ----------------------------------------------------

def test_count_table_row_sums():
    g = circuit_graph(4)
    table = oracle_count_table(g, 3, 1)
    assert sum(sum(row) for row in table) == 3 ** 4
    # k-state zero-field check: colorings with zero monochromatic edges
    assert sum(table[0]) == chromatic_poly(g).evaluate(q=3)


@pytest.mark.parametrize("name,g", [
    ("line4", line_graph(4)),
    ("circuit5", circuit_graph(5)),
    ("star5", star_graph(5)),
    ("k4", complete_graph(4)),
    ("c4d", square_with_diagonal()),
])
def test_oracle_equals_engine_as_vw_polynomial(name, g):
    z = z_poly(g)
    for q in range(4):
        for s in range(q + 1):
            assert oracle_z(g, q, s, V, W) == z.substitute(q=q, s=s)


def test_oracle_accepts_fractions_and_floats():
    g = line_graph(3)
    z = z_poly(g)
    val = oracle_z(g, 3, 2, Fraction(-1, 3), Fraction(5, 7))
    assert val == z.evaluate(q=3, s=2, v=Fraction(-1, 3), w=Fraction(5, 7))
    approx = oracle_z(g, 3, 2, -0.5, 0.25)
    assert approx == pytest.approx(z.evaluate(q=3, s=2, v=-0.5, w=0.25))


def test_oracle_ph_counts_proper_colorings():
    g = complete_graph(3)
    # q=3, s=1: 6 proper colorings; each uses the distinguished color once
    assert oracle_ph(g, 3, 1, W) == 6 * W
    assert oracle_ph(g, 2, 1, W) == 0


@st.composite
def relabeled_multigraphs(draw):
    """A multigraph with loops, parallel edges and isolated vertices, and
    the same graph under a random relabeling and edge order."""
    n = draw(st.integers(0, 5))
    ends = st.integers(0, n - 1) if n else st.nothing()
    edges = draw(st.lists(st.tuples(ends, ends), max_size=7 if n else 0))
    perm = draw(st.permutations(range(n)))
    moved = draw(st.permutations([(perm[u], perm[v]) for u, v in edges]))
    return Graph.make(n, edges), Graph.make(n, moved)


def brute_count_table(g: Graph, q: int, s: int) -> list[list[int]]:
    table = [[0] * (g.n + 1) for _ in range(g.e + 1)]
    for colors in itertools.product(range(q), repeat=g.n):
        m = sum(colors[u] == colors[v] for u, v in g.edges)
        table[m][sum(c < s for c in colors)] += 1
    return table


@given(relabeled_multigraphs(), st.integers(0, 3))
@example((Graph.make(0, []), Graph.make(0, [])), 2)
@example((Graph.make(3, [(0, 0), (0, 1), (0, 1), (2, 2)]),
          Graph.make(3, [(1, 2), (0, 0), (1, 1), (1, 2)])), 3)
@settings(max_examples=60, deadline=None)
def test_oracle_table_matches_brute_force(pair, q):
    g, moved = pair
    for s in range(q + 1):
        want = brute_count_table(g, q, s)
        assert oracle_count_table(g, q, s) == want
        assert oracle_count_table(moved, q, s) == want


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 5))
    max_edges = n * (n - 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=min(max_edges, 7)))
    return Graph.make(n, chosen)


@given(small_graphs(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_engine_vs_oracle_on_random_graphs(g, q):
    z = z_poly(g)
    for s in range(q + 1):
        assert oracle_z(g, q, s, V, W) == z.substitute(q=q, s=s)


# -- layer decompositions ------------------------------------------------------

def test_beta_layers_reassemble():
    g = square_with_diagonal()
    z = z_poly(g)
    beta = layers(z, "w", g.n)
    assert len(beta) == g.n + 1
    rebuilt = MultiPoly.zero()
    for j, layer in enumerate(beta):
        rebuilt = rebuilt + layer * W ** j
    assert rebuilt == z


def test_alpha_layers_reassemble_and_are_monic():
    g = circuit_graph(4)
    ph = ph_poly(g)
    alpha = layers(ph, "q", g.n)
    rebuilt = MultiPoly.zero()
    for j, layer in enumerate(alpha):
        rebuilt = rebuilt + layer * Q ** j
    assert rebuilt == ph
    assert alpha[g.n] == ONE


def test_layer_extraction_rejects_degree_overflow():
    with pytest.raises(BadDecompositionError):
        layers(W ** 3, "w", 2)


# -- classical specializations -------------------------------------------------

def test_chromatic_polynomials():
    assert chromatic_poly(circuit_graph(4)) == (Q - 1) ** 4 + (Q - 1)
    assert chromatic_poly(line_graph(4)) == Q * (Q - 1) ** 3
    k4 = chromatic_poly(complete_graph(4))
    assert k4 == Q * (Q - 1) * (Q - 2) * (Q - 3)


def test_chromatic_number():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(circuit_graph(5)) == 3
    assert chromatic_number(circuit_graph(6)) == 2
    assert chromatic_number(null_graph(3)) == 1
    with pytest.raises(LoopyGraphError):
        chromatic_number(circuit_graph(1))


def test_tutte_polynomial_values():
    X = MultiPoly.var("q")  # slot 0 doubles as x
    Y = MultiPoly.var("s")  # slot 1 doubles as y
    assert tutte_poly(circuit_graph(3)) == X ** 2 + X + Y
    assert tutte_poly(line_graph(4)) == X ** 3
    # duality partner check via known K4 form
    assert tutte_poly(complete_graph(4)) == (X ** 3 + 3 * X ** 2 + 2 * X
                                             + 4 * X * Y + 2 * Y + 3 * Y ** 2
                                             + Y ** 3)


@pytest.mark.parametrize("g", [circuit_graph(3), complete_graph(4),
                               square_with_diagonal()])
def test_tutte_recovers_zero_field_partition_sum(g):
    """q^k v^{n-k} T((q+v)/v, v+1) equals the v-weighted subgraph sum."""
    t = tutte_poly(g)
    for q in (2, 3, 5):
        for v in (Fraction(1, 2), Fraction(-3), Fraction(2)):
            x = (q + v) / v
            y = v + 1
            k = g.component_count()
            direct = zero_field_poly(g).evaluate(q=q, v=v)
            via_tutte = (Fraction(q) ** k * v ** (g.n - k)
                         * t.evaluate(q=x, s=y, v=0, w=0))
            assert direct == via_tutte


# -- the slices of Z against the walk's own decode -------------------------------

def tutte_from_walk(g: Graph, zf: MultiPoly) -> MultiPoly:
    """sum a_km (x-1)^(k-k(G)) (y-1)^(m+k-n), a_km the count of subgraphs
    with k components and m edges in the walk's decode ``zf``, in
    polynomial arithmetic."""
    x1, y1 = MultiPoly.var("q") - 1, MultiPoly.var("s") - 1
    k_whole = g.component_count()
    total = MultiPoly.zero()
    for (k, _, m, _), c in zf.terms.items():
        total = total + c * x1 ** (k - k_whole) * y1 ** (m + k - g.n)
    return total


def assert_slices_match_walk(g: Graph) -> None:
    zf = zero_field_by_walk(g)
    assert zero_field_poly(g, workers=1) == zf
    assert zero_field_poly(g, workers=2) == zf
    assert chromatic_poly(g) == zf.substitute(v=-1)
    assert tutte_poly(g) == tutte_from_walk(g, zf)


def test_slices_match_walk_on_catalog(catalog):
    for g in catalog.values():
        assert_slices_match_walk(g)


@given(multigraphs())
@example(Graph.make(2, [(0, 0), (0, 1)]))  # a loop: P = 0
@example(Graph.make(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)]))
@example(Graph.make(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))  # k(G) = 2
@example(Graph.make(6, [(0, 1), (1, 2), (2, 0), (3, 4), (3, 4), (4, 4)]))
@settings(max_examples=30, deadline=None)
def test_slices_match_walk_on_multigraphs(g):
    assert_slices_match_walk(g)


@pytest.mark.parametrize("g", [grid_graph(2, 5), circuit_graph(14),
                               grid_graph(2, 7)], ids=["sq2x5", "C14", "sq2x7"])
def test_slices_match_walk_on_frontier_graphs(g):
    assert frontier.plan(g) is not None  # Z comes from the frontier engine
    assert_slices_match_walk(g)


# -- resource guards -----------------------------------------------------------

def test_edge_cap_guards_engine():
    with pytest.raises(CapExceededError):
        z_poly(complete_graph(9))  # 36 edges > default cap of 30


def test_edge_cap_env_override():
    os.environ["CHROMFIELD_EDGE_CAP"] = "3"
    try:
        with pytest.raises(CapExceededError):
            z_poly(complete_graph(4))
    finally:
        del os.environ["CHROMFIELD_EDGE_CAP"]
    assert z_poly(complete_graph(4)) is not None


def test_walk_refuses_more_edges_than_its_key_packing(monkeypatch):
    # the walk keeps its edge count in 6 bits; 64 would spill into the key
    monkeypatch.setenv("CHROMFIELD_EDGE_CAP", "100")
    g = Graph.make(2, [(0, 1)] * 64)
    with pytest.raises(CapExceededError):
        subgraph_counts(g)
    with pytest.raises(CapExceededError):
        zero_field_by_walk(g)
    # Z itself runs on the frontier engine, which packs no edge counts
    assert zero_field_poly(g) == Q ** 2 + Q * ((ONE + V) ** 64 - 1)


def test_oracle_state_cap():
    # K12 at q = 5: every colored vertex waits for the last one, so the
    # transfer holds 5^0 + ... + 5^11 = 61 035 156 states in all
    with pytest.raises(CapExceededError):
        oracle_count_table(complete_graph(12), 5, 1)


def test_oracle_cap_counts_transfer_work_not_colorings(monkeypatch):
    # 4^12 colorings, but no vertex ever waits: one state per step, each
    # tried with 4 colors, 48 steps in all
    table = oracle_count_table(null_graph(12), 4, 1)
    assert table[0] == [math.comb(12, k) * 3 ** (12 - k) for k in range(13)]
    monkeypatch.setenv("CHROMFIELD_ORACLE_CAP", "47")
    with pytest.raises(CapExceededError):
        oracle_count_table(null_graph(12), 4, 1)


def test_oracle_vertex_cap():
    # planning tries every start vertex at O(n^2) each, so 2000 isolated
    # vertices would plan for minutes while the work cap sees 4000 steps;
    # the vertex cap refuses them before any order or table is built
    with time_limit(10):
        with pytest.raises(CapExceededError):
            oracle_count_table(null_graph(2000), 2, 1)
        table = oracle_count_table(null_graph(DEFAULT_VERTEX_CAP), 2, 1)
    assert table == [[math.comb(DEFAULT_VERTEX_CAP, k)
                      for k in range(DEFAULT_VERTEX_CAP + 1)]]


def test_oracle_refuses_before_planning_in_full():
    # K60 holds 2^59 states at its widest; the planner gives up on each
    # start once its work passes the cap, instead of planning all 60
    with time_limit(10):
        with pytest.raises(CapExceededError,
                           match="transfer work .* exceeds the oracle cap"
                           ".*CHROMFIELD_ORACLE_CAP"):
            oracle_count_table(complete_graph(DEFAULT_VERTEX_CAP), 2, 1)


@pytest.mark.parametrize("g, q", [
    (null_graph(1), 10 ** 9),  # one state, but 10^9 colors tried on it
    (line_graph(2), 10 ** 6),  # 10^6 + 1 states, each tried with 10^6 colors
])
def test_oracle_cap_counts_colors_tried(g, q):
    # refused before any state is built: the run would not fit the test
    with time_limit(10):
        with pytest.raises(CapExceededError):
            oracle_count_table(g, q, 0)
