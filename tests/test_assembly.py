"""Z's packed assembly against the qt-basis path it replaced.

All three engines sum Z in the basis qt = q - s in one packed layout,
``frontier.Packing``, which turns it into (q, s, v, w) by a Horner pass
per key.  Before that, the walk and the subset sum expanded each
component-size multiset into a dict of qt-basis terms, the transfer
unpacked its packed ints into such a dict, and every qt^a was expanded
binomially.  That path is kept here, unchanged, as the reference: the
walk's counts, the subset sum's counts and the transfer in any vertex
order must all assemble to the Z it gives, down to the widest slots --
the null graphs up to the vertex cap and 63 loops on one vertex.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromfield import frontier
from chromfield.graphs import Graph
from chromfield.partition import (_CNT_BITS, _CNT_MASK, DEFAULT_VERTEX_CAP,
                                  _counts_to_z, _decode_multiset,
                                  _subset_counts, subgraph_counts)
from chromfield.poly import ONE, Q, S, V, W, MultiPoly

QT = Q - S


def reference_multiset_product(sizes) -> dict[tuple[int, int, int], int]:
    """Expand prod (qt + s*w^sz)^cnt as {(qt_exp, s_exp, w_exp): coeff}."""
    prod = {(0, 0, 0): 1}
    for sz, cnt in sizes:
        factor = {}
        for r in range(cnt + 1):
            factor[(cnt - r, r, r * sz)] = math.comb(cnt, r)
        nxt: dict[tuple[int, int, int], int] = {}
        for (a1, s1, w1), c1 in prod.items():
            for (a2, s2, w2), c2 in factor.items():
                k = (a1 + a2, s1 + s2, w1 + w2)
                nxt[k] = nxt.get(k, 0) + c1 * c2
        prod = nxt
    return prod


def reference_counts_to_qt(counts: dict[int, int], n: int) -> dict:
    """Subgraph counters as {(qt, s, v, w) exponents: coefficient}."""
    acc: dict[tuple[int, int, int, int], int] = {}
    for pk, mult in counts.items():
        prod = reference_multiset_product(_decode_multiset(pk >> _CNT_BITS, n))
        for (a, se, we), c in prod.items():
            k = (a, se, pk & _CNT_MASK, we)
            acc[k] = acc.get(k, 0) + mult * c
    return acc


def reference_unpack(packed: dict[int, int], pack: frontier.Packing) -> dict:
    """The transfer's packed terms as {(qt, s, v, w) exponents: count}:
    one row of slots per s exponent, zero slots skipped, qt's exponent
    being the closed blocks less the s exponent."""
    bits, width, row = pack.bits, pack.width, pack.row
    mask = (1 << bits) - 1
    field, row_field = (1 << width) - 1, (1 << row) - 1
    out = {}
    for key, c in packed.items():
        k, ve = key & mask, key >> bits
        se = 0
        while c:
            r = c & row_field
            while r:
                at = (r & -r).bit_length() - 1
                at -= at % width
                part = (r >> at) & field
                out[k - se, se, ve, at // width] = part
                r ^= part << at
            c >>= row
            se += 1
    return out


def reference_qt_to_z(acc: dict) -> MultiPoly:
    """Z from its (qt, s, v, w) coefficients: one binomial pass
    qt^a -> sum_r C(a, r) q^r (-s)^(a-r)."""
    out: dict[tuple[int, int, int, int], int] = {}
    for (a, se, ve, we), c in acc.items():
        for r in range(a + 1):
            k = (r, se + a - r, ve, we)
            out[k] = out.get(k, 0) + c * math.comb(a, r) * (-1) ** (a - r)
    return MultiPoly({k: c for k, c in out.items() if c})


def assert_every_route_gives(g: Graph, order, want: MultiPoly) -> None:
    counts = subgraph_counts(g)
    assert reference_qt_to_z(reference_counts_to_qt(counts, g.n)) == want
    assert _counts_to_z(counts, g.n) == want
    assert _counts_to_z(_subset_counts(g), g.n) == want
    steps = frontier.transfer_steps(g, order)
    assert frontier.transfer_z(g, steps) == want
    pack = frontier.Packing(g.n, g.e)
    packed = frontier.transfer_packed(g, steps, pack)
    assert reference_qt_to_z(reference_unpack(packed, pack)) == want


@st.composite
def multigraphs(draw):
    """Up to 7 vertices and 12 edges, loops and parallel edges allowed and
    vertices left isolated, with a random vertex order."""
    n = draw(st.integers(0, 7))
    ends = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12)) if n else []
    return Graph.make(n, edges), draw(st.permutations(range(n)))


@given(multigraphs())
@example((Graph.make(5, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)]),
          [2, 4, 0, 3, 1]))
@settings(max_examples=80, deadline=None)
def test_every_route_assembles_the_reference_z(case):
    g, order = case
    want = reference_qt_to_z(reference_counts_to_qt(subgraph_counts(g), g.n))
    assert_every_route_gives(g, order, want)


def test_null_graphs_up_to_the_vertex_cap():
    # N_60 fills the widest slots a graph can have: (q - s + s w)^60 has
    # coefficients near 3^60
    want = ONE
    for n in range(DEFAULT_VERTEX_CAP + 1):
        assert_every_route_gives(Graph.make(n, []), range(n), want)
        want *= QT + S * W


def test_sixty_three_loops_on_one_vertex(monkeypatch):
    # the most edges the walk packs: slots of bitlen(3 * 2^63) + 2 bits
    monkeypatch.setenv("CHROMFIELD_EDGE_CAP", "63")
    g = Graph.make(1, [(0, 0)] * 63)
    assert frontier.Packing(1, 63).width == 67
    want = (QT + S * W) * (1 + V) ** 63
    counts = subgraph_counts(g)
    assert reference_qt_to_z(reference_counts_to_qt(counts, 1)) == want
    assert _counts_to_z(counts, 1) == want
    assert frontier.transfer_z(g, frontier.transfer_steps(g, [0])) == want


def test_slots_hold_the_coefficient_bound():
    # 2^e 3^n bounds every coefficient of Z, and slots keep two bits above
    # it (54 on C20).  Here every slot of a key holds a count whose Z
    # coefficients come within a factor 2 of that bound, with signs
    # alternating along each row and from row to row
    assert frontier.Packing(20, 20).width == 54
    for n, e in ((1, 0), (2, 3), (3, 1), (4, 5), (6, 2)):
        pack = frontier.Packing(n, e)
        bound = 3 ** n << e
        assert bound < 1 << (pack.width - 2)
        for k in range(1, n + 1):
            a = bound // math.comb(k, k // 2)
            packed = sum(a << d % 2 * pack.row + d * pack.width for d in range(n + 1))
            want = sum((a * QT ** (k - d % 2) * S ** (d % 2) * W ** d * V ** e
                        for d in range(n + 1)), MultiPoly.zero())
            assert max(map(abs, want.terms.values())) * 2 > bound
            assert pack.z({pack.key(k, e): packed}) == want, (n, e, k)
