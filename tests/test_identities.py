"""Structural identities of the field-dependent partition sum.

Covers the s <-> q-s reflection, the collapse slices, the w- and q-layer
theorems, the failure modes of deletion-contraction and of the
complete-separator quotient (with their exact deviation values on small
graphs), cycle scaling, and the bipartite lower bounds.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromfield import identities, partition
from chromfield.errors import PreconditionUnmetError
from chromfield.graphs import (Graph, circuit_graph, complete_graph,
                               grid_graph, line_graph, null_graph,
                               square_with_diagonal, star_graph)
from chromfield.identities import (alpha_layer_report, alpha_magnitude_profile,
                                   alpha_sign_report, beta_chromatic_products,
                                   beta_layer_report, bipartite_lower_bounds,
                                   chromatic_equivalent_check, cycle_deviation,
                                   dcr_deviation, has_dcr_factor,
                                   has_kit_factor, has_tutte_difference_factor,
                                   MinorMemo, identity_suite, is_unimodal,
                                   kit_deviation,
                                   multi_edge_invariance, one_color_values,
                                   reduction_deviations, symmetry_deviation,
                                   tutte_equivalent_difference, z_line_subtop)
from chromfield.partition import (chromatic_poly, oracle_ph, ph_poly, z_poly,
                                  zero_field_by_walk)
from chromfield.poly import Q, S, V, W, MultiPoly, RationalExpr

QT = Q - S


# -- reflection and collapse slices --------------------------------------------

@pytest.mark.parametrize("name", ["line4", "circuit5", "star5", "k4", "c4d",
                                  "null3", "circuit2"])
def test_reflection_symmetry(name, catalog, z_cache):
    assert symmetry_deviation(z_cache[name], catalog[name].n).is_zero()


@pytest.mark.parametrize("name", ["line3", "circuit4", "k4", "c4d"])
def test_reductions_collapse(name, catalog, z_cache):
    g = catalog[name]
    devs = reduction_deviations(g, z_cache[name], zero_field_by_walk(g))
    assert set(devs) == {"w=1", "s=0", "w=0", "s=q"}
    for slice_name, dev in devs.items():
        assert dev.is_zero(), slice_name


@pytest.mark.parametrize("name", ["line4", "circuit3", "k4", "null4"])
def test_one_color_closed_forms(name, catalog, z_cache):
    for slice_name, dev in one_color_values(catalog[name], z_cache[name]).items():
        assert dev.is_zero(), slice_name


# -- layer theorems ------------------------------------------------------------

@pytest.mark.parametrize("name", ["line4", "circuit5", "star6", "k4", "c4d",
                                  "null4", "circuit2"])
def test_beta_layer_theorems(name, catalog, z_cache):
    g = catalog[name]
    failures = beta_layer_report(g, z_cache[name], zero_field_by_walk(g))
    assert not failures, failures


def test_beta_layer_report_sees_a_wrong_first_layer():
    # one monomial q*w breaks s | beta_1, the lowest layer s must divide
    z = z_poly(line_graph(3)) + MultiPoly.monomial((1, 0, 0, 1))
    failures = beta_layer_report(line_graph(3), z,
                                 zero_field_by_walk(line_graph(3)))
    assert "s does not divide beta_1" in failures


@pytest.mark.parametrize("name", ["line4", "circuit5", "star6", "k4", "c4d"])
def test_beta_chromatic_factorization(name, catalog, ph_cache):
    g = catalog[name]
    failures = beta_chromatic_products(g, ph_cache[name], chromatic_poly(g))
    assert not failures, failures


@pytest.mark.parametrize("name", ["line4", "circuit5", "star6", "k4", "c4d"])
def test_alpha_layer_theorems(name, catalog, ph_cache):
    failures = alpha_layer_report(catalog[name], ph_cache[name])
    assert not failures, failures


def test_line_subtop_layer(z_cache):
    for n in (2, 3, 4, 5, 6):
        assert z_line_subtop(z_cache[f"line{n}"], n)


def test_alpha_sign_alternation_samples(catalog, ph_cache):
    for name in ("line4", "circuit5", "k4", "c4d"):
        g = catalog[name]
        for s_val, w_val in [(1, Fraction(1, 3)), (2, Fraction(9, 10)),
                             (0, Fraction(1, 2)), (3, Fraction(0))]:
            failures = alpha_sign_report(ph_cache[name], g.n, s_val, w_val)
            assert not failures, (name, s_val, w_val, failures)


def test_alpha_sign_outside_window_rejected(ph_cache):
    with pytest.raises(PreconditionUnmetError):
        alpha_sign_report(ph_cache["line3"], 3, 1, Fraction(3, 2))


def test_unimodality_helper():
    assert is_unimodal([1, 3, 3, 2])
    assert is_unimodal([5, 4, 1])
    assert not is_unimodal([1, 3, 2, 4])
    profile = alpha_magnitude_profile(ph_poly(circuit_graph(5)), 5,
                                      2, Fraction(1, 2))
    assert len(profile) == 6
    assert all(x >= 0 for x in profile)


# -- deletion-contraction deviation --------------------------------------------

def test_dcr_deviation_two_site_path():
    dev = dcr_deviation(line_graph(2), 0)
    assert dev == S * V * W * (W - 1)


def test_dcr_deviation_three_site_path_any_edge():
    expected = S * V * W * (W - 1) * (S * (W - 1) + W * V + Q)
    for idx in (0, 1):
        assert dcr_deviation(line_graph(3), idx) == expected


def test_dcr_deviation_triangle_any_edge():
    expected = S * V * W * (W - 1) * (W * V ** 2 + 2 * W * V
                                      + S * (W - 1) + Q)
    for idx in (0, 1, 2):
        assert dcr_deviation(circuit_graph(3), idx) == expected


@pytest.mark.parametrize("g", [line_graph(4), circuit_graph(4),
                               complete_graph(4), square_with_diagonal(),
                               star_graph(5), grid_graph(2, 3)])
def test_dcr_factor_on_every_edge(g):
    for idx in range(g.e):
        assert has_dcr_factor(dcr_deviation(g, idx))


def test_dcr_deviation_vanishes_at_collapse_slices():
    dev = dcr_deviation(circuit_graph(4), 0)
    assert dev.substitute(w=1).is_zero()
    assert dev.substitute(s=0).is_zero()
    assert dev.substitute(v=0).is_zero()
    assert dev.substitute(w=0).is_zero()


# -- minors up to isomorphism --------------------------------------------------

K33 = Graph.make(6, [(i, j) for i in range(3) for j in range(3, 6)])
PRISM = Graph.make(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (0, 3), (1, 4), (2, 5)])


def test_memo_hit_needs_a_vertex_map():
    # K3,3 and the triangular prism are both 3-regular on six vertices, so
    # they share the invariant key, but they are not isomorphic: a cache
    # keyed on the invariant alone would hand the prism K3,3's Z
    assert identities._shape(K33)[0] == identities._shape(PRISM)[0]
    assert z_poly(K33) != z_poly(PRISM)
    memo = MinorMemo()
    assert memo.classify(K33) != memo.classify(PRISM)
    assert memo.z[memo.classify(K33)] == z_poly(K33)
    assert memo.z[memo.classify(PRISM)] == z_poly(PRISM)
    # a hit rests on a map that carries one edge multiset onto the other
    swap = [0, 1, 3, 2, 4, 5]
    moved = Graph.make(6, [(swap[u], swap[v]) for u, v in K33.edges])
    assert memo.classify(moved) == memo.classify(K33)
    _, ca, adja = identities._shape(K33)
    _, cb, adjb = identities._shape(moved)
    image = identities._vertex_map(ca, adja, cb, adjb, 100)
    assert sorted(Graph.make(6, [(image[u], image[v])
                                 for u, v in K33.edges]).edges) \
        == sorted(moved.edges)


@st.composite
def relabeled_multigraphs(draw):
    """A multigraph with loops, parallel edges and isolated vertices, and
    the same graph under a random relabeling; edge j of one is edge j of
    the other."""
    n = draw(st.integers(0, 6))
    ends = st.integers(0, n - 1) if n else st.nothing()
    edges = draw(st.lists(st.tuples(ends, ends), max_size=8 if n else 0))
    perm = draw(st.permutations(range(n)))
    return (Graph.make(n, edges),
            Graph.make(n, [(perm[u], perm[v]) for u, v in edges]))


@given(relabeled_multigraphs())
@settings(max_examples=60, deadline=None)
def test_memo_z_is_z_of_each_minor(pair):
    g, moved = pair
    memo = MinorMemo()
    for idx in range(g.e):
        for minor in (Graph.delete_edge, Graph.contract_edge):
            a, b = minor(g, idx), minor(moved, idx)
            assert memo.z[memo.classify(a)] == z_poly(a)
            assert memo.z[memo.classify(b)] == z_poly(b)
            # six vertices never exhaust the search budget, so the
            # relabeled copy always joins its original's class
            assert memo.classify(a) == memo.classify(b)


# -- complete-separator quotient deviation -------------------------------------

def test_kit_deviation_three_site_path():
    dev = kit_deviation(line_graph(3), [0, 1], [1, 2])
    expected = RationalExpr(S * QT * W * (W - 1) ** 2, Q + S * (W - 1))
    assert dev.equals(expected)
    assert has_kit_factor(dev)


def test_kit_deviation_four_site_path():
    dev = kit_deviation(line_graph(4), [0, 1, 2], [2, 3])
    expected = RationalExpr(
        S * QT * W * (W - 1) ** 2 * (Q + S * (W - 1) - (W + 1)),
        Q + S * (W - 1))
    assert dev.equals(expected)
    assert has_kit_factor(dev)


def test_kit_deviation_braced_square():
    g = square_with_diagonal()
    dev = kit_deviation(g, [0, 1, 2], [0, 2, 3])
    ph_k2 = ph_poly(complete_graph(2))
    expected = RationalExpr(
        2 * S * QT * W * (W - 1) ** 2 * (ph_k2 - 2 * (Q - 1) * W), ph_k2)
    assert dev.equals(expected)
    assert has_kit_factor(dev)


def test_kit_quotient_exact_at_zero_field_slices():
    dev = kit_deviation(line_graph(3), [0, 1], [1, 2])
    # numerator vanishes when w = 1 or s = 0 (plain chromatic quotient holds)
    assert dev.num.substitute(w=1).is_zero()
    assert dev.num.substitute(s=0).is_zero()


def test_kit_rejects_bad_decompositions():
    g = square_with_diagonal()
    with pytest.raises(PreconditionUnmetError):
        kit_deviation(g, [0, 1], [2, 3])  # edges cross the split
    with pytest.raises(PreconditionUnmetError):
        # separator {0, 2} of the plain square induces no edge
        kit_deviation(circuit_graph(4), [0, 1, 2], [2, 3, 0])
    with pytest.raises(PreconditionUnmetError):
        kit_deviation(g, [0, 1, 2], [2, 3])  # edge (0,3) crosses


# -- graphs sharing a zero-field sum -------------------------------------------

def test_star_minus_line_difference():
    diff = tutte_equivalent_difference(star_graph(4), line_graph(4))
    assert diff == S * QT * V ** 2 * W * (W - 1) ** 2
    assert has_tutte_difference_factor(diff)
    ph_diff = ph_poly(star_graph(4)) - ph_poly(line_graph(4))
    assert ph_diff == S * QT * W * (W - 1) ** 2


def test_doubled_edge_versus_single_edge():
    diff = z_poly(circuit_graph(2)) - z_poly(line_graph(2))
    assert diff == V * (V + 1) * (QT + S * W ** 2)
    # at v = -1 the difference dies: Ph ignores edge multiplicity
    assert diff.substitute(v=-1).is_zero()


def test_tutte_difference_requires_equivalence():
    with pytest.raises(PreconditionUnmetError):
        tutte_equivalent_difference(line_graph(3), circuit_graph(3))


def test_multi_edge_invariance():
    doubled = Graph.make(3, [(0, 1), (0, 1), (1, 2)])
    assert multi_edge_invariance(doubled, ph_poly(doubled))
    assert multi_edge_invariance(circuit_graph(2), ph_poly(circuit_graph(2)))


def test_chromatically_equivalent_pairs_vanish_at_one_color():
    # trees on 4 vertices share P(q) = q (q-1)^3
    assert chromatic_equivalent_check(line_graph(4), star_graph(4))
    with pytest.raises(PreconditionUnmetError):
        chromatic_equivalent_check(line_graph(3), circuit_graph(3))


# -- cycle scaling -------------------------------------------------------------

@pytest.mark.parametrize("name", ["line4", "star5", "null3", "line6"])
def test_forest_scaling_is_exact(name, catalog, z_cache):
    dev = cycle_deviation(z_cache[name], catalog[name].n)
    assert dev.num.is_zero()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_single_cycle_scaling_defect(n, z_cache):
    dev = cycle_deviation(z_cache[f"circuit{n}"], n)
    expected = RationalExpr((S - 1) * (QT + S * W ** n) * V ** n, S)
    assert dev.equals(expected)


# -- bipartite lower bounds ----------------------------------------------------

def grid_points():
    for q in (2, 3, 4):
        for s in range(q + 1):
            for w in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2),
                      Fraction(7, 2)):
                yield q, s, w


@pytest.mark.parametrize("g", [circuit_graph(4), circuit_graph(6),
                               star_graph(5)])
def test_bipartite_bounds_hold(g):
    for q, s, w in grid_points():
        value = oracle_ph(g, q, s, w)
        checks = bipartite_lower_bounds(g, q, s, w, value)
        assert {c.name for c in checks} == {"uniform-color", "inside-set",
                                            "outside-set", "split-set"}
        for c in checks:
            if c.applicable:
                assert c.holds, (g.name, q, s, w, c)


@pytest.mark.parametrize("q, s, w, applicable", [
    (4, 2, Fraction(1), {"uniform-color", "split-set"}),
    (3, 2, Fraction(1, 2), {"split-set"}),
    (4, 2, Fraction(1, 2), {"outside-set", "split-set"}),
    (3, 1, Fraction(2), {"split-set"}),
    (3, 2, Fraction(2), {"inside-set", "split-set"}),
    (2, 2, Fraction(2), {"inside-set"}),
])
def test_bipartite_bound_windows_at_their_edges(q, s, w, applicable):
    # each window's edge: w = 1 opens neither inside-set nor outside-set,
    # outside-set wants q >= s + 2 and inside-set 2 <= s <= q
    g = circuit_graph(4)
    checks = bipartite_lower_bounds(g, q, s, w, oracle_ph(g, q, s, w))
    assert {c.name for c in checks if c.applicable} == applicable


def test_bounds_reject_odd_cycles():
    with pytest.raises(PreconditionUnmetError):
        bipartite_lower_bounds(circuit_graph(5), 3, 1, Fraction(1), Fraction(6))


# -- negative controls ---------------------------------------------------------
# The tests above hand every check a true polynomial, which satisfies every
# theorem, so a check that stopped checking would still pass them.  Here
# each check behind a verdict family of identity_suite gets a Z, zero-field
# sum or Ph changed by one monomial and must report it.

def test_reflection_symmetry_sees_one_monomial(z_cache):
    # on three vertices q*w reflects to q*w^2, which is not added with it
    assert not symmetry_deviation(z_cache["line3"] + Q * W, 3).is_zero()


@pytest.mark.parametrize("changed", ["z", "zf"])
def test_reductions_see_one_monomial(changed, catalog, z_cache):
    g = catalog["circuit4"]
    z, zf = z_cache["circuit4"], zero_field_by_walk(g)
    devs = (reduction_deviations(g, z + Q, zf) if changed == "z"
            else reduction_deviations(g, z, zf + Q))
    assert [name for name, dev in devs.items() if dev.is_zero()] == []


def test_one_color_values_see_one_monomial(catalog, z_cache):
    devs = one_color_values(catalog["circuit4"], z_cache["circuit4"] + Q)
    assert [name for name, dev in devs.items() if dev.is_zero()] == []


def test_beta_layer_report_sees_a_wrong_zero_field_sum(catalog, z_cache):
    g = catalog["circuit4"]
    failures = beta_layer_report(g, z_cache["circuit4"],
                                 zero_field_by_walk(g) + Q)
    assert failures == ["beta_0 != Z(G, q-s, v)", "beta_n != Z(G, s, v)"]


@pytest.mark.parametrize("extra, failure", [
    (W ** 4, "prod_(j<4) (s-j) does not divide beta_n"),
    (Q ** 4, "prod_(j<4) (q-s-j) does not divide beta_0"),
])
def test_beta_chromatic_products_see_one_monomial(extra, failure, catalog,
                                                  ph_cache):
    g = catalog["k4"]
    assert beta_chromatic_products(g, ph_cache["k4"] + extra,
                                   chromatic_poly(g)) == [failure]


@pytest.mark.parametrize("extra, failure", [
    (Q ** 4, "alpha_n != 1"),
    (Q ** 3, "alpha_{n-1} != n*s*(w-1) - e(distinct)"),
    (S, "s*(w-1) does not divide alpha_0"),
])
def test_alpha_layer_report_sees_one_monomial(extra, failure, catalog,
                                              ph_cache):
    assert alpha_layer_report(catalog["k4"], ph_cache["k4"] + extra) \
        == [failure]


def test_multi_edge_invariance_sees_one_monomial():
    doubled = Graph.make(3, [(0, 1), (0, 1), (1, 2)])
    assert not multi_edge_invariance(doubled, ph_poly(doubled) + Q)


def test_dcr_factor_sees_one_monomial():
    # the suite's defect, Z(G) - [Z(G-e) + v Z(G/e)], with q added to Z(G)
    g = line_graph(3)
    minors = z_poly(g.delete_edge(0)) + V * z_poly(g.contract_edge(0))
    assert has_dcr_factor(z_poly(g) - minors)
    assert not has_dcr_factor(z_poly(g) + Q - minors)


def test_forest_scaling_sees_one_monomial(z_cache):
    assert not cycle_deviation(z_cache["line4"] + Q, 4).num.is_zero()


def test_beta_layer_report_sees_q_in_the_top_layer(catalog, z_cache):
    g = catalog["line3"]
    failures = beta_layer_report(g, z_cache["line3"] + Q * W ** 3,
                                 zero_field_by_walk(g))
    assert "beta_n involves q" in failures


def test_alpha_sign_report_sees_one_monomial(ph_cache):
    # -2 q^4 turns alpha_n = 1 into -1
    assert alpha_sign_report(ph_cache["k4"] - 2 * Q ** 4, 4, 1,
                             Fraction(1, 3)) == ["alpha_(n-0) = -1 has sign != 1"]


def test_kit_factor_sees_one_monomial():
    dev = kit_deviation(line_graph(3), [0, 1], [1, 2])
    assert has_kit_factor(dev)
    # s no longer divides the numerator
    assert not has_kit_factor(RationalExpr(dev.num + Q, dev.den))
    # w divides the denominator
    assert not has_kit_factor(RationalExpr(dev.num, dev.den * W))


# -- bundled suite -------------------------------------------------------------

@pytest.mark.parametrize("name", ["line3", "circuit4", "k4", "c4d", "star4"])
def test_identity_suite_all_hold(name, catalog):
    verdicts = identity_suite(catalog[name])
    failing = [v.name for v in verdicts if not v.holds]
    assert not failing, failing
    names = [v.name for v in verdicts]
    assert "reflection-symmetry" in names
    assert any(n.startswith("dcr-factor") for n in names)


# identity_suite's verdicts (name, order, holds) on the catalog and four
# more graphs, recorded before the suite reused its engine results
RECORDED_VERDICTS = Path(__file__).parent / "fixtures" / "identity_verdicts.json"
EXTRA_GRAPHS = {
    "k5": complete_graph(5),
    "sq3x3": grid_graph(3, 3),
    "sq2x5": grid_graph(2, 5),
    "loopy": Graph.make(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)]),
}


def test_identity_suite_verdicts_unchanged(catalog):
    recorded = json.loads(RECORDED_VERDICTS.read_text())
    graphs = {**catalog, **EXTRA_GRAPHS}
    assert set(recorded) == set(graphs)
    for name, g in graphs.items():
        got = [[v.name, v.holds] for v in identity_suite(g)]
        assert got == recorded[name], name


def test_identity_suite_same_verdicts_without_matches(monkeypatch):
    graphs = {**EXTRA_GRAPHS, "k4": complete_graph(4), "k33": K33,
              "prism": PRISM}
    recorded = {name: [(v.name, v.holds) for v in identity_suite(g)]
                for name, g in graphs.items()}
    monkeypatch.setattr(identities, "_MATCH_NODES", 0)
    # with no search node to spend, even a relabeled copy starts a class
    swap = [0, 1, 3, 2, 4, 5]
    memo = MinorMemo()
    memo.classify(K33)
    assert memo.classify(Graph.make(6, [(swap[u], swap[v])
                                        for u, v in K33.edges])) == 1
    for name, g in graphs.items():
        assert [(v.name, v.holds) for v in identity_suite(g)] == recorded[name]


def test_identity_suite_holds_on_empty_graph():
    # with no vertex, alpha_0 is alpha_n = 1, which s*(w-1) does not divide
    assert all(v.holds for v in identity_suite(null_graph(0)))


@pytest.mark.parametrize("g, classes", [(complete_graph(4), 2),
                                        (grid_graph(3, 3), 4),
                                        (grid_graph(2, 5), 9)],
                         ids=["k4", "sq3x3", "sq2x5"])
def test_identity_suite_computes_each_graph_once(g, classes, monkeypatch):
    calls: Counter = Counter()

    def counting(kind, fn):
        def wrapped(h, *args, **kwargs):
            calls[kind, h.edges] += 1
            return fn(h, *args, **kwargs)
        return wrapped

    z_counted = counting("z", partition.z_poly)
    zf_counted = counting("zero-field", partition.zero_field_by_walk)
    for mod in (partition, identities):
        monkeypatch.setattr(mod, "z_poly", z_counted)
        monkeypatch.setattr(mod, "zero_field_by_walk", zf_counted)
    monkeypatch.setattr(partition, "chromatic_poly",
                        counting("chromatic", partition.chromatic_poly))
    assert all(v.holds for v in identity_suite(g))
    assert calls["z", g.edges] == 1
    assert calls["zero-field", g.edges] == 1
    assert sum(c for (kind, _), c in calls.items() if kind != "z") == 1
    # Z once for each isomorphism class of deletion or contraction, and of
    # nothing else
    assert max(calls.values()) == 1
    assert sum(calls.values()) == 2 + classes
