"""Numeric zero slices against the closed-form root expressions.

Each closed form fixes all but one variable of the two-site partition sum
and names its roots; the numeric path extracts the same slice from the
full polynomial and solves it.  Grids avoid parameter combinations where
a slice degenerates (vanishing leading coefficient or zero denominator),
except where degeneracy handling is itself under test.
"""

import cmath
import random

import pytest

from chromfield import frontier
from chromfield.errors import (BadInputError, DegenerateDenominatorError,
                               NoConvergenceError, PreconditionUnmetError)
from chromfield.graphs import Graph, circuit_graph, line_graph
from chromfield.partition import (_counts_to_z, _qt_to_z, ph_poly,
                                  subgraph_counts, z_poly)
from chromfield.poly import Q, S, V, W
from chromfield.zeros import (durand_kerner, l1_q_zero, l1_s_zero, l1_w_zero,
                              l2_q_zeros, l2_s_zeros, l2_s_zeros_near_w1,
                              l2_v_zero, l2_w_zero_bounded_at_minus_v,
                              l2_w_zero_unbounded_at_minus_v, l2_w_zeros,
                              l2_w_zeros_small_s, match_roots, poly_roots,
                              q_shift_check, s_pole_of_v_zero, w_inversion_check,
                              zeros_in)


# -- root-finder basics --------------------------------------------------------

def test_poly_roots_linear_quadratic_cubic():
    assert match_roots(poly_roots([-6, 1]), [6])
    assert match_roots(poly_roots([6, -5, 1]), [2, 3])
    assert match_roots(poly_roots([-6, 11, -6, 1]), [1, 2, 3])


def test_poly_roots_deflates_origin():
    roots = poly_roots([0, 0, -1, 1])
    assert match_roots(roots, [0, 0, 1])


def test_poly_roots_exact_at_double_root():
    # (x-1)^2: simultaneous iteration alone only reaches ~sqrt(eps) here
    roots = poly_roots([1, -2, 1])
    assert match_roots(roots, [1, 1], rel_tol=1e-12)


def test_poly_roots_complex_pair():
    roots = poly_roots([1, 0, 1])
    assert match_roots(roots, [1j, -1j])


def test_durand_kerner_agrees_with_quartic_factorization():
    # (x^2+1)(x-2)(x+3) = x^4 + x^3 - 5x^2 + x - 6
    roots = durand_kerner([-6, 1, -5, 1, 1])
    assert match_roots(roots, [1j, -1j, 2, -3], rel_tol=1e-8)


def test_match_roots_rejects_wrong_multiset():
    assert not match_roots([1.0, 2.0], [1.0, 1.0])
    assert not match_roots([1.0], [1.0, 2.0])
    assert match_roots([2.0 + 1e-12], [2.0])


# -- one-site slices -----------------------------------------------------------

def test_one_site_roots():
    z1 = z_poly(line_graph(1))
    for s, w in [(1.0, 0.5), (2.0, 0.25), (3.0, 4.0)]:
        sl = zeros_in(z1, "q", {"s": s, "v": 0.0, "w": w})
        assert match_roots(sl.roots, [l1_q_zero(s, w)])
    for q, w in [(2.0, 0.5), (3.0, 0.2)]:
        sl = zeros_in(z1, "s", {"q": q, "v": 0.0, "w": w})
        assert match_roots(sl.roots, [l1_s_zero(q, w)])
    for q, s in [(2.0, 1.0), (3.0, 2.0)]:
        sl = zeros_in(z1, "w", {"q": q, "s": s, "v": 0.0})
        assert match_roots(sl.roots, [l1_w_zero(q, s)])


def test_one_site_degenerate_denominators():
    with pytest.raises(DegenerateDenominatorError):
        l1_w_zero(2.0, 0.0)
    with pytest.raises(DegenerateDenominatorError):
        l1_s_zero(2.0, 1.0)


# -- two-site slices -----------------------------------------------------------

L2 = line_graph(2)


@pytest.fixture(scope="module")
def z2():
    return z_poly(L2)


def test_two_site_q_roots(z2):
    for s in (1.0, 2.0, 3.5):
        for v in (-1.5, 0.7, 2.0):
            for w in (0.3, 0.6, 2.0):
                sl = zeros_in(z2, "q", {"s": s, "v": v, "w": w})
                assert match_roots(sl.roots, l2_q_zeros(s, v, w)), (s, v, w)


def test_two_site_q_roots_at_discriminant_zero(z2):
    # v[v - 4sw(w-1)] = 0 at this point: a double root at q = 1
    sl = zeros_in(z2, "q", {"s": 1.0, "v": -1.0, "w": 0.5})
    assert match_roots(sl.roots, [1.0, 1.0])
    assert match_roots(sl.roots, l2_q_zeros(1.0, -1.0, 0.5))


def test_drop_tol_trims_a_vanishing_top_coefficient():
    # at s = 1e-15 the w^2 coefficient of s*w^2 + w + 1 sits on s = 0
    p = S * W ** 2 + W + 1
    sl = zeros_in(p, "w", {"s": 1e-15}, drop_tol=1e-12)
    assert (sl.nominal_degree, sl.actual_degree) == (2, 1)
    assert match_roots(sl.roots, [-1.0])
    sl = zeros_in(p, "w", {"s": 1e-15})
    assert (sl.nominal_degree, sl.actual_degree) == (2, 2)
    assert len(sl.roots) == 2


def test_two_site_s_roots(z2):
    for q in (1.3, 2.0, 3.7):
        for v in (-1.5, 0.7):
            for w in (0.3, 2.0):
                sl = zeros_in(z2, "s", {"q": q, "v": v, "w": w})
                assert match_roots(sl.roots, l2_s_zeros(q, v, w)), (q, v, w)


def test_two_site_s_roots_near_w_one(z2):
    """Both s-roots diverge like 1/(w-1); the limiting form captures the
    leading term, so the relative error shrinks linearly in (1-w)."""
    q, v = 3.0, -1.5
    errs = []
    for dw in (0.2, 0.1, 0.05):
        exact = sorted(l2_s_zeros(q, v, 1 - dw), key=lambda z: z.real)
        approx = sorted(l2_s_zeros_near_w1(q, v, 1 - dw), key=lambda z: z.real)
        errs.append(max(abs(a - b) / abs(a) for a, b in zip(exact, approx)))
    for first, second in zip(errs, errs[1:]):
        assert 0.375 < second / first < 0.625  # halving within 25%


def test_two_site_w_roots(z2):
    for q in (1.3, 3.0):
        for s in (0.7, 2.0):
            for v in (-1.5, 0.8):
                sl = zeros_in(z2, "w", {"q": q, "s": s, "v": v})
                assert match_roots(sl.roots, l2_w_zeros(q, s, v)), (q, s, v)


def test_two_site_w_roots_small_s_limit():
    q, v = 3.0, -1.2
    exact_small = l2_w_zeros(q, 1e-6, v)
    limiting = l2_w_zeros_small_s(q, 1e-6, v)
    assert match_roots(exact_small, limiting, rel_tol=1e-2)


def test_two_site_w_roots_at_s_to_minus_v():
    q, v = 3.0, -2.0
    eps = 1e-7
    roots = l2_w_zeros(q, -v + eps, v)
    bounded = l2_w_zero_bounded_at_minus_v(q, v)
    unbounded = l2_w_zero_unbounded_at_minus_v(q, -v + eps, v)
    best = min(roots, key=lambda z: abs(z - bounded))
    assert abs(best - bounded) < 1e-4
    other = max(roots, key=lambda z: abs(z - bounded))
    assert abs(other) > 1e4
    assert abs(other - unbounded) / abs(other) < 1e-2


def test_two_site_v_root(z2):
    for q in (2.0, 3.3):
        for s in (1.0, 2.4):
            for w in (0.4, 1.7):
                sl = zeros_in(z2, "v", {"q": q, "s": s, "w": w})
                assert match_roots(sl.roots, [l2_v_zero(q, s, w)]), (q, s, w)


def test_v_root_pole_location():
    q, w = 3.0, 0.5
    pole_s = s_pole_of_v_zero(q, w)
    assert pole_s == pytest.approx(q / (1 - w ** 2))
    near = l2_v_zero(q, pole_s + 1e-8, w)
    assert abs(near) > 1e6


def test_infinite_terms_of_opposite_sign_are_a_domain_error():
    # q*s and -q*v each overflow to an infinity; fsum refuses inf - inf
    p = Q * S * W - Q * V * W + 1
    with pytest.raises(PreconditionUnmetError):
        zeros_in(p, "w", {"q": 1e200, "s": 1e200, "v": 1e200})


def test_drop_tol_outside_unit_interval_is_refused():
    p = S * W ** 2 + W + 1
    for bad in (5.0, 1.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(BadInputError):
            zeros_in(p, "w", {"s": 1.0}, drop_tol=bad)


# -- order independence --------------------------------------------------------

def _circulant_9_12(rng=None):
    edges = [(i, (i + j) % 9) for j in (1, 2) for i in range(9)]
    if rng is None:
        return Graph.make(9, edges)
    perm = list(range(9))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return Graph.make(9, edges)


SLICES = [("ph", "w", {"q": 3.3, "s": 1.1}), ("ph", "q", {"s": 1.1, "w": 0.7}),
          ("z", "s", {"q": 2.9, "v": -0.6, "w": 1.3})]


def test_slices_do_not_depend_on_vertex_labels():
    # float sums in term order once gave three different root lists for
    # four labelings of this graph
    rng = random.Random(9)
    graphs = [_circulant_9_12()] + [_circulant_9_12(rng) for _ in range(3)]
    for mode, var, fixed in SLICES:
        polys = [ph_poly(g) if mode == "ph" else z_poly(g) for g in graphs]
        assert all(p == polys[0] for p in polys)
        first = zeros_in(polys[0], var, fixed)
        for p in polys[1:]:
            sl = zeros_in(p, var, fixed)
            assert (sl.coeffs, sl.roots) == (first.coeffs, first.roots), (var, fixed)


def test_walk_and_frontier_give_identical_slices():
    g = _circulant_9_12()
    walk = _counts_to_z(subgraph_counts(g), g.n)
    front = _qt_to_z(frontier.transfer_z(g, frontier.transfer_steps(g, range(g.n))))
    assert walk == front and list(walk.terms) != list(front.terms)
    for mode, var, fixed in SLICES:
        a, b = ((z.substitute(v=-1) if mode == "ph" else z) for z in (walk, front))
        sa, sb = zeros_in(a, var, fixed), zeros_in(b, var, fixed)
        assert (sa.coeffs, sa.roots) == (sb.coeffs, sb.roots), (var, fixed)


# -- cross-variable structure --------------------------------------------------

def test_q_root_shift_between_w_slices(z_cache):
    for name in ("line3", "circuit4", "star4", "k3"):
        assert q_shift_check(z_cache[name], 2.0, -1.3), name


def test_w_root_inversion_at_q_2s():
    assert w_inversion_check(ph_poly(line_graph(2)), 1.5)
    assert w_inversion_check(ph_poly(circuit_graph(3)), 2.0)
