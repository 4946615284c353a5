"""Infinite-circuit growth factor, its limiting expansions, locus
crossings in the q plane, and the order-of-limits demonstration.

Series accuracy is tested by residual order: when the small parameter
halves, the residual against the numerically exact dominant-term modulus
must shrink by the predicted factor, within a 25% band.
"""

import cmath
import math

import pytest

from chromfield.asymptotics import (LimitOrderDemo, arc_endpoints,
                                    arc_endpoints_from_samples,
                                    circuit_limit_demo, discriminant_ph,
                                    entropy_bound_dfscp, entropy_bound_fscp,
                                    is_increasing, lam_ph, lam_z, phi_asym_largew,
                                    phi_asym_s1_largew, phi_circuit,
                                    phi_series_largeq, phi_series_near_sq,
                                    phi_series_small_s, phi_series_w1,
                                    phi_values, qc_circuit,
                                    qc_locate_pair_degeneracy,
                                    qc_locate_unit_modulus, w_zero_locus_residual,
                                    wcond_interval)
from chromfield.errors import PreconditionUnmetError
from chromfield.families import z_circuit


# -- transfer eigenvalues ------------------------------------------------------

def test_lam_z_viete_relations():
    for (q, s, v, w) in [(3, 1, -1, 2), (5, 2, 0.5, 0.7), (2.5, 1.2, -0.8, 3)]:
        l1, l2 = lam_z(q, s, v, w)
        e = q - s + v + w * (s + v)
        assert abs(l1 + l2 - e) < 1e-12 * max(1, abs(e))
        prod = v * w * (q + v)
        assert abs(l1 * l2 - prod) < 1e-12 * max(1, abs(prod))
        assert abs(l1) >= abs(l2)


def test_lam_ph_is_v_minus_one_slice():
    for (q, s, w) in [(4, 2, 0.5), (3, 1, 2.0)]:
        assert lam_ph(q, s, w) == lam_z(q, s, -1, w)


def test_lam_discriminant_consistency():
    q, s, w = 4.0, 2.0, 0.6
    l1, l2 = lam_ph(q, s, w)
    assert abs((l1 - l2) ** 2 - discriminant_ph(q, s, w)) < 1e-10


# -- Phi against growing finite circuits ---------------------------------------

@pytest.mark.parametrize("q,s,w", [(5, 2, 0.5), (4, 1, 0.3), (3, 2, 4.0)])
def test_phi_matches_finite_circuit_growth(q, s, w):
    rep = phi_circuit(q, s, w)
    vals = []
    for n in (8, 16):
        p = z_circuit(n)
        vals.append(abs(p.evaluate(q=q, s=s, v=-1.0, w=w)) ** (1.0 / n))
    err8 = abs(vals[0] - rep.phi)
    err16 = abs(vals[1] - rep.phi)
    assert err16 < err8
    assert err16 / rep.phi < 0.05


def test_phi_region_classification():
    assert phi_circuit(5, 2, 0.7).region == "R1"
    # huge w: the closed-orbit term vw cannot dominate lam_1, but lam_1
    # itself grows like (s-1) w; still R1
    assert phi_circuit(3, 2, 50.0).region == "R1"
    # R2: a closed-orbit term or the second eigenvalue outgrows lam_1;
    # here |orbit_v| = 1 > |lam_2| = 0.718 > |lam_1| = 0.418
    rep = phi_circuit(2.5, 2, 0.2)
    assert (rep.region, rep.dominant, rep.phi) == ("R2", "orbit_v", 1)
    # and here |lam_2| = (1 + sqrt 2)/2 > |orbit_v| = 1 > |lam_1|
    rep = phi_circuit(1.5, 2, 0.5)
    assert (rep.region, rep.dominant) == ("R2", "lam2")
    assert rep.phi == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-12)


# -- residual-order checks for the limiting expansions -------------------------

def shrink_ratios(fn, points, rel=False):
    residuals = []
    for q, s, w in points:
        truth = phi_circuit(q, s, w)
        assert truth.region == "R1"
        r = abs(truth.phi - fn(q, s, w))
        if rel:
            r /= abs(fn(q, s, w))
        residuals.append(r)
    return [a / b for a, b in zip(residuals, residuals[1:])]


def test_series_near_w_one_third_order():
    ratios = shrink_ratios(phi_series_w1, [(5, 2, 1 - d) for d in (0.2, 0.1, 0.05)])
    for r in ratios:
        assert 6.0 < r < 10.0  # (1-w) halves -> residual / 8


def test_series_large_q_second_order():
    ratios = shrink_ratios(phi_series_largeq, [(q, 2, 0.5) for q in (8, 16, 32)])
    for r in ratios:
        assert 3.0 < r < 5.0  # q doubles -> residual / 4


def test_series_small_s_second_order():
    ratios = shrink_ratios(phi_series_small_s,
                           [(4, s, 0.5) for s in (0.4, 0.2, 0.1)])
    for r in ratios:
        assert 3.0 < r < 5.0


def test_series_near_s_equals_q_second_order():
    ratios = shrink_ratios(phi_series_near_sq,
                           [(5, 5 - d, 0.5) for d in (0.4, 0.2, 0.1)])
    for r in ratios:
        assert 3.0 < r < 5.0


def test_asym_s1_large_w_half_order():
    ratios = shrink_ratios(lambda q, s, w: phi_asym_s1_largew(q, w),
                           [(3, 1, w) for w in (100, 400, 1600)], rel=True)
    for r in ratios:
        assert 1.5 < r < 2.5  # w quadruples -> relative residual / 2


def test_asym_general_large_w_first_order():
    ratios = shrink_ratios(phi_asym_largew, [(5, 3, w) for w in (50, 100, 200)])
    for r in ratios:
        assert 1.5 < r < 2.5  # w doubles -> residual / 2


def test_asym_large_w_rejects_s_one():
    with pytest.raises(PreconditionUnmetError):
        phi_asym_largew(3, 1, 10.0)


# -- real-axis locus crossings -------------------------------------------------

@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("w", [0.2, 0.5, 0.9])
def test_qc_unit_modulus_regime(s, w):
    res = qc_circuit(s, w)
    assert res.mode == "unit-modulus"
    assert res.value == pytest.approx(2 + s * (1 - w) / (1 + w))
    located = qc_locate_unit_modulus(s, w)
    assert abs(located - res.value) < 1e-6


@pytest.mark.parametrize("s", [4, 6])
@pytest.mark.parametrize("w", [0.5, 0.9])
def test_qc_pair_degeneracy_regime(s, w):
    lo, hi = wcond_interval(s)
    assert lo < w < hi
    res = qc_circuit(s, w)
    assert res.mode == "pair-degeneracy"
    assert res.value == pytest.approx(s + 1 - w * (s - 1))
    located = qc_locate_pair_degeneracy(s, w)
    assert abs(located - res.value) < 1e-6


@pytest.mark.parametrize("s,w", [(4, 0.2), (6, 0.2)])
def test_qc_outside_stated_window(s, w):
    lo, _ = wcond_interval(s)
    assert not (lo < w)  # w at or below the window floor
    res = qc_circuit(s, w)
    assert res.mode == "unspecified" and res.value is None
    assert "1/(s-1)" in res.note


def test_qc_locator_rejects_subdominant_tie():
    # at (s, w) = (4, 0.2) the A = 0 point still ties the pair, but with
    # |lam| = sqrt(0.68) < 1, so it cannot pick the crossing
    with pytest.raises(PreconditionUnmetError):
        qc_locate_pair_degeneracy(4, 0.2)


def test_qc_unit_modulus_zero_field_endpoint():
    # w = 1 removes the field: crossing sits at the zero-field value 2
    res = qc_circuit(1, 1.0)
    assert res.value == pytest.approx(2.0)


# -- arc endpoints and the w = 0 circle ----------------------------------------

@pytest.mark.parametrize("s,w", [(1, 0.5), (2, 0.3), (3, 0.7), (2, 0.9)])
def test_arc_endpoints_match_discriminant_roots(s, w):
    a, b = arc_endpoints(s, w)
    fa, fb = arc_endpoints_from_samples(s, w)
    err = min(abs(a - fa) + abs(b - fb), abs(a - fb) + abs(b - fa))
    assert err < 1e-6
    # endpoints really kill the discriminant
    assert abs(discriminant_ph(a, s, w)) < 1e-9
    assert abs(discriminant_ph(b, s, w)) < 1e-9


def test_arc_endpoints_conjugate_pair():
    a, b = arc_endpoints(2, 0.4)
    assert a == b.conjugate()
    assert a.real == pytest.approx(3 * 0.6)


def test_w_zero_locus_circle():
    s = 2
    for angle in (0.3, 1.2, 2.5):
        q = (1 + s) + cmath.exp(1j * angle)
        assert w_zero_locus_residual(q, s) < 1e-12
    assert w_zero_locus_residual((1 + s) + 1.5, s) == pytest.approx(0.5)


# -- entropy bounds ------------------------------------------------------------

def test_entropy_bound_values_and_windows():
    assert entropy_bound_fscp(2, math.e) == pytest.approx(1.0)
    assert entropy_bound_dfscp(6, 1, 0.5) == pytest.approx(0.5 * math.log(4))
    with pytest.raises(PreconditionUnmetError):
        entropy_bound_fscp(1, 2.0)
    with pytest.raises(PreconditionUnmetError):
        entropy_bound_fscp(3, 0.5)
    with pytest.raises(PreconditionUnmetError):
        entropy_bound_dfscp(4, 2, 0.5)  # needs s <= q-3


def test_circuit_entropy_dominates_bounds():
    """The one-dimensional circuit already satisfies the wide-strip
    entropy floors at representative points."""
    for (s, w) in [(2, 3.0), (3, 2.0), (4, 10.0)]:
        rep = phi_circuit(s + 2, s, w)
        assert rep.entropy >= entropy_bound_fscp(s, w)
    for (q, s, w) in [(6, 1, 0.5), (7, 2, 0.2)]:
        rep = phi_circuit(q, s, w)
        assert rep.entropy >= entropy_bound_dfscp(q, s, w)


# -- monotonicity of Phi -------------------------------------------------------

def test_phi_monotone_in_w_at_fixed_q_s():
    vals = phi_values("w", [1.0, 2.0, 4.0, 8.0], {"q": 5, "s": 2, "w": None})
    assert is_increasing(vals, strict=True)


def test_phi_monotone_in_q_disfavored_window():
    vals = phi_values("q", [3.0, 4.0, 5.0, 6.0], {"q": None, "s": 1, "w": 0.5})
    assert is_increasing(vals, strict=True)


def test_entropy_requires_positive_phi():
    # q = s+1 and s = 1 drop both orbit terms and w = 0 collapses the
    # eigenvalue pair, so Phi = 0 and the entropy is undefined
    rep = phi_circuit(2, 1, 0.0)
    assert rep.phi == 0
    with pytest.raises(PreconditionUnmetError):
        rep.entropy


# -- order-of-limits demonstration ---------------------------------------------

def test_limit_demo_structural_difference():
    demo = circuit_limit_demo(3, 1, -1, 2)
    assert isinstance(demo, LimitOrderDemo)
    # setting s = 1 first kills the (s-1)(vw)^n orbit term...
    assert "orbit_vw" not in demo.value_first_terms
    # ...while n -> infinity first keeps vw in the surviving-term set
    assert "orbit_vw" in demo.n_first_terms
    assert demo.distinct_term_sets
    # at this point lam_1 = (1+sqrt(17))/2 outweighs |vw| = 2 in both
    # orders, so the dominant modulus happens to agree
    assert not demo.distinct_sups
    assert demo.value_first_sup == pytest.approx((1 + math.sqrt(17)) / 2)


def test_limit_demo_sup_gap_when_orbit_dominates():
    # larger w pushes |vw| above |lam_1|: the two orders disagree in value
    demo = circuit_limit_demo(3, 1, -1, 8)
    assert demo.distinct_term_sets
    assert demo.distinct_sups
    assert demo.n_first_sup == pytest.approx(8.0)  # |v w| = 8 wins
    assert demo.value_first_sup < demo.n_first_sup
