"""Zero sets of the partition sums in a single complex variable.

Given the exact polynomial from the engine, a slice fixes all but one of
(q, s, v, w) at numeric values and finds the complex zeros of the remaining
univariate polynomial.  Root finding is simultaneous-iteration
(Durand-Kerner) on the monic polynomial, polished by Newton steps, with a
companion-matrix eigenvalue fallback when the iteration stalls.

Top-degree coefficients of a slice can vanish (for example the w-degree-n
coefficient of Z at s = 0): those roots move off to infinity and are
reported as a degree drop rather than fabricated large numbers.

The module also carries the small-graph closed forms used to validate the
numeric route: the one- and two-vertex zeros in each variable and their
divergence asymptotics, the w = 1 to w = 0 rightward shift by s of the
q-plane zeros, and the w -> 1/w inversion symmetry of the zero set at
q = 2s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadInputError, DegenerateDenominatorError,
                     NoConvergenceError, PreconditionUnmetError)
from .poly import MultiPoly

_TOL = 1e-12


def _horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_deriv(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + k * coeffs[k]
    return acc


def durand_kerner(coeffs: list[complex], max_iter: int = 200,
                  tol: float = _TOL) -> list[complex]:
    """All roots of an ascending-coefficient polynomial, leading term nonzero."""
    d = len(coeffs) - 1
    if d < 1:
        return []
    monic = [c / coeffs[-1] for c in coeffs]
    radius = 1 + max(abs(c) for c in monic[:-1])
    roots = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / d)
             for k in range(d)]
    for _ in range(max_iter):
        shift = 0.0
        for k in range(d):
            zk = roots[k]
            den = 1 + 0j
            for j in range(d):
                if j != k:
                    den *= zk - roots[j]
            if den == 0:
                den = tol
            delta = _horner(monic, zk) / den
            roots[k] = zk - delta
            shift = max(shift, abs(delta))
        if shift < tol * max(1.0, radius):
            return roots
    raise NoConvergenceError("simultaneous iteration did not settle")


def _newton_polish(coeffs: list[complex], roots: list[complex],
                   steps: int = 3) -> list[complex]:
    out = []
    for z in roots:
        for _ in range(steps):
            dp = _horner_deriv(coeffs, z)
            if dp == 0:
                break
            step = _horner(coeffs, z) / dp
            if abs(step) > 1 + abs(z):
                break  # Newton escaping (near-multiple root); keep iterate
            z = z - step
        out.append(z)
    return out


def _quadratic_roots(c0: complex, c1: complex, c2: complex) -> list[complex]:
    sq = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    if (c1.conjugate() * sq).real < 0:
        sq = -sq
    t = -0.5 * (c1 + sq)
    if t == 0:
        r = cmath.sqrt(-c0 / c2)
        return [r, -r]
    return [t / c2, c0 / t]


def poly_roots(coeffs: list[complex]) -> list[complex]:
    """Roots of an ascending coefficient list, exact zeros deflated first.

    Degrees one and two are solved in closed form (exact at double roots,
    where simultaneous iteration only reaches half precision).
    """
    coeffs = list(coeffs)
    while coeffs and abs(coeffs[-1]) == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    zeros_at_origin = 0
    while abs(coeffs[0]) == 0:
        zeros_at_origin += 1
        coeffs.pop(0)
    if len(coeffs) == 2:
        roots = [-coeffs[0] / coeffs[1]]
    elif len(coeffs) == 3:
        roots = _quadratic_roots(*coeffs)
    elif len(coeffs) > 3:
        try:
            roots = durand_kerner(coeffs)
        except NoConvergenceError:
            roots = list(np.roots(list(reversed(coeffs))).astype(complex))
        roots = _newton_polish(coeffs, roots)
    else:
        roots = []
    return [0j] * zeros_at_origin + roots


@dataclass
class ZeroSlice:
    variable: str
    fixed: dict[str, complex]
    coeffs: list[complex]
    roots: list[complex]
    nominal_degree: int
    actual_degree: int


def zeros_in(p: MultiPoly, variable: str, fixed: dict[str, complex],
             drop_tol: float = 0.0) -> ZeroSlice:
    """Zero slice of p in one variable with the others numerically fixed.

    ``drop_tol``, in [0, 1), treats top coefficients of relative magnitude
    at or below it as vanished (useful when the fixed values are floats
    sitting on a locus where the exact coefficient is zero).
    """
    if not 0 <= drop_tol < 1:
        raise BadInputError(f"drop_tol wants a number in [0, 1), got {drop_tol}")
    try:
        coeffs = p.univariate(variable, fixed)
        finite = all(cmath.isfinite(c) for c in coeffs)
    except (OverflowError, ValueError):  # a float overflowed, or inf met -inf
        finite = False
    if not finite:
        raise PreconditionUnmetError(
            f"slice in {variable} overflows a float at {fixed}")
    if not coeffs or all(abs(c) == 0 for c in coeffs):
        raise PreconditionUnmetError(
            f"slice in {variable} vanishes identically at {fixed}")
    nominal = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    trimmed = list(coeffs)
    while len(trimmed) > 1 and abs(trimmed[-1]) <= drop_tol * scale:
        trimmed.pop()
    roots = poly_roots(trimmed)
    return ZeroSlice(variable, dict(fixed), coeffs, roots, nominal,
                     len(trimmed) - 1)


def match_roots(found: list[complex], expected: list[complex],
                rel_tol: float = 1e-9) -> bool:
    """Multiset comparison of two root lists with relative tolerance."""
    if len(found) != len(expected):
        return False
    remaining = list(found)
    for target in expected:
        scale = max(1.0, abs(target))
        best, best_d = None, None
        for i, z in enumerate(remaining):
            d = abs(z - target)
            if best_d is None or d < best_d:
                best, best_d = i, d
        if best is None or best_d > rel_tol * scale:
            return False
        remaining.pop(best)
    return True


# -- closed forms for the one- and two-vertex graphs --------------------------

def l1_q_zero(s: complex, w: complex) -> complex:
    """Z(L1) = q - s + s w vanishes at q = s (1 - w)."""
    return s * (1 - w)


def l2_q_zeros(s: complex, v: complex, w: complex) -> list[complex]:
    """q-plane zeros of Z(L2): (1/2)[-v + 2s(1-w) +/- sqrt(v(v - 4sw(w-1)))]."""
    root = cmath.sqrt(v * (v - 4 * s * w * (w - 1)))
    return [(-v + 2 * s * (1 - w) + sgn * root) / 2 for sgn in (+1, -1)]


def l1_s_zero(q: complex, w: complex) -> complex:
    """s-plane zero of Z(L1): s = q / (1 - w)."""
    if w == 1:
        raise DegenerateDenominatorError("s-zero of L1 diverges at w = 1")
    return q / (1 - w)


def l2_s_zeros(q: complex, v: complex, w: complex) -> list[complex]:
    """s-plane zeros of Z(L2):
    [-(2q + v(w+1)) +/- sqrt(v(v(w+1)^2 + 4qw))] / (2(w-1))."""
    if w == 1:
        raise DegenerateDenominatorError("s-zeros of L2 diverge at w = 1")
    root = cmath.sqrt(v * (v * (w + 1) ** 2 + 4 * q * w))
    return [(-(2 * q + v * (w + 1)) + sgn * root) / (2 * (w - 1))
            for sgn in (+1, -1)]


def l2_s_zeros_near_w1(q: complex, v: complex, w: complex) -> list[complex]:
    """Divergence law of the L2 s-zeros: ~ [-(q+v) +/- sqrt(v(q+v))]/(w-1)."""
    if w == 1:
        raise DegenerateDenominatorError("asymptote is a pole at w = 1")
    root = cmath.sqrt(v * (q + v))
    return [(-(q + v) + sgn * root) / (w - 1) for sgn in (+1, -1)]


def l1_w_zero(q: complex, s: complex) -> complex:
    """w-plane zero of Z(L1): w = 1 - q/s."""
    if s == 0:
        raise DegenerateDenominatorError("w-zero of L1 diverges at s = 0")
    return 1 - q / s


def l2_w_zeros(q: complex, s: complex, v: complex) -> list[complex]:
    """w-plane zeros of Z(L2): [s(s-q) +/- sqrt(s(s-q)v(q+v))] / (s(s+v))."""
    if s == 0 or s + v == 0:
        raise DegenerateDenominatorError(
            "w-zeros of L2 diverge at s = 0 and s = -v")
    root = cmath.sqrt(s * (s - q) * v * (q + v))
    return [(s * (s - q) + sgn * root) / (s * (s + v)) for sgn in (+1, -1)]


def l2_w_zeros_small_s(q: complex, s: complex, v: complex) -> list[complex]:
    """Small-s divergence of the L2 w-zeros: ~ +/- sqrt((-q)(q+v)/(s v))."""
    if s == 0 or v == 0:
        raise DegenerateDenominatorError("asymptote is a pole at s = 0, v = 0")
    root = cmath.sqrt((-q) * (q + v) / (s * v))
    return [root, -root]


def l2_w_zero_bounded_at_minus_v(q: complex, v: complex) -> complex:
    """Limit of the bounded L2 w-zero as s -> -v: (q + 2v) / (2v)."""
    if v == 0:
        raise DegenerateDenominatorError("limit undefined at v = 0")
    return (q + 2 * v) / (2 * v)


def l2_w_zero_unbounded_at_minus_v(q: complex, s: complex,
                                   v: complex) -> complex:
    """Divergence law of the other L2 w-zero as s -> -v: ~ -2(q+v)/(s+v)."""
    if s + v == 0:
        raise DegenerateDenominatorError("asymptote is a pole at s = -v")
    return -2 * (q + v) / (s + v)


def l2_v_zero(q: complex, s: complex, w: complex) -> complex:
    """v-plane zero of Z(L2): v = -[q + s(w-1)]^2 / [q + s(w-1)(w+1)]."""
    den = q + s * (w - 1) * (w + 1)
    if den == 0:
        raise DegenerateDenominatorError(
            "v-zero of L2 diverges at s = q/(1 - w^2)")
    return -((q + s * (w - 1)) ** 2) / den


def s_pole_of_v_zero(q: complex, w: complex) -> complex:
    """The locus s = q/(1 - w^2) where the L2 v-zero magnitude diverges."""
    if w * w == 1:
        raise DegenerateDenominatorError("locus undefined at w^2 = 1")
    return q / (1 - w * w)


# -- structural properties of zero sets ---------------------------------------

def q_shift_check(z: MultiPoly, s_val: float, v_val: float,
                  rel_tol: float = 1e-9) -> bool:
    """As w goes from 1 to 0 the q-plane zeros translate right by s.

    Both endpoint slices reduce to zero-field polynomials whose roots can
    be highly multiple (trees give q (q+v)^{n-1}), so rather than matching
    numeric root lists the slices are compared as polynomials: the w=0
    slice must equal the w=1 slice composed with q -> q - s.  Monic
    normalization removes any overall scale.
    """
    at1 = z.univariate("q", {"s": s_val, "v": v_val, "w": 1.0})
    at0 = z.univariate("q", {"s": s_val, "v": v_val, "w": 0.0})
    if len(at1) != len(at0) or not at1:
        return False
    at1 = [c / at1[-1] for c in at1]
    at0 = [c / at0[-1] for c in at0]
    shifted = [0j] * len(at1)
    for k, c in enumerate(at1):
        for j in range(k + 1):
            shifted[j] += c * math.comb(k, j) * (-s_val) ** (k - j)
    scale = max(max(abs(c) for c in at0), 1.0)
    return all(abs(a - b) <= rel_tol * scale for a, b in zip(shifted, at0))


def w_inversion_check(p: MultiPoly, s_val: float, rel_tol: float = 1e-9,
                      v_val: float | None = None) -> bool:
    """At q = 2s the nonzero w-plane zeros are closed under w -> 1/w."""
    fixed = {"q": 2 * s_val, "s": s_val}
    if v_val is not None:
        fixed["v"] = v_val
    sl = zeros_in(p, "w", fixed)
    nonzero = [r for r in sl.roots if abs(r) > 1e-8]
    inverted = [1 / r for r in nonzero]
    return match_roots(nonzero, inverted, rel_tol)