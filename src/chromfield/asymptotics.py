"""Thermodynamic-limit behavior of the circuit/path family.

For the n -> infinity limit of paths and circuits the partition sum is
controlled by the transfer eigenvalues

    lam_{1,2}(q,s,v,w) = (1/2) [ E +/- sqrt(E^2 - 4 v w (q+v)) ],
    E = q - s + v + w (s + v),

together with the closed-orbit terms (s-1)(v w)^n and (q-s-1) v^n of the
circuit.  At v = -1 the dominant modulus defines

    Phi({C}, q, s, w) = lim |Ph(C_n, q, s, w)|^{1/n},

the weighted ground-state degeneracy per vertex; its logarithm is the
configurational entropy.  This module provides:

* the eigenvalue pair and Phi with region classification (R1 when lam_1
  dominates, R2 otherwise, boundary on ties);
* the stated limiting expansions of Phi (w -> 1, |q| -> infinity, s -> 0,
  s -> q, and the two large-|w| laws) for residual-order testing;
* the real q-axis crossing q_c of the zero-accumulation locus in the
  0 <= w < 1 interval: 2 + s(1-w)/(1+w) for s in {1, 2}, and the arc
  crossing s + 1 - w(s-1) for s > 2 inside 1/(s-1) < w < 1, with the arc
  endpoints (s+1)(1-w) +/- 2i sqrt(s w (1-w)); independent numeric
  locators accompany each closed form;
* entropy lower bounds inherited from the bipartite coloring bounds;
* an explicit order-of-limits demonstration: which closed-orbit terms
  survive depends on whether a special value of q or s is substituted
  before or after n -> infinity.

Order convention: unless stated otherwise, s is fixed first and then
n -> infinity, so closed-orbit terms with vanishing coefficients drop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import PreconditionUnmetError

_TIE_TOL = 1e-9
_QC_TOL = 1e-12  # width at which the q_c bisections stop


def lam_z(q: complex, s: complex, v: complex, w: complex) -> tuple[complex, complex]:
    """Transfer eigenvalue pair of the path/circuit partition sum."""
    e1 = q - s + v + w * (s + v)
    disc = e1 * e1 - 4 * v * w * (q + v)
    root = cmath.sqrt(disc)
    return (e1 + root) / 2, (e1 - root) / 2


def lam_ph(q: complex, s: complex, w: complex) -> tuple[complex, complex]:
    """The v = -1 pair: (1/2)[A +/- sqrt(A^2 + 4w(q-1))], A = q-s-1+w(s-1)."""
    return lam_z(q, s, -1, w)


@dataclass
class PhiReport:
    q: complex
    s: complex
    w: complex
    candidates: dict[str, complex]
    dominant: str
    phi: float
    region: str

    @property
    def entropy(self) -> float:
        if self.phi <= 0:
            raise PreconditionUnmetError("entropy needs Phi > 0")
        return math.log(self.phi)


def _circuit_candidates(q, s, v, w, generic: bool) -> dict[str, complex]:
    l1, l2 = lam_z(q, s, v, w)
    cand = {"lam1": l1, "lam2": l2}
    if generic or s != 1:
        cand["orbit_vw"] = v * w
    if generic or q != s + 1:
        cand["orbit_v"] = v
    return cand


def phi_circuit(q: complex, s: complex, w: complex) -> PhiReport:
    """Phi for the infinite circuit at fixed s (s-first order of limits)."""
    cand = _circuit_candidates(q, s, -1, w, generic=False)
    dominant = max(cand, key=lambda k: abs(cand[k]))
    phi = abs(cand[dominant])
    others = [abs(z) for k, z in cand.items() if k != "lam1"]
    lead = abs(cand["lam1"])
    if others and abs(lead - max(others)) <= _TIE_TOL * max(1.0, lead):
        region = "boundary"
    elif dominant == "lam1":
        region = "R1"
    else:
        region = "R2"
    return PhiReport(q, s, w, cand, dominant, phi, region)


# -- limiting expansions of Phi on {L} = {C} in region R1 ---------------------

def phi_series_w1(q: float, s: float, w: float) -> float:
    """Phi near w = 1: q-1 + s(q-1)(w-1)/q - s(q-1)(q-s)(w-1)^2/q^3 + O((w-1)^3)."""
    return (q - 1 + s * (q - 1) * (w - 1) / q
            - s * (q - 1) * (q - s) * (w - 1) ** 2 / q ** 3)


def phi_series_largeq(q: float, s: float, w: float) -> float:
    """Phi for large q: q + s(w-1) - 1 - s w (w-1)/q + O(1/q^2)."""
    return q + s * (w - 1) - 1 - s * w * (w - 1) / q


def phi_series_small_s(q: float, s: float, w: float) -> float:
    """Phi as s -> 0: q - 1 + (w-1)(q-1) s / (w + q - 1) + O(s^2)."""
    return q - 1 + (w - 1) * (q - 1) * s / (w + q - 1)


def phi_series_near_sq(q: float, s: float, w: float) -> float:
    """Phi as s -> q: w(q-1) - w(w-1)(q-1)(q-s)/(w(q-1)+1) + O((q-s)^2)."""
    return w * (q - 1) - w * (w - 1) * (q - 1) * (q - s) / (w * (q - 1) + 1)


def phi_asym_s1_largew(q: float, w: float) -> float:
    """Phi for s = 1 and large w: sqrt((q-1) w), relative error O(1/sqrt(w))."""
    return math.sqrt((q - 1) * w)


def phi_asym_largew(q: float, s: float, w: float) -> float:
    """Phi for s > 1 and large w: (s-1) w + s(q-s)/(s-1) + O(1/w).

    The constant term collects (q-s-1)/2 + [s(q-s)+q-1]/(2(s-1)), which
    simplifies to s(q-s)/(s-1).
    """
    if s == 1:
        raise PreconditionUnmetError("use phi_asym_s1_largew for s = 1")
    return (s - 1) * w + s * (q - s) / (s - 1)


# -- locus crossings in the q plane (0 <= w < 1) ------------------------------

def wcond_interval(s: float) -> tuple[float, float]:
    """The w window 1/(s-1) < w < 1 where the s > 2 arc crossing applies."""
    if s <= 2:
        raise PreconditionUnmetError("the window is defined for s > 2")
    return (1 / (s - 1), 1.0)


@dataclass
class QcResult:
    s: float
    w: float
    value: float | None
    mode: str
    note: str = ""


def qc_circuit(s: float, w: float) -> QcResult:
    """Real-axis crossing q_c of the q-plane accumulation locus.

    Two regimes are stated: for s in {1, 2} and 0 <= w <= 1 the unit-modulus
    condition |lam_1| = 1 gives q_c = 2 + s(1-w)/(1+w); for s > 2 inside
    the window 1/(s-1) < w < 1, leading-pair degeneracy (A = 0 with
    |lam| > 1) gives q_c = s + 1 - w(s-1).  Outside these regimes the
    crossing is not specified here.
    """
    if s in (1, 2) and 0 <= w <= 1:
        return QcResult(s, w, 2 + s * (1 - w) / (1 + w), "unit-modulus")
    if s > 2:
        lo, hi = wcond_interval(s)
        if lo < w < hi:
            return QcResult(s, w, s + 1 - w * (s - 1), "pair-degeneracy")
    return QcResult(s, w, None, "unspecified",
                    "crossing stated only for s in {1,2} with 0<=w<=1, or "
                    "s>2 with 1/(s-1) < w < 1")


def _bisect(f, lo: float, hi: float, what: str) -> float:
    """Halve [lo, hi] around the sign change f(lo) < 0 < f(hi) until it is
    at most _QC_TOL wide and return its midpoint."""
    if f(lo) >= 0 or f(hi) <= 0:
        raise PreconditionUnmetError(f"{what} bracket failed")
    while hi - lo > _QC_TOL:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break  # adjacent floats: for large brackets their gap exceeds _QC_TOL
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def qc_locate_unit_modulus(s: float, w: float) -> float:
    """Bisection for the q with |lam_1(q, s, w)| = 1 (s in {1,2} regime)."""
    return _bisect(lambda q: abs(lam_ph(q, s, w)[0]) - 1, 1.0, 2 + s + 1.0,
                   "unit-modulus")


def qc_locate_pair_degeneracy(s: float, w: float) -> float:
    """Bisection for the sign change of A(q) = q-s-1+w(s-1) with the
    dominance check |lam_1| = |lam_2| > 1 at the located point."""
    # A(1) = (s-1)(w-1) < 0 and A(s+2) = 1 + w(s-1) > 0 for 0 < w < 1,
    # so this bracket spans the crossing for the whole w window
    q0 = _bisect(lambda q: q - s - 1 + w * (s - 1), 1.0, s + 2.0, "degeneracy")
    l1, l2 = lam_ph(q0, s, w)
    if abs(abs(l1) - abs(l2)) > 1e-6 * max(1.0, abs(l1)):
        raise PreconditionUnmetError("located point is not a modulus tie")
    if abs(l1) <= 1:
        raise PreconditionUnmetError(
            "tied pair is not dominant (|lam| <= 1); outside the w window")
    return q0


def arc_endpoints(s: float, w: float) -> tuple[complex, complex]:
    """Arc endpoints: zeros of the v = -1 discriminant,
    q_e = (s+1)(1-w) +/- 2i sqrt(s w (1-w))."""
    root = 2j * cmath.sqrt(s * w * (1 - w))
    base = (s + 1) * (1 - w)
    return base + root, base - root


def discriminant_ph(q: complex, s: complex, w: complex) -> complex:
    a = q - s - 1 + w * (s - 1)
    return a * a + 4 * w * (q - 1)


def arc_endpoints_from_samples(s: float, w: float) -> tuple[complex, complex]:
    """Independent route: fit the q-quadratic discriminant from three
    samples and return its roots."""
    d0 = discriminant_ph(0, s, w)
    d1 = discriminant_ph(1, s, w)
    d2 = discriminant_ph(2, s, w)
    a = (d0 - 2 * d1 + d2) / 2
    b = (-3 * d0 + 4 * d1 - d2) / 2
    c = d0
    root = cmath.sqrt(b * b - 4 * a * c)
    return (-b + root) / (2 * a), (-b - root) / (2 * a)


def w_zero_locus_residual(q: complex, s: float) -> float:
    """Distance of q from the w = 0 accumulation circle |q - (1+s)| = 1."""
    return abs(abs(q - (1 + s)) - 1)


# -- entropy lower bounds -----------------------------------------------------

def entropy_bound_fscp(s: int, w: float) -> float:
    """S >= ln w + (1/2) ln(s-1) on wide even strips, for w > 1, s >= 2."""
    if not (w > 1 and s >= 2):
        raise PreconditionUnmetError("bound stated for w > 1 and s >= 2")
    return math.log(w) + 0.5 * math.log(s - 1)


def entropy_bound_dfscp(q: int, s: int, w: float) -> float:
    """S >= (1/2) ln(q-s-1) on wide even strips, for 0 <= w < 1, 1 <= s <= q-3."""
    if not (0 <= w < 1 and 1 <= s <= q - 3):
        raise PreconditionUnmetError(
            "bound stated for 0 <= w < 1 and 1 <= s <= q-3")
    return 0.5 * math.log(q - s - 1)


# -- monotonicity observations ------------------------------------------------

def phi_values(var: str, values, fixed: dict[str, float]) -> list[float]:
    out = []
    for x in values:
        args = dict(fixed)
        args[var] = x
        out.append(phi_circuit(args["q"], args["s"], args["w"]).phi)
    return out


def is_increasing(seq, strict: bool = False) -> bool:
    if strict:
        return all(b > a for a, b in zip(seq, seq[1:]))
    return all(b >= a for a, b in zip(seq, seq[1:]))


# -- order-of-limits demonstration --------------------------------------------

@dataclass
class LimitOrderDemo:
    q: complex
    s: complex
    v: complex
    w: complex
    value_first_terms: dict[str, complex]
    n_first_terms: dict[str, complex]
    value_first_sup: float
    n_first_sup: float

    @property
    def distinct_term_sets(self) -> bool:
        return set(self.value_first_terms) != set(self.n_first_terms)

    @property
    def distinct_sups(self) -> bool:
        return abs(self.value_first_sup - self.n_first_sup) > _TIE_TOL


def circuit_limit_demo(q: complex, s: complex, v: complex,
                       w: complex) -> LimitOrderDemo:
    """Which circuit terms survive n -> infinity, in both orders of limits.

    Substituting a special value first kills closed-orbit terms whose
    coefficient (s-1) or (q-s-1) vanishes; taking n -> infinity at generic
    values first keeps them.  The reported sup is the largest term modulus,
    which is what |Z|^{1/n} converges to along even n.
    """
    first = _circuit_candidates(q, s, v, w, generic=False)
    generic = _circuit_candidates(q, s, v, w, generic=True)
    return LimitOrderDemo(
        q, s, v, w, first, generic,
        max(abs(z) for z in first.values()),
        max(abs(z) for z in generic.values()),
    )
