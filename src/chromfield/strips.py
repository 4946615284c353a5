"""Transfer-structure bookkeeping for cyclic strip graphs.

A width-Ly cyclic strip carries the expansion

    Z(strip, Ly x m, q, s, v, w) = sum_{d=0}^{Ly} c^(d)(q - s) *
                                   sum_j lambda_{Ly,d,j}^m,

where c^(d) is the degree-d coefficient polynomial

    c^(d)(x) = sum_{j=0}^{d} (-1)^j C(2d - j, j) x^{d - j},

with c^(0) = 1, c^(1) = x - 1, c^(2) = x^2 - 3x + 1, ...  This module
computes the multiplicities n_Zh(Ly, d, s) (and their v = -1 counterparts
n_Ph) as polynomials in s, from the two-index recurrences

    n_Zh(Ly+1, 0) = (s+1) n_Zh(Ly, 0) + n_Zh(Ly, 1)
    n_Zh(Ly+1, d) = n_Zh(Ly, d-1) + (s+2) n_Zh(Ly, d) + n_Zh(Ly, d+1)
    n_Ph(Ly+1, 0) =  s    n_Ph(Ly, 0) + n_Ph(Ly, 1)
    n_Ph(Ly+1, d) = n_Ph(Ly, d-1) + (s+1) n_Ph(Ly, d) + n_Ph(Ly, d+1)

seeded by the width-1 row {d=0: s+1, d=1: 1}.  The multiplicities satisfy

    sum_d c^(d)(q-s) n_Zh(Ly, d, s) = q^Ly            (all states)
    sum_d c^(d)(q-s) n_Ph(Ly, d, s) = q (q-1)^(Ly-1)  (proper colorings)

and n_Ph(Ly, d, s) = n_Zh(Ly, d, s-1) + n_Zh(Ly-1, d, s-1).  The totals
N = sum_d n grow like (s+4)^Ly for Zh and (s+3)^Ly for Ph.

Width 1 is the circuit graph: the d=0 block holds the two transfer
eigenvalues plus s-1 copies of v*w, and the single d=1 term is lambda = v,
matching the closed form in ``families.z_circuit``.

The table checks take the rows they check, as built by ``zh_count_rows``
and ``ph_count_rows``, and return the statements that fail (empty when all
hold), so one pair of tables serves every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PreconditionUnmetError
from .poly import ONE, Q, S, MultiPoly

_ZERO = MultiPoly.zero()


def c_coeff(d: int, arg) -> MultiPoly:
    """c^(d) evaluated at ``arg`` (an int or MultiPoly)."""
    total = MultiPoly.zero()
    for j in range(d + 1):
        total = total + (-1) ** j * comb(2 * d - j, j) * arg ** (d - j)
    return total


def c_tilde(d: int) -> MultiPoly:
    """c^(d)(q - s), the strip expansion coefficient."""
    return c_coeff(d, Q - S)


def _rows(ly_max: int, d0_mult: MultiPoly, d_mult: MultiPoly):
    rows = [{0: ONE}]
    if ly_max >= 1:
        rows.append({0: S + 1, 1: ONE})
    for ly in range(1, ly_max):
        prev = rows[ly]
        nxt = {0: d0_mult * prev[0] + prev.get(1, _ZERO)}
        for d in range(1, ly + 2):
            nxt[d] = prev.get(d - 1, _ZERO) + d_mult * prev.get(d, _ZERO) \
                + prev.get(d + 1, _ZERO)
        rows.append(nxt)
    return rows


def zh_count_rows(ly_max: int) -> list[dict[int, MultiPoly]]:
    """n_Zh(Ly, d, s) for Ly = 0..ly_max, each row keyed by d."""
    return _rows(ly_max, S + 1, S + 2)


def ph_count_rows(ly_max: int) -> list[dict[int, MultiPoly]]:
    """n_Ph(Ly, d, s) for Ly = 0..ly_max, each row keyed by d."""
    return _rows(ly_max, S, S + 1)


def row_total(row: dict[int, MultiPoly]) -> MultiPoly:
    total = MultiPoly.zero()
    for d in sorted(row):
        total = total + row[d]
    return total


def zh_total_closed(ly: int) -> MultiPoly:
    """N_Zh(Ly, s) = sum_j C(Ly, j) C(2j, j) s^(Ly - j)."""
    total = MultiPoly.zero()
    for j in range(ly + 1):
        total = total + comb(ly, j) * comb(2 * j, j) * S ** (ly - j)
    return total


def ph_total_closed(ly: int) -> MultiPoly:
    """N_Ph(Ly, s) = N_Zh(Ly, s-1) + N_Zh(Ly-1, s-1) for integer s >= 1."""
    if ly < 1:
        raise PreconditionUnmetError("ph totals need Ly >= 1")
    return (zh_total_closed(ly) + zh_total_closed(ly - 1)).substitute(s=S - 1)


def verify_row_structure(zh: list[dict[int, MultiPoly]],
                         ph: list[dict[int, MultiPoly]]) -> list[str]:
    """Endpoint formulas: n(Ly, Ly) = 1; n_Zh(Ly, Ly-1) = (s+1)Ly + (Ly-1)
    and n_Ph(Ly, Ly-1) = (s+1)Ly; plus the d-wise Ph-from-Zh relation."""
    failures = []
    for ly in range(1, len(zh)):
        if zh[ly][ly] != ONE or ph[ly][ly] != ONE:
            failures.append(f"n(Ly={ly}, d={ly}) != 1")
        if zh[ly][ly - 1] != (S + 1) * ly + (ly - 1):
            failures.append(f"n_Zh(Ly={ly}, d={ly - 1}) != (s+1)Ly + Ly - 1")
        if ph[ly][ly - 1] != (S + 1) * ly:
            failures.append(f"n_Ph(Ly={ly}, d={ly - 1}) != (s+1)Ly")
        shifted_sum = {d: zh[ly].get(d, _ZERO) + zh[ly - 1].get(d, _ZERO)
                       for d in range(ly + 1)}
        for d in range(ly + 1):
            if ph[ly][d] != shifted_sum[d].substitute(s=S - 1):
                failures.append(
                    f"n_Ph(Ly={ly}, d={d}) != shifted Zh combination")
    return failures


def verify_sum_identities(zh: list[dict[int, MultiPoly]],
                          ph: list[dict[int, MultiPoly]]) -> list[str]:
    """The weighted coefficient sums must reduce to state counts:

    sum_d c^(d)(q-s) n_Zh = q^Ly and sum_d c^(d)(q-s) n_Ph = q (q-1)^(Ly-1).
    """
    failures = []
    for ly in range(1, len(zh)):
        lhs = MultiPoly.zero()
        for d, mult in zh[ly].items():
            lhs = lhs + c_tilde(d) * mult
        if lhs != Q ** ly:
            failures.append(f"Zh coefficient sum at Ly={ly} != q^Ly")
        lhs = MultiPoly.zero()
        for d, mult in ph[ly].items():
            lhs = lhs + c_tilde(d) * mult
        if lhs != Q * (Q - 1) ** (ly - 1):
            failures.append(f"Ph coefficient sum at Ly={ly} != q(q-1)^(Ly-1)")
    return failures


def verify_totals(zh: list[dict[int, MultiPoly]],
                  ph: list[dict[int, MultiPoly]]) -> list[str]:
    """Row totals against the closed binomial forms."""
    failures = []
    for ly in range(1, len(zh)):
        if row_total(zh[ly]) != zh_total_closed(ly):
            failures.append(f"N_Zh(Ly={ly}) != binomial closed form")
        if row_total(ph[ly]) != ph_total_closed(ly):
            failures.append(f"N_Ph(Ly={ly}) != shifted closed form")
    return failures


def verify_c_values() -> list[str]:
    """c^(d)(0) = (-1)^d and c^(d)(1) cycles through 1, 0, -1 with period 3,
    for d = 0..8."""
    failures = []
    period = {0: 1, 1: 0, 2: -1}
    for d in range(9):
        if c_coeff(d, 0) != MultiPoly.const((-1) ** d):
            failures.append(f"c^({d})(0) != (-1)^{d}")
        if c_coeff(d, 1) != MultiPoly.const(period[d % 3]):
            failures.append(f"c^({d})(1) != {period[d % 3]}")
    return failures


@dataclass
class GrowthReport:
    kind: str
    s: int
    ratios: list[float]
    limit: float
    monotone: bool


def growth_report(kind: str, s_val: int, ly_max: int) -> GrowthReport:
    """Successive total ratios N(Ly+1)/N(Ly) against the (s+4) / (s+3) limits."""
    if s_val < 1:
        raise PreconditionUnmetError("growth rates are stated for integer s >= 1")
    if kind == "zh":
        rows = zh_count_rows(ly_max)
        limit = s_val + 4
    elif kind == "ph":
        rows = ph_count_rows(ly_max)
        limit = s_val + 3
    else:
        raise ValueError("kind must be 'zh' or 'ph'")
    totals = [row_total(rows[ly]).evaluate(s=Fraction(s_val))
              for ly in range(1, ly_max + 1)]
    ratios = [float(b / a) for a, b in zip(totals, totals[1:])]
    monotone = all(b >= a for a, b in zip(ratios, ratios[1:]))
    return GrowthReport(kind, s_val, ratios, float(limit), monotone)
