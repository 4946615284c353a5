"""Multiplicity tables for cyclic square-lattice strips.

The recurrences build n(Ly, d) tables whose rows must match hand-checkable
polynomials for small widths, telescope against q^Ly and q(q-1)^(Ly-1)
under the alternating c-weights, and reproduce binomial closed-form totals.
"""

from fractions import Fraction

import pytest

from chromfield import strips
from chromfield.errors import PreconditionUnmetError
from chromfield.poly import Q, S, MultiPoly
from chromfield.strips import (c_coeff, c_tilde, growth_report, ph_count_rows,
                               ph_total_closed, row_total, verify_c_values,
                               verify_row_structure, verify_sum_identities,
                               verify_totals, zh_count_rows, zh_total_closed)


# -- c-coefficient family ------------------------------------------------------

def test_c_coeff_small_degrees():
    x = Q
    assert c_coeff(0, x) == MultiPoly.one()
    assert c_coeff(1, x) == x - 1
    assert c_coeff(2, x) == x ** 2 - 3 * x + 1
    assert c_coeff(3, x) == x ** 3 - 5 * x ** 2 + 6 * x - 1


def test_c_coeff_special_values():
    for d in range(8):
        assert c_coeff(d, MultiPoly.zero()).evaluate() == (-1) ** d
    period3 = [1, 0, -1]
    for d in range(8):
        assert c_coeff(d, MultiPoly.one()).evaluate() == period3[d % 3]


def test_c_tilde_shifts_argument_by_s():
    qt = Q - S
    assert c_tilde(2) == qt ** 2 - 3 * qt + 1
    assert c_tilde(1) == qt - 1


# -- printed small-width tables ------------------------------------------------

def test_zh_rows_small_widths():
    rows = zh_count_rows(4)
    assert rows[2][0] == S ** 2 + 2 * S + 2
    assert rows[3][0] == S ** 3 + 3 * S ** 2 + 6 * S + 5
    assert rows[3][1] == 3 * (S ** 2 + 3 * S + 3)
    assert rows[4][0] == S ** 4 + 4 * S ** 3 + 12 * S ** 2 + 20 * S + 14
    assert rows[4][1] == 4 * S ** 3 + 18 * S ** 2 + 36 * S + 28
    assert rows[4][2] == 6 * S ** 2 + 20 * S + 20


def test_ph_rows_small_widths():
    rows = ph_count_rows(4)
    assert rows[2][0] == S ** 2 + S + 1
    assert rows[3][0] == S ** 3 + S ** 2 + 3 * S + 2
    assert rows[3][1] == 3 * S ** 2 + 5 * S + 4
    assert rows[4][0] == S ** 4 + S ** 3 + 6 * S ** 2 + 7 * S + 4
    assert rows[4][1] == 4 * S ** 3 + 9 * S ** 2 + 15 * S + 9
    assert rows[4][2] == 6 * S ** 2 + 11 * S + 8


def test_row_boundary_entries():
    zh = zh_count_rows(5)
    ph = ph_count_rows(5)
    for ly in range(1, 6):
        assert zh[ly][ly] == MultiPoly.one()
        assert ph[ly][ly] == MultiPoly.one()
        if ly >= 1:
            assert zh[ly][ly - 1] == (S + 1) * ly + (ly - 1)
            assert ph[ly][ly - 1] == (S + 1) * ly


# -- structural verifications --------------------------------------------------

def test_row_structure_check():
    failures = verify_row_structure(zh_count_rows(6), ph_count_rows(6))
    assert not failures, failures


def test_sum_identities_symbolic():
    failures = verify_sum_identities(zh_count_rows(6), ph_count_rows(6))
    assert not failures, failures


def test_totals_check():
    failures = verify_totals(zh_count_rows(6), ph_count_rows(6))
    assert not failures, failures


def test_c_values_check():
    failures = verify_c_values()
    assert not failures, failures


def test_ph_rows_follow_from_zh_rows():
    """n_Ph(Ly, d) at s equals n_Zh(Ly, d) + n_Zh(Ly-1, d) at s-1."""
    zh = zh_count_rows(6)
    ph = ph_count_rows(6)
    shifted = S - 1
    for ly in range(1, 7):
        for d in range(ly + 1):
            lower = zh[ly - 1].get(d, MultiPoly.zero())
            expected = (zh[ly][d] + lower).substitute(s=shifted)
            assert ph[ly][d] == expected, (ly, d)


# -- negative controls ---------------------------------------------------------
# The checks above see only true tables, so a check that stopped checking
# would still pass them.  Here one entry of a row table is changed by one
# monomial, and the check must name that entry.

@pytest.mark.parametrize("check, kind, ly, d, failure", [
    (verify_row_structure, "zh", 2, 2, "n(Ly=2, d=2) != 1"),
    (verify_row_structure, "zh", 3, 2, "n_Zh(Ly=3, d=2) != (s+1)Ly + Ly - 1"),
    (verify_row_structure, "ph", 3, 2, "n_Ph(Ly=3, d=2) != (s+1)Ly"),
    (verify_row_structure, "ph", 4, 1,
     "n_Ph(Ly=4, d=1) != shifted Zh combination"),
    (verify_sum_identities, "zh", 4, 1, "Zh coefficient sum at Ly=4 != q^Ly"),
    (verify_sum_identities, "ph", 4, 1,
     "Ph coefficient sum at Ly=4 != q(q-1)^(Ly-1)"),
    (verify_totals, "zh", 5, 0, "N_Zh(Ly=5) != binomial closed form"),
    (verify_totals, "ph", 5, 0, "N_Ph(Ly=5) != shifted closed form"),
])
def test_row_checks_see_one_monomial(check, kind, ly, d, failure):
    zh, ph = zh_count_rows(6), ph_count_rows(6)
    rows = zh if kind == "zh" else ph
    rows[ly][d] = rows[ly][d] + S
    assert failure in check(zh, ph)


def test_c_values_check_sees_one_monomial(monkeypatch):
    true_c = strips.c_coeff
    monkeypatch.setattr(strips, "c_coeff",
                        lambda d, arg: true_c(d, arg) + (Q if d == 4 else 0))
    assert verify_c_values() == ["c^(4)(0) != (-1)^4", "c^(4)(1) != 0"]


# -- totals --------------------------------------------------------------------

def test_zh_totals_closed_forms():
    expected = {
        1: S + 2,
        2: S ** 2 + 4 * S + 6,
        3: S ** 3 + 6 * S ** 2 + 18 * S + 20,
        4: S ** 4 + 8 * S ** 3 + 36 * S ** 2 + 80 * S + 70,
        5: S ** 5 + 10 * S ** 4 + 60 * S ** 3 + 200 * S ** 2 + 350 * S + 252,
        6: (S ** 6 + 12 * S ** 5 + 90 * S ** 4 + 400 * S ** 3
            + 1050 * S ** 2 + 1512 * S + 924),
    }
    rows = zh_count_rows(6)
    for ly, form in expected.items():
        assert zh_total_closed(ly) == form
        assert row_total(rows[ly]) == form
    # width-3 total factors through (s+2)
    assert expected[3] == (S + 2) * (S ** 2 + 4 * S + 10)


def test_ph_totals_closed_forms():
    expected = {
        1: S + 2,
        2: S ** 2 + 3 * S + 4,
        3: S ** 3 + 4 * S ** 2 + 11 * S + 10,
        4: S ** 4 + 5 * S ** 3 + 21 * S ** 2 + 37 * S + 26,
        5: S ** 5 + 6 * S ** 4 + 34 * S ** 3 + 88 * S ** 2 + 123 * S + 70,
        # the s^2 coefficient below is forced to 355 by the zh totals
        # relation; independent recomputation confirms it
        6: (S ** 6 + 7 * S ** 5 + 50 * S ** 4 + 170 * S ** 3
            + 355 * S ** 2 + 401 * S + 192),
    }
    rows = ph_count_rows(6)
    for ly, form in expected.items():
        assert ph_total_closed(ly) == form
        assert row_total(rows[ly]) == form


def test_total_relation_across_families():
    for ly in range(1, 7):
        lhs = ph_total_closed(ly)
        rhs = (zh_total_closed(ly) + zh_total_closed(ly - 1)).substitute(s=S - 1)
        assert lhs == rhs


# -- growth of totals ----------------------------------------------------------

@pytest.mark.parametrize("kind,s_val,limit", [("zh", 1, 5.0), ("zh", 2, 6.0),
                                              ("ph", 1, 4.0), ("ph", 3, 6.0)])
def test_growth_monotone_toward_limit(kind, s_val, limit):
    rep = growth_report(kind, s_val, ly_max=9)
    assert rep.limit == limit
    assert rep.monotone
    assert rep.ratios[-1] < limit
    # approach: final ratio within 10% of the limiting value
    assert rep.ratios[-1] > 0.9 * limit


def test_growth_requires_positive_s():
    with pytest.raises(PreconditionUnmetError):
        growth_report("zh", 0, 4)
