"""Closed-form family polynomials against the engine and frozen fixtures.

Expected values come in three flavors: transparent factored expressions
written out inline, the independently frozen JSON fixtures, and the
engine itself.  Where an inline expression disagrees with older
hand-derived write-ups, the form used here is the one certified by both
the subgraph engine and the direct coloring oracle.
"""

from math import comb

import pytest

from chromfield.errors import BadSizeError, NotExpressibleError
from chromfield.families import (falling_factorial, family_ph, family_z,
                                 ph_complete, transmigration_check, z_circuit,
                                 z_circuit_zero_field, z_line, z_null, z_star)
from chromfield.graphs import (circuit_graph, complete_graph, line_graph,
                               make_family, null_graph, star_graph)
from chromfield.partition import ph_poly, z_poly, zero_field_poly
from chromfield.poly import ONE, Q, S, V, W, MultiPoly

QT = Q - S
T = S * (W - 1)


# -- golden frozen fixtures ----------------------------------------------------

def test_golden_z_fixtures(golden_z, catalog):
    for name, data in golden_z.items():
        assert z_poly(catalog[name]) == MultiPoly.from_json_dict(data), name


def test_golden_ph_fixtures(golden_ph):
    graphs = {"line4": line_graph(4), "k5": complete_graph(5),
              "c4d": make_family("c4d", 4), "star5": star_graph(5)}
    for name, data in golden_ph.items():
        assert ph_poly(graphs[name]) == MultiPoly.from_json_dict(data), name


# -- null (edgeless) family ----------------------------------------------------

def test_null_family_closed_form():
    for n in range(1, 6):
        assert z_null(n) == (QT + S * W) ** n
        assert z_null(n) == z_poly(null_graph(n))


# -- path family ---------------------------------------------------------------

def test_line2_both_expansions():
    expected_w = S * (S + V) * W ** 2 + 2 * S * QT * W + QT * (QT + V)
    expected_t = Q ** 2 + (2 * T + V) * Q + T * (T + V * (W + 1))
    assert z_line(2) == expected_w == expected_t
    assert z_line(2) == z_poly(line_graph(2))


def test_line3_both_expansions():
    expected_w = (S * (S + V) ** 2 * W ** 3
                  + S * QT * (3 * S + 2 * V) * W ** 2
                  + S * QT * (3 * QT + 2 * V) * W
                  + QT * (QT + V) ** 2)
    expected_t = (Q ** 3 + (3 * T + 2 * V) * Q ** 2
                  + (3 * T ** 2 + 2 * V * T * W + 4 * V * T + V ** 2) * Q
                  + T * (V ** 2 * W ** 2 + 2 * V * T * W + W * V ** 2
                         + T ** 2 + 2 * V * T + V ** 2))
    assert z_line(3) == expected_w == expected_t
    assert z_line(3) == z_poly(line_graph(3))


def test_line4_w_expansion():
    expected = (S * (S + V) ** 3 * W ** 4
                + 2 * S * QT * (S + V) * (2 * S + V) * W ** 3
                + S * QT * (-3 * (S ** 2 + QT ** 2) + 3 * Q * (Q + V)
                            + 2 * V ** 2) * W ** 2
                + 2 * S * QT * (QT + V) * (2 * QT + V) * W
                + QT * (QT + V) ** 3)
    assert z_line(4) == expected
    assert z_line(4) == z_poly(line_graph(4))


def test_line_family_matches_engine():
    for n in range(1, 7):
        assert z_line(n) == z_poly(line_graph(n))


# -- star family ---------------------------------------------------------------

def test_star_sum_formula_matches_engine():
    for n in range(2, 7):
        assert z_star(n) == z_poly(star_graph(n))


def test_star4_layer_expansion():
    """w-layers of the 4-star; the extremal layers are tree partition sums
    in s and in q-s respectively."""
    def tree4(x):
        return x * (x + V) ** 3
    expected = (tree4(S) * W ** 4
                + S * QT * (4 * S ** 2 + 6 * S * V + 3 * V ** 2) * W ** 3
                + 3 * S * QT * (2 * S * QT + Q * V) * W ** 2
                + S * QT * (4 * QT ** 2 + 6 * QT * V + 3 * V ** 2) * W
                + tree4(QT))
    assert z_star(4) == expected


def test_star3_coincides_with_line3():
    assert z_star(3) == z_line(3)


# -- circuit family ------------------------------------------------------------

def test_circuit_family_matches_engine():
    for n in range(1, 7):
        assert z_circuit(n) == z_poly(circuit_graph(n))


def test_circuit2_layer_expansion():
    def c2_zero_field(x):
        return (x + V) ** 2 + (x - 1) * V ** 2
    expected = (c2_zero_field(S) * W ** 2 + 2 * S * QT * W
                + c2_zero_field(QT))
    expected_t = (Q ** 2 + (2 * T + V * (V + 2)) * Q
                  + T * (T + V * (V + 2) * (W + 1)))
    assert z_circuit(2) == expected == expected_t


def test_circuit3_layer_expansion():
    def c3_zero_field(x):
        return (x + V) ** 3 + (x - 1) * V ** 3
    expected = (c3_zero_field(S) * W ** 3
                + 3 * S * QT * (S + V) * W ** 2
                + 3 * S * QT * (QT + V) * W
                + c3_zero_field(QT))
    assert z_circuit(3) == expected


def test_circuit4_layer_expansion():
    def c4_zero_field(x):
        return (x + V) ** 4 + (x - 1) * V ** 4
    expected = (c4_zero_field(S) * W ** 4
                + 4 * S * QT * (S + V) ** 2 * W ** 3
                + 2 * S * QT * (3 * S * QT + 2 * V * (Q + V)) * W ** 2
                + 4 * S * QT * (QT + V) ** 2 * W
                + c4_zero_field(QT))
    assert z_circuit(4) == expected


def test_circuit_zero_field_form():
    for n in range(1, 7):
        assert z_circuit_zero_field(n) == zero_field_poly(circuit_graph(n))
        assert z_circuit_zero_field(n) == (Q + V) ** n + (Q - 1) * V ** n


def test_circuit_ph_at_two_colors_odd_girth():
    ph3 = ph_poly(circuit_graph(3)).substitute(q=2)
    assert ph3 == S * (S - 1) * (S - 2) * (W - 1) ** 3
    # vanishes identically at each admissible integer s
    for s in (0, 1, 2):
        assert ph3.substitute(s=s).is_zero()


def test_transmigration_identity():
    for n in range(1, 9):
        assert transmigration_check(n)


# -- complete family -----------------------------------------------------------

def test_complete_ph_formula():
    for n in range(1, 6):
        expected = MultiPoly.zero()
        for ell in range(n + 1):
            expected = expected + (comb(n, ell)
                                   * falling_factorial(S, ell)
                                   * falling_factorial(QT, n - ell)
                                   * W ** ell)
        assert ph_complete(n) == expected
        assert ph_complete(n) == ph_poly(complete_graph(n))


def test_complete_ph_extremal_layers():
    n = 4
    p = ph_complete(n)
    layers = p.coeffs_in("w")
    assert layers[n] == falling_factorial(S, n)
    assert layers[0] == falling_factorial(QT, n)


# -- dispatch ------------------------------------------------------------------

def test_family_dispatch():
    assert family_z("line", 3) == z_line(3)
    assert family_ph("circuit", 4) == z_circuit(4).substitute(v=-1)
    assert family_ph("complete", 4) == ph_complete(4)
    with pytest.raises(NotExpressibleError):
        family_z("complete", 4)
    with pytest.raises(BadSizeError):
        z_circuit(0)
