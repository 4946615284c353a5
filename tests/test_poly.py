"""Exact sparse-polynomial arithmetic over (q, s, v, w)."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromfield.poly import (ONE, Q, S, V, VARS, W, MultiPoly, RationalExpr,
                             exact_div)

coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(*(st.integers(0, 3) for _ in range(4)))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(MultiPoly)


# -- ring axioms ---------------------------------------------------------------

@given(polys, polys, polys)
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(polys)
def test_additive_inverse_and_units(a):
    assert (a - a).is_zero()
    assert a * ONE == a
    assert a * MultiPoly.zero() == MultiPoly.zero()
    assert a + 0 == a and a * 1 == a


@given(polys, st.integers(0, 4))
def test_power_matches_repeated_product(a, k):
    prod = ONE
    for _ in range(k):
        prod = prod * a
    assert a ** k == prod


@given(polys, polys)
@settings(max_examples=40)
def test_evaluation_is_a_homomorphism(a, b):
    point = {"q": 3, "s": 2, "v": -1, "w": 5}
    assert (a * b).evaluate(**point) == a.evaluate(**point) * b.evaluate(**point)
    assert (a + b).evaluate(**point) == a.evaluate(**point) + b.evaluate(**point)


@given(polys, st.dictionaries(st.sampled_from(VARS), st.integers(-3, 3), min_size=1),
       st.dictionaries(st.sampled_from(VARS), polys, max_size=2))
@settings(max_examples=60)
@example(a=MultiPoly({(2, 1, 3, 0): 5, (0, 2, 1, 2): -7, (1, 0, 0, 3): 2, (0, 0, 2, 0): 4}),
         ints={"v": -1, "s": 2}, polys_in={})
@example(a=MultiPoly({(2, 1, 3, 0): 5, (0, 2, 1, 2): -7, (1, 0, 0, 3): 2, (0, 0, 2, 0): 4}),
         ints={"v": 2}, polys_in={"q": S - 1, "s": Q * W + 2})
def test_substitution_matches_evaluation_on_integers(a, ints, polys_in):
    # int and polynomial bindings together, checked by evaluating both
    # sides at an integer point: the substituted polynomial there, and the
    # original at the bound values (a polynomial binding taken at the point)
    ints = {k: c for k, c in ints.items() if k not in polys_in}
    subbed = a.substitute(**ints, **polys_in)
    assert all(type(c) is int for c in subbed.terms.values())
    point = {"q": 2, "s": -3, "v": 5, "w": 7}
    inner = {**point, **ints,
             **{k: p.evaluate(**point) for k, p in polys_in.items()}}
    assert subbed.evaluate(**point) == a.evaluate(**inner)


# -- substitution semantics ----------------------------------------------------

def test_substitution_is_simultaneous():
    p = Q * S
    swapped = p.substitute(q=S, s=Q)
    assert swapped == Q * S
    p2 = Q + S
    assert p2.substitute(q=S, s=Q) == Q + S
    # genuinely order-sensitive case: q -> s while s -> 0
    assert (Q + S).substitute(q=S, s=0) == S


def test_substitution_refuses_non_integer_scalars():
    # the result must stay over Z: Fractions and floats go to evaluate
    for val in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(TypeError):
            (2 * Q + 4).substitute(q=val)


def test_substitution_with_polynomial_values():
    z = (Q - S) * W + V
    assert z.substitute(q=Q + S) == Q * W + V
    # swap s <-> q-s composed twice is the identity
    once = z.substitute(s=Q - S)
    assert once.substitute(s=Q - S) == z


def test_evaluate_accepts_fractions_and_floats():
    p = Q ** 2 - W
    assert p.evaluate(q=Fraction(3, 2), w=Fraction(1, 4)) == Fraction(2)
    assert p.evaluate(q=2.0, w=0.5) == 3.5


def test_univariate_takes_real_values_and_gives_floats():
    p = Q ** 2 * S - W
    coeffs = p.univariate("q", {"s": Fraction(1, 3), "w": 0.5})
    assert coeffs == [-0.5, 0.0, 1 / 3]
    assert all(type(c) is float for c in coeffs)
    # v is not in p, so only the up-front check sees its complex value
    for bad in ({"s": 1j, "w": 0.5}, {"s": 1.0, "w": complex(0.5, 0)},
                {"s": 1.0, "w": 0.5, "v": 2j}):
        with pytest.raises(TypeError):
            p.univariate("q", bad)


# -- structural helpers --------------------------------------------------------

def test_reflection_inverts_exponents():
    p = S * W ** 3 + 2 * W - 5
    r = p.reflect("w", 3)
    assert r == S + 2 * W ** 2 - 5 * W ** 3
    assert r.reflect("w", 3) == p


def test_coefficient_slices_reassemble():
    p = (Q + S * W) ** 3 + V * W
    rebuilt = MultiPoly.zero()
    for k, layer in p.coeffs_in("w").items():
        rebuilt = rebuilt + layer * W ** k
    assert rebuilt == p
    assert p.coeffs_in("w")[3] == S ** 3


@pytest.mark.parametrize("exp", [(-1, 0, 0, 0), (1, 2, 3), (0, 1.5, 0, 0)])
def test_constructor_rejects_bad_exponents(exp):
    with pytest.raises(ValueError):
        MultiPoly({exp: 1})


@given(polys, st.sampled_from(VARS), st.integers(0, 3))
def test_own_results_are_canonical(a, name, k):
    # results built without re-validation: no zero coefficient, and the
    # same polynomial the validating constructor makes of their terms
    results = [a.reflect(name, 3 + k), a.substitute(**{name: k}),
               a.substitute(**{name: Q - 1}),
               a * (W - 1), (a * (W - 1)).div_linear("w", 1),
               (a * V).shift_down("v"),
               *a.coeffs_in(name).values()]
    for r in results:
        assert r is not None
        assert 0 not in r.terms.values()
        assert MultiPoly(r.terms) == r


def test_degree_and_content():
    p = 6 * Q ** 2 * W - 9 * S
    assert p.degree("q") == 2
    assert p.degree("s") == 1
    assert p.content() == 3


def test_linear_division_exact_and_refused():
    p = (W - 1) ** 2 * (Q + 3)
    q1 = p.div_linear("w", 1)
    assert q1 is not None and q1 == (W - 1) * (Q + 3)
    assert (W - 2).div_linear("w", 1) is None
    # divisor with a polynomial shift: (q - s) | (q^2 - s^2)
    quot = (Q ** 2 - S ** 2).div_linear("q", S)
    assert quot == Q + S
    # degree 0 in the variable and nonzero: never divisible, so never its
    # own quotient ("(q - s) divides beta_j" relies on this)
    assert MultiPoly.const(3).div_linear("q", 1) is None
    assert (S + 1).div_linear("q", S) is None


def test_monomial_shift_down():
    p = S ** 2 * W + S * V
    assert p.shift_down("s") == S * W + V
    assert (p + ONE).shift_down("s") is None


def test_exact_div_chains():
    p = S * (Q - S) * W * (W - 1)
    q1 = exact_div(p, [("s", 0), ("q", S), ("w", 0), ("w", 1)])
    assert q1 == ONE
    assert exact_div(p, [("v", 0)]) is None


# -- serialization -------------------------------------------------------------

@given(polys)
@settings(max_examples=40)
def test_json_round_trip(a):
    assert MultiPoly.from_json_dict(json.loads(json.dumps(a.to_json_dict()))) == a


def test_json_preserves_big_coefficients():
    p = MultiPoly.const(10 ** 40) * Q - 1
    assert MultiPoly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_render_orders_terms():
    p = Q ** 2 - 2 * Q * S + 1
    text = p.render()
    assert text.startswith("q^2")
    assert "s" in text and "1" in text


# -- rational expressions ------------------------------------------------------

def test_rational_reduction_and_equality():
    # only integer content is cancelled; monomial factors stay put and
    # equality is decided by cross-multiplication
    r = RationalExpr(2 * Q * S, 4 * S)
    assert r.num == Q * S and r.den == 2 * S
    assert r.equals(RationalExpr(Q ** 2, 2 * Q))
    assert r.equals(RationalExpr(Q, MultiPoly.const(2)))
    assert not r.equals(RationalExpr(Q, ONE))


def test_rational_evaluate():
    r = RationalExpr(Q ** 2 - 1, Q - 1)
    assert r.evaluate(q=Fraction(5)) == Fraction(6)
