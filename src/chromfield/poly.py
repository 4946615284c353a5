"""Sparse exact polynomials in the four variables (q, s, v, w).

Terms are stored as a dict mapping exponent 4-tuples to nonzero Python ints,
so all arithmetic is exact at arbitrary precision.  The variable slots are
fixed: index 0 is q, 1 is s, 2 is v, 3 is w.  Derived variables such as
t = s*(w-1) and the shifted q-s are handled as views (``rebase_t`` and
substitution), never as stored variables, so every polynomial has exactly one
canonical form.

Rationals appear only transiently: ``substitute`` accepts Fraction bindings
and raises NonIntegerResultError if the result does not clear to integer
coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import NonIntegerResultError, NotExpressibleError

VARS = ("q", "s", "v", "w")
_IDX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int, int]
Scalar = Union[int, Fraction]


def _term_sort_key(item):
    exp = item[0]
    return (-sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Exact sparse polynomial over Z in (q, s, v, w)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, c in terms.items():
                if c == 0:
                    continue
                if len(exp) != 4 or any(e < 0 or not isinstance(e, int) for e in exp):
                    raise ValueError(f"bad exponent tuple {exp!r}")
                clean[tuple(exp)] = clean.get(tuple(exp), 0) + c
            clean = {e: c for e, c in clean.items() if c != 0}
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _trusted(cls, terms: dict[Exponent, int]) -> "MultiPoly":
        """Wrap terms whose keys are already distinct 4-tuples of
        non-negative ints, dropping zero coefficients only.  For engine
        output and this class's own results; callers outside the package
        use the validating constructor."""
        res = cls.__new__(cls)
        res.terms = {e: c for e, c in terms.items() if c}
        return res

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({(0, 0, 0, 0): int(c)})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        exp = [0, 0, 0, 0]
        exp[_IDX[name]] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def monomial(cls, exp: Exponent, c: int = 1) -> "MultiPoly":
        return cls({tuple(exp): int(c)})

    # -- ring operations ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            nc = out.get(exp, 0) + c
            if nc:
                out[exp] = nc
            elif exp in out:
                del out[exp]
        res = MultiPoly.__new__(MultiPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        res = MultiPoly.__new__(MultiPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero()
            res = MultiPoly.__new__(MultiPoly)
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                nc = out.get(exp, 0) + c1 * c2
                if nc:
                    out[exp] = nc
                elif exp in out:
                    del out[exp]
        res = MultiPoly.__new__(MultiPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure queries ----------------------------------------------------

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = _IDX[name]
        return max((e[i] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def coeffs_in(self, name: str) -> dict[int, "MultiPoly"]:
        """All coefficients keyed by exponent of the chosen variable."""
        i = _IDX[name]
        grouped: dict[int, dict[Exponent, int]] = {}
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            grouped.setdefault(k, {})[tuple(ne)] = c
        return {k: MultiPoly._trusted(d) for k, d in grouped.items()}

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
        return g

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in graded-lex order, highest grade first."""
        return sorted(self.terms.items(), key=_term_sort_key)

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, **bindings) -> "MultiPoly":
        """Simultaneously substitute variables by ints, Fractions or polynomials.

        Raises NonIntegerResultError if Fraction bindings leave non-integer
        coefficients in the result.
        """
        for name in bindings:
            if name not in _IDX:
                raise ValueError(f"unknown variable {name!r}")
        if not bindings:
            return self
        if all(isinstance(val, int) for val in bindings.values()):
            return self._substitute_ints(bindings)
        poly_pows: dict[str, dict[int, MultiPoly]] = {
            n: {0: MultiPoly.one()} for n in bindings
        }
        # int bindings keep the arithmetic in ints; any other scalar is
        # made an exact Fraction
        scalars = {n: v if isinstance(v, int) else Fraction(v)
                   for n, v in bindings.items() if not isinstance(v, MultiPoly)}
        acc: dict[Exponent, Scalar] = {}
        for exp, c in self.terms.items():
            scalar = c
            poly_part: MultiPoly | None = None
            kept = [0, 0, 0, 0]
            for i, name in enumerate(VARS):
                e = exp[i]
                if e == 0:
                    continue
                if name not in bindings:
                    kept[i] = e
                    continue
                if name in scalars:
                    scalar *= scalars[name] ** e
                    continue
                val = bindings[name]
                cache = poly_pows[name]
                if e not in cache:
                    p = cache[max(cache)]
                    for _ in range(max(cache), e):
                        p = p * val
                        cache[max(cache) + 1] = p
                pw = cache[e]
                poly_part = pw if poly_part is None else poly_part * pw
            base = tuple(kept)
            if poly_part is None:
                acc[base] = acc.get(base, 0) + scalar
            else:
                for pe, pc in poly_part.terms.items():
                    key = (base[0] + pe[0], base[1] + pe[1],
                           base[2] + pe[2], base[3] + pe[3])
                    acc[key] = acc.get(key, 0) + scalar * pc
        out: dict[Exponent, int] = {}
        for exp, val in acc.items():
            if val.denominator != 1:
                raise NonIntegerResultError(
                    f"coefficient {val} at exponent {exp} is not an integer")
            out[exp] = int(val)
        return MultiPoly._trusted(out)

    def _substitute_ints(self, bindings: Mapping[str, int]) -> "MultiPoly":
        """``substitute`` where every value is an int: one power table per
        bound variable and one exponent tuple per term, with no Fraction
        and no polynomial powers."""
        bound = []
        for i, name in enumerate(VARS):
            if name in bindings:
                val, row = bindings[name], [1]
                for _ in range(self.degree(name)):
                    row.append(row[-1] * val)
                bound.append((i, row))
        k0, k1, k2, k3 = (name not in bindings for name in VARS)
        out: dict[Exponent, int] = {}
        get = out.get
        for exp, c in self.terms.items():
            for i, row in bound:
                c *= row[exp[i]]
            key = (exp[0] * k0, exp[1] * k1, exp[2] * k2, exp[3] * k3)
            out[key] = get(key, 0) + c
        return MultiPoly._trusted(out)

    def evaluate(self, **values):
        """Numeric evaluation; every variable present in the poly must be bound."""
        for name in VARS:
            if name not in values and self.degree(name) > 0:
                raise ValueError(f"missing value for {name}")
        pows = [dict() for _ in range(4)]
        vals = [values.get(n, 0) for n in VARS]
        total = 0
        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                cache = pows[i]
                if e not in cache:
                    cache[e] = vals[i] ** e
                term = term * cache[e]
            total = total + term
        return total

    def reflect(self, name: str, n: int) -> "MultiPoly":
        """Map each exponent e of ``name`` to n-e (the w -> 1/w mirror times w^n)."""
        i = _IDX[name]
        if self.degree(name) > n:
            raise ValueError(f"degree in {name} exceeds reflection order {n}")
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] = n - ne[i]
            out[tuple(ne)] = c
        return MultiPoly._trusted(out)

    def univariate(self, name: str, fixed: Mapping[str, complex]) -> list[complex]:
        """Ascending coefficient list in one variable, other variables numeric.

        Each power sums its terms with ``math.fsum``, real and imaginary
        parts apart, so the list does not depend on the order of the terms:
        not on the vertex labels, nor on the engine that built the
        polynomial.  A term too large for a float raises OverflowError, and
        terms of opposite infinite sign raise ValueError.
        """
        i = _IDX[name]
        deg = self.degree(name)
        if deg < 0:
            return []
        vals = [fixed.get(n, 0) for n in VARS]
        parts: list[list[complex]] = [[] for _ in range(deg + 1)]
        for exp, c in self.terms.items():
            term = c
            for j, e in enumerate(exp):
                if e and j != i:
                    term = term * vals[j] ** e
            parts[exp[i]].append(complex(term))
        return [complex(math.fsum(z.real for z in p), math.fsum(z.imag for z in p))
                for p in parts]

    # -- exact division -------------------------------------------------------

    def shift_down(self, name: str, k: int = 1) -> "MultiPoly | None":
        """Exact quotient by name**k, or None if some term has lower degree."""
        i = _IDX[name]
        out = {}
        for e, c in self.terms.items():
            if e[i] < k:
                return None
            ne = list(e)
            ne[i] -= k
            out[tuple(ne)] = c
        return MultiPoly._trusted(out)

    def div_linear(self, name: str, shift) -> "MultiPoly | None":
        """Exact quotient by (name - shift); None if the remainder is nonzero.

        ``shift`` must not involve ``name``.
        """
        if isinstance(shift, int):
            shift = MultiPoly.const(shift)
        if shift.degree(name) > 0:
            raise ValueError("shift may not involve the divided variable")
        coeffs = self.coeffs_in(name)
        deg = self.degree(name)
        if deg < 0:
            return self  # zero divides exactly
        quot: dict[int, MultiPoly] = {}
        carry = MultiPoly.zero()
        for k in range(deg, 0, -1):
            b = coeffs.get(k, MultiPoly.zero()) + shift * carry
            quot[k - 1] = b
            carry = b
        rem = coeffs.get(0, MultiPoly.zero()) + shift * carry
        if not rem.is_zero():
            return None
        i = _IDX[name]
        out: dict[Exponent, int] = {}
        for k, p in quot.items():
            for e, c in p.terms.items():
                ne = list(e)
                ne[i] += k
                key = tuple(ne)
                out[key] = out.get(key, 0) + c
        return MultiPoly._trusted(out)

    # -- t-basis view ---------------------------------------------------------

    def rebase_t(self) -> "MultiPoly":
        """Rewrite with s eliminated via t = s*(w-1); the s slot then holds t.

        Works exactly when every s^j coefficient is divisible by (w-1)^j,
        which is the case whenever s enters only through t.  Raises
        NotExpressibleError otherwise.
        """
        out = MultiPoly.zero()
        for j, cj in self.coeffs_in("s").items():
            dj = cj
            for _ in range(j):
                dj = dj.div_linear("w", 1)
                if dj is None:
                    raise NotExpressibleError(
                        "polynomial is not expressible in t = s*(w-1)")
            out = out + dj * MultiPoly.monomial((0, j, 0, 0))
        return out

    def unrebase_t(self) -> "MultiPoly":
        """Inverse of rebase_t: interpret the s slot as t and expand t = s*(w-1)."""
        wm1 = MultiPoly.var("w") - 1
        out = MultiPoly.zero()
        for j, cj in self.coeffs_in("s").items():
            out = out + cj * (wm1 ** j) * MultiPoly.monomial((0, j, 0, 0))
        return out

    # -- serialization and display --------------------------------------------

    def to_json_dict(self, names: Iterable[str] = VARS) -> dict:
        return {
            "vars": list(names),
            "terms": [
                {"e": list(exp), "c": str(c)} for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultiPoly":
        terms = {}
        for t in data["terms"]:
            exp = tuple(int(x) for x in t["e"])
            terms[exp] = terms.get(exp, 0) + int(t["c"])
        return cls(terms)

    def render(self, names: Iterable[str] = VARS) -> str:
        names = tuple(names)
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                if e == 1:
                    factors.append(names[i])
                else:
                    factors.append(f"{names[i]}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text

    def __repr__(self) -> str:
        r = self.render()
        if len(r) > 120:
            r = r[:117] + "..."
        return f"MultiPoly({r})"


# Convenience atoms used throughout the package.
Q = MultiPoly.var("q")
S = MultiPoly.var("s")
V = MultiPoly.var("v")
W = MultiPoly.var("w")
ONE = MultiPoly.one()


def exact_div(p: MultiPoly, factors: Iterable[tuple[str, object]]) -> MultiPoly | None:
    """Divide p exactly by a product of simple factors.

    Each factor is ("mono", name) for a bare variable or ("lin", name, shift)
    for (name - shift).  Returns the quotient or None.
    """
    out = p
    for f in factors:
        if out is None:
            return None
        if f[0] == "mono":
            out = out.shift_down(f[1])
        elif f[0] == "lin":
            out = out.div_linear(f[1], f[2])
        else:
            raise ValueError(f"unknown factor kind {f[0]!r}")
    return out


class RationalExpr:
    """A numerator/denominator pair of MultiPoly, reduced only by integer content."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(num.content(), den.content())
        if g > 1:
            num = MultiPoly({e: c // g for e, c in num.terms.items()})
            den = MultiPoly({e: c // g for e, c in den.terms.items()})
        # normalize the sign of the denominator's leading term
        lead = den.sorted_terms()[0][1]
        if lead < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    def equals(self, other: "RationalExpr") -> bool:
        return (self.num * other.den) == (other.num * self.den)

    def evaluate(self, **values):
        return self.num.evaluate(**values) / self.den.evaluate(**values)

    def __repr__(self) -> str:
        return f"RationalExpr(({self.num.render()}) / ({self.den.render()}))"
