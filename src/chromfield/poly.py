"""Sparse exact polynomials in the four variables (q, s, v, w).

Terms are stored as a dict mapping exponent 4-tuples to nonzero Python ints,
so all arithmetic is exact at arbitrary precision.  The variable slots are
fixed: index 0 is q, 1 is s, 2 is v, 3 is w.  Derived variables such as
the shifted q-s are handled by substitution, never as stored variables, so
every polynomial has exactly one canonical form.

``substitute`` binds variables to ints or to polynomials only, so its result
stays over Z; ``evaluate`` takes any numbers, Fractions and floats included.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

VARS = ("q", "s", "v", "w")
_IDX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int, int]


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
        """Simultaneously substitute variables by ints or polynomials.

        Each bound variable gets one row of powers up to its degree.  A
        term's int powers multiply its coefficient; its polynomial powers,
        when some variable is bound to a polynomial, are multiplied out
        into the exponents it keeps.  Any other binding raises TypeError.
        """
        for name, val in bindings.items():
            if name not in _IDX:
                raise ValueError(f"unknown variable {name!r}")
            if not isinstance(val, (int, MultiPoly)):
                raise TypeError(f"cannot substitute {type(val).__name__} "
                                f"for {name}; bind an int or a MultiPoly")
        if not bindings:
            return self
        int_rows, poly_rows = [], []
        for i, name in enumerate(VARS):
            if name in bindings:
                val = bindings[name]
                poly = isinstance(val, MultiPoly)
                row = [ONE if poly else 1]
                for _ in range(self.degree(name)):
                    row.append(row[-1] * val)
                (poly_rows if poly else int_rows).append((i, row))
        k0, k1, k2, k3 = (name not in bindings for name in VARS)
        out: dict[Exponent, int] = {}
        get = out.get
        for exp, c in self.terms.items():
            for i, row in int_rows:
                c *= row[exp[i]]
            key = (exp[0] * k0, exp[1] * k1, exp[2] * k2, exp[3] * k3)
            if poly_rows:
                part = None
                for i, row in poly_rows:
                    if exp[i]:
                        pw = row[exp[i]]
                        part = pw if part is None else part * pw
                if part is not None:
                    for pe, pc in part.terms.items():
                        pk = (key[0] + pe[0], key[1] + pe[1],
                              key[2] + pe[2], key[3] + pe[3])
                        out[pk] = get(pk, 0) + c * pc
                    continue
            out[key] = get(key, 0) + c
        return MultiPoly._trusted(out)

    def _scaled_terms(self, vals: list, skip: int = -1):
        """Yield (exponent, term) per term: its coefficient times
        vals[j] ** e for each slot j but ``skip``, in slot order.  Each
        power is taken once per (slot, exponent)."""
        pows: list[dict] = [{} for _ in VARS]
        for exp, c in self.terms.items():
            term = c
            for j, e in enumerate(exp):
                if e and j != skip:
                    cache = pows[j]
                    if e not in cache:
                        cache[e] = vals[j] ** e
                    term = term * cache[e]
            yield exp, term

    def evaluate(self, **values):
        """Numeric evaluation; every variable present in the poly must be bound."""
        for name in VARS:
            if name not in values and self.degree(name) > 0:
                raise ValueError(f"missing value for {name}")
        total = 0
        for _, term in self._scaled_terms([values.get(n, 0) for n in VARS]):
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

    def univariate(self, name: str, fixed: Mapping[str, float]) -> list[float]:
        """Ascending coefficients in one variable, the others at real values.

        Each power sums its terms with ``math.fsum``, so the list does not
        depend on the order of the terms: not on the vertex labels, nor on
        the engine that built the polynomial.  A complex fixed value raises
        TypeError, a term too large for a float OverflowError, and terms of
        opposite infinite sign ValueError.
        """
        if any(isinstance(val, complex) for val in fixed.values()):
            raise TypeError(f"fixed values must be real, got {fixed}")
        i = _IDX[name]
        deg = self.degree(name)
        if deg < 0:
            return []
        parts: list[list[float]] = [[] for _ in range(deg + 1)]
        for exp, term in self._scaled_terms([fixed.get(n, 0) for n in VARS], i):
            parts[exp[i]].append(float(term))
        return [math.fsum(p) for p in parts]

    # -- exact division -------------------------------------------------------

    def shift_down(self, name: str) -> "MultiPoly | None":
        """Exact quotient by the variable ``name``, or None if some term
        lacks it."""
        i = _IDX[name]
        out = {}
        for e, c in self.terms.items():
            if not e[i]:
                return None
            ne = list(e)
            ne[i] -= 1
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
    """Divide p exactly by the product of (name - shift) over the
    (name, shift) factors; a shift of 0 is the bare variable.  Returns the
    quotient or None."""
    out = p
    for name, shift in factors:
        if out is None:
            return None
        out = out.shift_down(name) if shift == 0 else out.div_linear(name, shift)
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
