"""Closed-form partition sums for the structured families.

Everything here is assembled symbolically from small recurrences, so a
family value never touches the subgraph walk; tests compare the two routes.

Notation: qt = q - s throughout.

* null graph  N_n : Z = (qt + s*w)^n
* path        L_n : two-term transfer recurrence in (A, B) below
* star        S_n : binomial sum over the number of occupied spokes
* circuit     C_n : Newton power sums of the path transfer eigenvalues,
                    plus the two closed-orbit corrections
* complete    K_n : Ph only, falling-factorial layer formula

The path transfer pair tracks the partition sum split by the state of the
last vertex (inside the distinguished color set or not):

    A_1 = s*w,                 B_1 = q - s,
    A_{k+1} = w*((s+v)*A_k + s*B_k),
    B_{k+1} = (q-s)*A_k + (q-s+v)*B_k,      Z(L_n) = A_n + B_n.

The circuit uses p_k = lam1^k + lam2^k where lam1, lam2 are the roots of
lam^2 - e1*lam + e2 with

    e1 = q - s + v + w*(s + v),      e2 = v*w*(q + v),

via p_0 = 2, p_1 = e1, p_k = e1*p_{k-1} - e2*p_{k-2}, and

    Z(C_n) = p_n + (s - 1)*(v*w)^n + (q - s - 1)*v^n.
"""

from __future__ import annotations

from .errors import BadInputError, BadSizeError, NotExpressibleError
from .poly import ONE, Q, S, V, W, MultiPoly

QT = Q - S


def falling_factorial(base: MultiPoly, k: int) -> MultiPoly:
    out = ONE
    for i in range(k):
        out = out * (base - i)
    return out


def z_null(n: int) -> MultiPoly:
    if n < 0:
        raise BadSizeError("null family needs n >= 0")
    return (QT + S * W) ** n


def z_line(n: int) -> MultiPoly:
    if n < 1:
        raise BadSizeError("path family needs n >= 1")
    a, b = S * W, QT
    for _ in range(n - 1):
        a, b = W * ((S + V) * a + S * b), QT * a + (QT + V) * b
    return a + b


def z_star(n: int) -> MultiPoly:
    if n < 1:
        raise BadSizeError("star family needs n >= 1")
    from math import comb
    free_leaf = QT + S * W
    total = MultiPoly.zero()
    for j in range(n):
        # j occupied spokes merge the hub with j leaves into one block of
        # size j + 1; the other n-1-j leaves stay isolated
        term = comb(n - 1, j) * (V ** j) * (QT + S * (W ** (j + 1))) \
            * (free_leaf ** (n - 1 - j))
        total = total + term
    return total


def z_circuit(n: int) -> MultiPoly:
    if n < 1:
        raise BadSizeError("circuit family needs n >= 1")
    # The recurrence runs with the q slot holding qt, where e1 and e2 have
    # no minus signs and the power sums stay about half as long as in the
    # q basis; the sum is rewritten in q once, at the end.
    e1, e2 = Q + V + W * (S + V), V * W * (Q + S + V)
    p_prev, p = MultiPoly.const(2), e1
    for _ in range(n - 1):
        p_prev, p = p, e1 * p - e2 * p_prev
    z_qt = p + (S - 1) * (V * W) ** n + (Q - 1) * V ** n
    return z_qt.substitute(q=QT)


def z_circuit_zero_field(n: int) -> MultiPoly:
    """Z(C_n, q, v) = (q + v)^n + (q - 1) * v^n."""
    if n < 1:
        raise BadSizeError("circuit family needs n >= 1")
    return (Q + V) ** n + (Q - 1) * V ** n


def ph_complete(n: int) -> MultiPoly:
    """Ph(K_n): the w^l layer counts the l-subset colored inside the
    distinguished set, each side injectively: C(n,l) * s^(l) * (q-s)^(n-l)
    with falling powers."""
    if n < 1:
        raise BadSizeError("complete family needs n >= 1")
    from math import comb
    total = MultiPoly.zero()
    for ell in range(n + 1):
        total = total + comb(n, ell) * falling_factorial(S, ell) \
            * falling_factorial(QT, n - ell) * (W ** ell)
    return total


_Z_BUILDERS = {
    "null": z_null,
    "line": z_line,
    "star": z_star,
    "circuit": z_circuit,
}


def family_z(kind: str, n: int) -> MultiPoly:
    if kind == "complete":
        raise NotExpressibleError(
            "no closed form is provided for Z on complete graphs; "
            "use the subgraph engine, or family_ph for the v = -1 slice")
    if kind not in _Z_BUILDERS:
        raise BadInputError(f"unknown family {kind!r}")
    return _Z_BUILDERS[kind](n)


def family_ph(kind: str, n: int) -> MultiPoly:
    if kind == "complete":
        return ph_complete(n)
    return family_z(kind, n).substitute(v=-1)


def transmigration_check(n: int) -> bool:
    """On circuits, the fully distinguished slice folds back to zero field:
    Z(C_n, q, s=q, v, w) == w^n * Z(C_n, q, v)."""
    lhs = z_circuit(n).substitute(s=Q)
    rhs = (W ** n) * z_circuit_zero_field(n)
    return lhs == rhs
