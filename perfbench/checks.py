"""Independent computations that every benchmark output is checked against.

Nothing here imports chromfield.  Polynomials arrive as the raw term dicts
the program produced ({(q, s, v, w) exponents: int coefficient}); they are
sliced and evaluated by this module's own term evaluator and compared with
closed forms, brute-force coloring counts and brute-force subgraph sums.
Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from math import comb, factorial

_IDX = {"q": 0, "s": 1, "v": 2, "w": 3}


# -- own term evaluator -------------------------------------------------------

def collapse(terms: dict, **fixed) -> dict:
    """Set the named variables to numbers; returns {exponent: coeff} over the
    remaining variables, with the fixed slots zeroed and zero terms dropped."""
    slots = [(_IDX[name], val) for name, val in fixed.items()]
    out: dict = {}
    for exp, c in terms.items():
        e = list(exp)
        for i, val in slots:
            if e[i]:
                c = c * val ** e[i]
                e[i] = 0
        key = tuple(e)
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def value_at(terms: dict, q, s, v, w):
    return collapse(terms, q=q, s=s, v=v, w=w).get((0, 0, 0, 0), 0)


def univariate(terms: dict, var: str, **fixed) -> list:
    """Ascending coefficients in ``var`` with the other three variables fixed."""
    i = _IDX[var]
    sliced = collapse(terms, **fixed)
    deg = max((e[i] for e in sliced), default=-1)
    coeffs = [0] * (deg + 1)
    for e, c in sliced.items():
        coeffs[e[i]] += c
    return coeffs


def horner(coeffs: list, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def terms_from_json(poly: dict) -> dict:
    return {tuple(int(x) for x in t["e"]): int(t["c"]) for t in poly["terms"]}


# -- own graph computations ---------------------------------------------------

def bipartition(n: int, edges) -> tuple[int, int] | None:
    """Side sizes of a connected graph's 2-coloring, or None on an odd cycle."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    zeros = color.count(0)
    return zeros, n - zeros


def coloring_counts(n: int, edges, q: int, s: int) -> dict[int, int]:
    """{k: proper q-colorings with k vertices colored from {0..s-1}}, by
    backtracking over the vertices in order."""
    if any(u == v for u, v in edges):
        return {}
    earlier = [[] for _ in range(n)]
    for u, v in edges:
        earlier[max(u, v)].append(min(u, v))
    colors = [0] * n
    counts: dict[int, int] = {}

    def rec(x: int, k: int) -> None:
        if x == n:
            counts[k] = counts.get(k, 0) + 1
            return
        for c in range(q):
            if all(colors[y] != c for y in earlier[x]):
                colors[x] = c
                rec(x + 1, k + (c < s))

    rec(0, 0)
    return counts


def ph_brute(n: int, edges, q: int, s: int, w) -> Fraction:
    return sum(Fraction(cnt) * Fraction(w) ** k
               for k, cnt in coloring_counts(n, edges, q, s).items())


def z_brute(n: int, edges, q, s, v, w):
    """Z(G,q,s,v,w) summed over all 2^e spanning subgraphs."""
    total = 0
    m = len(edges)
    for mask in range(1 << m):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        chosen = 0
        for j in range(m):
            if mask >> j & 1:
                chosen += 1
                a, b = find(edges[j][0]), find(edges[j][1])
                if a != b:
                    parent[a] = b
        sizes: dict[int, int] = {}
        for x in range(n):
            r = find(x)
            sizes[r] = sizes.get(r, 0) + 1
        term = v ** chosen
        for size in sizes.values():
            term = term * (q - s + s * w ** size)
        total = total + term
    return total


def interpolate(xs: list, ys: list) -> list:
    """Ascending coefficients of the polynomial through the points (exact)."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            den *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += yi * b / den
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# -- checks: strip and dense --------------------------------------------------

def check_relabel(z: dict, ref: dict) -> str | None:
    if z != ref:
        return "Z differs from Z of another relabeling of the same graph"
    return None


def check_v0(z: dict, n: int) -> str | None:
    want: dict = {}
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            coeff = factorial(n) // (factorial(a) * factorial(b) * factorial(c))
            want[(a, b + c, 0, c)] = coeff * (-1) ** b
    if collapse(z, v=0) != want:
        return "Z(v=0) != (q-s+sw)^n"
    return None


def check_one_color(z: dict, e: int) -> str | None:
    want = {(0, 0, k, 0): comb(e, k) for k in range(e + 1)}
    if collapse(z, q=1, s=0) != want:
        return "Z(q=1,s=0) != (1+v)^e"
    return None


def check_bipartite(ph: dict, n: int, edges) -> str | None:
    sides = bipartition(n, edges)
    want: dict = {}
    if sides is not None:
        for size in sides:
            want[(0, 0, 0, size)] = want.get((0, 0, 0, size), 0) + 1
    if collapse(ph, q=2, s=1) != want:
        kind = "w^|A| + w^|B|" if sides else "0 (odd cycle)"
        return f"Ph(q=2,s=1,w) != {kind}"
    return None


# -- checks: suite ------------------------------------------------------------

def check_verdicts(verdicts) -> str | None:
    bad = [v.name for v in verdicts if not v.holds]
    if not verdicts or bad:
        return f"identities fail: {bad}" if bad else "empty identity suite"
    return None


def check_point(ph: dict, oracle_value, brute_value, q, s, w) -> str | None:
    mine = value_at(ph, q, s, 0, w)
    if not (mine == Fraction(oracle_value) == brute_value):
        return (f"Ph({q},{s},{w}): poly {mine}, oracle {oracle_value}, "
                f"brute force {brute_value}")
    return None


def check_roots(coeffs: list, roots, degree: int, tol: float = 1e-8) -> str | None:
    """Every root has a small relative residual under Horner, and there are
    as many roots as the reported degree."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(roots) != degree or degree != len(coeffs) - 1:
        return (f"{len(roots)} roots, reported degree {degree}, "
                f"own degree {len(coeffs) - 1}")
    fc = [complex(c) for c in coeffs]
    for r in roots:
        scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(fc))
        if abs(horner(fc, r)) > tol * scale:
            return f"root {r} has residual {abs(horner(fc, r)) / scale:.2e}"
    return None


# -- checks: cli --------------------------------------------------------------

def parse_json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_poly_output(doc, n: int, edges, mode: str, points) -> str | None:
    """A ``compute``/``family`` JSON document against brute force."""
    if not isinstance(doc, dict) or "poly" not in doc:
        return "no JSON polynomial"
    terms = terms_from_json(doc["poly"])
    for q, s, v, w in points:
        if mode == "ph":
            want, got = ph_brute(n, edges, q, s, w), value_at(terms, q, s, 0, w)
        else:
            want = z_brute(n, edges, Fraction(q), Fraction(s), Fraction(v), Fraction(w))
            got = value_at(terms, q, s, v, w)
        if got != want:
            return f"{mode} at {(q, s, v, w)}: {got} != brute force {want}"
    return None


def check_oracle_output(doc, n: int, edges, q: int, s: int, w) -> str | None:
    if not isinstance(doc, dict) or "value" not in doc:
        return "no JSON oracle value"
    want = ph_brute(n, edges, q, s, w)
    if Fraction(doc["value"]) != want:
        return f"oracle value {doc['value']} != brute force {want}"
    return None


def check_report(stdout: str) -> str | None:
    """``check``/``strips`` text: every verdict line ok, summary k/k."""
    lines = stdout.strip().splitlines()
    summary = [ln for ln in lines if ln.endswith(" identities hold")]
    verdicts = [ln for ln in lines if ln not in summary]
    bad = [ln for ln in verdicts if not ln.startswith("ok ")]
    if not verdicts or bad:
        return f"not every line ok: {bad}"
    for ln in summary:
        held, total = ln.split()[0].split("/")
        if held != total or int(total) != len(verdicts):
            return f"summary line {ln!r}"
    return None


def check_zeros_output(doc, n: int, edges, s, w) -> str | None:
    """q-plane zeros of Ph against Ph interpolated from brute-force counts."""
    if not isinstance(doc, dict) or "roots" not in doc:
        return "no JSON roots"
    s, w = Fraction(s), Fraction(w)
    xs = list(range(n + 1))
    ys = [z_brute(n, edges, Fraction(x), s, -1, w) for x in xs]
    roots = [complex(re, im) for re, im in doc["roots"]]
    return check_roots(interpolate(xs, ys), roots, doc["actual_degree"], tol=1e-9)


def phi_expected(q: float, s: float, w: float) -> float:
    """Largest modulus among the circuit's transfer eigenvalues at v = -1."""
    a = q - s - 1 + w * (s - 1)
    root = cmath.sqrt(a * a + 4 * w * (q - 1))
    mods = [abs((a + root) / 2), abs((a - root) / 2)]
    if s != 1:
        mods.append(abs(w))
    if q - s - 1 != 0:
        mods.append(1.0)
    return max(mods)


def check_phi_output(doc, q, s, w) -> str | None:
    if not isinstance(doc, dict) or "phi" not in doc:
        return "no JSON phi"
    want = phi_expected(q, s, w)
    if abs(doc["phi"] - want) > 1e-9 * want:
        return f"phi {doc['phi']} != {want}"
    return None


def check_qc_output(doc, s, w) -> str | None:
    """Pair degeneracy: the trace q - s - 1 + w(s-1) of the pair vanishes."""
    if not isinstance(doc, dict) or doc.get("mode") != "pair-degeneracy":
        return "no pair-degeneracy crossing"
    want = s + 1 - w * (s - 1)
    if abs(doc["value"] - want) > 1e-12 or abs(doc["located"] - want) > 1e-9:
        return f"q_c {doc['value']} (located {doc['located']}) != {want}"
    return None


def check_usage_error(rc: int, stderr: str) -> str | None:
    """Bad input: exit status 2, an ``error:`` line, no traceback."""
    if rc == 2 and "Traceback" not in stderr and any(
            ln.startswith("error:") for ln in stderr.splitlines()):
        return None
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"exit {rc}, {'traceback' if 'Traceback' in stderr else 'no traceback'}: {last[0]}"
