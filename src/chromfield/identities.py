"""Structural identities of the field-weighted partition sum.

Everything here takes exact polynomials from the subgraph engine and checks
an algebraic statement, returning either the deviation itself (zero when the
identity holds) or a boolean verdict.  The main groups are:

* the reflection symmetry Z(G,q,s,v,w) = w^n Z(G,q,q-s,v,1/w) and the four
  reductions to zero-field sums (w=1, w=0, s=0, s=q);
* layer theorems for the w-expansion (beta layers) and the q-expansion of
  the v=-1 slice (alpha layers), including divisibility statements;
* deviation measures: deletion-contraction, complete-separator quotients,
  tree/forest scaling, and the discriminating differences between
  equivalence classes that collapse at zero field;
* elementary proper-coloring lower bounds for bipartite graphs.

The deletion-contraction check needs Z of G-e and G/e for every edge, and
these minors fall into few isomorphism classes (sq2x5's 26 into 9).  A
``MinorMemo``, made for one run of the suite, computes Z once per class:
a minor joins a stored class only when an explicit vertex map carries its
edge multiset onto the class's, a label-free invariant merely picking the
candidates.  Equal Z's give an equal defect, so the suite reads the
defect from the classes' Z's and decides the verdict once per (class of
G-e, class of G/e) pair.

Deviations that are rational rather than polynomial are returned as
``RationalExpr`` with no cancellation beyond integer content, so the caller
can compare against a printed closed form by cross-multiplication.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionUnmetError
from .graphs import Graph, complete_graph
from .partition import (chromatic_number, layers, ph_poly, z_poly,
                        zero_field_by_walk)
from .poly import ONE, Q, S, V, W, MultiPoly, RationalExpr, exact_div

QT = Q - S


# -- symmetry and reductions --------------------------------------------------

def symmetry_deviation(z: MultiPoly, n: int) -> MultiPoly:
    """Z(q,s,v,w) - w^n Z(q,q-s,v,1/w); zero for every graph."""
    return z - z.substitute(s=QT).reflect("w", n)


def reduction_deviations(g: Graph, z: MultiPoly | None = None,
                         zf: MultiPoly | None = None) -> dict[str, MultiPoly]:
    """The four slices of Z that collapse to zero-field sums.

    w=1 and s=0 give Z(G,q,v); w=0 gives Z(G,q-s,v); s=q gives w^n Z(G,q,v).
    ``zf`` is Z(G,q,v) when the caller has it; by default it comes from
    the walk, so the s=0 line does not compare Z with its own slice.
    """
    if z is None:
        z = z_poly(g)
    if zf is None:
        zf = zero_field_by_walk(g)
    return {
        "w=1": z.substitute(w=1) - zf,
        "s=0": z.substitute(s=0) - zf,
        "w=0": z.substitute(w=0) - zf.substitute(q=QT),
        "s=q": z.substitute(s=Q) - (W ** g.n) * zf,
    }


def one_color_values(g: Graph, z: MultiPoly | None = None) -> dict[str, MultiPoly]:
    """Deviations of Z at q=1 from the closed forms (1+v)^e and (1+v)^e w^n.

    With a single color every subgraph contributes v^{e'} (all component
    factors are 1 at s=0, and w^{n} at s=1).
    """
    if z is None:
        z = z_poly(g)
    y_e = (ONE + V) ** g.e
    return {
        "q=1,s=0": z.substitute(q=1, s=0) - y_e,
        "q=1,s=1": z.substitute(q=1, s=1) - y_e * (W ** g.n),
    }


# -- layer theorems -----------------------------------------------------------

@dataclass
class LayerReport:
    holds: bool
    failures: list[str]


def beta_layer_report(g: Graph, z: MultiPoly | None = None,
                      zf: MultiPoly | None = None) -> LayerReport:
    """w-layer structure of Z: endpoints, reflection pairing, divisibility.

    beta_0 = Z(G, q-s, v); beta_n = Z(G, s, v) (q-free);
    beta_j(q,s,v) = beta_{n-j}(q, q-s, v);
    (q-s) | beta_j for j < n and s | beta_j for j > 0.
    ``zf`` is Z(G,q,v) when the caller has it, by default from the walk.
    """
    if z is None:
        z = z_poly(g)
    if zf is None:
        zf = zero_field_by_walk(g)
    n = g.n
    beta = layers(z, "w", n)
    failures = []
    if beta[0] != zf.substitute(q=QT):
        failures.append("beta_0 != Z(G, q-s, v)")
    if beta[n] != zf.substitute(q=S):
        failures.append("beta_n != Z(G, s, v)")
    if beta[n].degree("q") > 0:
        failures.append("beta_n involves q")
    for j in range(n + 1):
        if beta[j] != beta[n - j].substitute(s=QT):
            failures.append(f"beta_{j} != beta_{n - j}(q, q-s, v)")
        if j <= n - 1 and beta[j].div_linear("q", S) is None:
            failures.append(f"(q-s) does not divide beta_{j}")
        if j >= 1 and beta[j].shift_down("s") is None:
            failures.append(f"s does not divide beta_{j}")
    return LayerReport(not failures, failures)


def beta_chromatic_products(g: Graph, ph: MultiPoly,
                            p: MultiPoly | None = None) -> LayerReport:
    """At v=-1 the extreme w-layers carry full falling-factorial factors:

    prod_{j<chi} (s - j) divides beta_n and prod_{j<chi} (q - s - j)
    divides beta_0, where chi is the chromatic number.  ``p`` is the
    chromatic polynomial P(G, q) when the caller has it.
    """
    chi = chromatic_number(g, p)
    beta = layers(ph, "w", g.n)
    failures = []
    top = exact_div(beta[g.n], [("lin", "s", MultiPoly.const(j))
                                for j in range(chi)])
    if top is None:
        failures.append(f"prod_(j<{chi}) (s-j) does not divide beta_n")
    bottom = exact_div(beta[0], [("lin", "q", S + j) for j in range(chi)])
    if bottom is None:
        failures.append(f"prod_(j<{chi}) (q-s-j) does not divide beta_0")
    return LayerReport(not failures, failures)


def alpha_layer_report(g: Graph, ph: MultiPoly) -> LayerReport:
    """q-layer structure of Ph: monic top, explicit subtop, t | alpha_0.

    alpha_n = 1; alpha_{n-1} = n*s*(w-1) - (#distinct edges); and
    s*(w-1) divides alpha_0 when n >= 1 (for n = 0, alpha_0 = alpha_n = 1).
    """
    n = g.n
    alpha = layers(ph, "q", n)
    distinct_edges = len(set(g.edges))
    failures = []
    if alpha[n] != ONE:
        failures.append("alpha_n != 1")
    if n >= 1 and alpha[n - 1] != n * S * (W - 1) - distinct_edges:
        failures.append("alpha_{n-1} != n*s*(w-1) - e(distinct)")
    a0 = alpha[0].shift_down("s")
    if n >= 1 and (a0 is None or a0.div_linear("w", 1) is None):
        failures.append("s*(w-1) does not divide alpha_0")
    return LayerReport(not failures, failures)


def z_line_subtop(z: MultiPoly, n: int) -> bool:
    """On paths the q^{n-1} layer of Z is n*s*(w-1) + (n-1)*v."""
    alpha = z.coeffs_in("q").get(n - 1, MultiPoly.zero())
    return alpha == n * S * (W - 1) + (n - 1) * V


def alpha_sign_report(ph: MultiPoly, n: int, s_val, w_val) -> LayerReport:
    """Strict sign alternation sgn(alpha_{n-j}) = (-1)^j for 0 <= j <= n-1.

    Holds for connected graphs when 0 <= w < 1; evaluate with Fraction
    arguments for an exact verdict.
    """
    if not (0 <= w_val < 1):
        raise PreconditionUnmetError("sign alternation needs 0 <= w < 1")
    alpha = layers(ph, "q", n)
    failures = []
    for j in range(n):
        val = alpha[n - j].evaluate(s=s_val, w=w_val)
        want = -1 if j % 2 else 1
        if (val > 0) - (val < 0) != want:
            failures.append(f"alpha_(n-{j}) = {val} has sign != {want}")
    return LayerReport(not failures, failures)


def alpha_magnitude_profile(ph: MultiPoly, n: int, s_val, w_val) -> list:
    """|alpha_{n-j}| for j = 0..n, for unimodality inspection."""
    alpha = layers(ph, "q", n)
    return [abs(alpha[n - j].evaluate(s=s_val, w=w_val)) for j in range(n + 1)]


def is_unimodal(seq) -> bool:
    rising = True
    for a, b in zip(seq, seq[1:]):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            return False
    return True


# -- minors up to isomorphism -------------------------------------------------

# Candidate images one isomorphism search may try before it gives up; the
# memo then computes Z rather than trust the invariant alone.
_MATCH_NODES = 10_000


def _shape(g: Graph):
    """A label-free key for ``g``, with the vertex colours and neighbour
    multiplicities that the isomorphism search works from.

    The key holds n, e, the sorted multiplicity profile of the distinct
    edges (loops marked) and the sorted colours left by two rounds of
    colour refinement started from (degree, loop count).  Isomorphic
    graphs share it; graphs that share it need not be isomorphic.
    """
    mult = Counter(g.edges)
    adj: list[dict[int, int]] = [{} for _ in range(g.n)]
    loops = [0] * g.n
    for (u, v), m in mult.items():
        if u == v:
            loops[u] = m
        else:
            adj[u][v] = adj[v][u] = m
    colour = [(sum(adj[x].values()) + 2 * loops[x], loops[x])
              for x in range(g.n)]
    for _ in range(2):
        colour = [(colour[x], tuple(sorted((colour[y], m)
                                           for y, m in adj[x].items())))
                  for x in range(g.n)]
    key = (g.n, g.e, tuple(sorted((u == v, m) for (u, v), m in mult.items())),
           tuple(sorted(colour)))
    return key, colour, adj


def _vertex_map(ca, adja, cb, adjb, budget: int) -> list[int] | None:
    """A vertex map carrying graph a onto graph b, loops and parallel edges
    included, or None when there is none or ``budget`` candidate images
    were tried without finding one.

    Each vertex goes to a vertex of the same colour.  Vertices of a are
    placed in breadth-first order from the rarest colour, so a vertex
    with a placed neighbour p only tries the neighbours of p's image; a
    candidate must match a's multiplicity to every placed vertex.
    """
    n = len(ca)
    rarity = Counter(ca)
    order: list[int] = []
    seen = [False] * n
    for root in sorted(range(n), key=lambda x: (rarity[ca[x]], x)):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            for y in adja[order[head]]:
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
            head += 1
    image = [-1] * n
    used = [False] * n
    left = budget

    def extend(i: int) -> bool:
        nonlocal left
        if i == n:
            return True
        x = order[i]
        placed = [(image[y], m) for y, m in adja[x].items() if image[y] >= 0]
        weight = sum(m for _, m in placed)
        for t in adjb[placed[0][0]] if placed else range(n):
            if used[t] or cb[t] != ca[x]:
                continue
            if left <= 0:
                return False
            left -= 1
            if (all(adjb[t].get(y) == m for y, m in placed)
                    and sum(m for y, m in adjb[t].items() if used[y]) == weight):
                image[x], used[t] = t, True
                if extend(i + 1):
                    return True
                image[x], used[t] = -1, False
        return False

    return image if extend(0) else None


class MinorMemo:
    """Z of graphs computed once per isomorphism class.

    A graph is looked up under its ``_shape`` key, and it joins a class
    already stored there only when ``_vertex_map`` finds an explicit map
    onto that class's first member; otherwise, or when the search runs
    out of its node budget, its Z is computed and it starts a new class.
    One memo lives for one caller's run; nothing is kept between runs.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.z: list[MultiPoly] = []  # Z of each class
        self._members: dict = {}  # _shape key -> [(class, colours, adj)]

    def classify(self, h: Graph) -> int:
        """The index of ``h``'s class, computing its Z if it starts one."""
        key, colour, adj = _shape(h)
        reps = self._members.setdefault(key, [])
        cls = next((c for c, rc, radj in reps
                    if _vertex_map(colour, adj, rc, radj, _MATCH_NODES)
                    is not None), None)
        if cls is None:
            cls = len(self.z)
            self.z.append(z_poly(h, self.workers))
            reps.append((cls, colour, adj))
        return cls


# -- deviation measures -------------------------------------------------------

def dcr_deviation(g: Graph, edge_idx: int, workers: int = 1) -> MultiPoly:
    """Z(G) - [Z(G-e) + v Z(G/e)]: the deletion-contraction defect.

    Nonzero in general; always divisible by s*v*w*(w-1).
    """
    zd = z_poly(g.delete_edge(edge_idx), workers)
    zc = z_poly(g.contract_edge(edge_idx), workers)
    return z_poly(g, workers) - (zd + V * zc)


def has_dcr_factor(dev: MultiPoly) -> bool:
    """True when s*v*w*(w-1) divides the deletion-contraction defect."""
    if dev.is_zero():
        return True
    return exact_div(dev, [("mono", "s"), ("mono", "v"), ("mono", "w"),
                           ("lin", "w", 1)]) is not None


def _induced(g: Graph, verts: list[int]) -> Graph:
    pos = {x: i for i, x in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph.make(len(verts), edges)


def kit_deviation(g: Graph, part1: list[int], part2: list[int],
                  ph: MultiPoly | None = None) -> RationalExpr:
    """Defect of the complete-separator quotient at v = -1.

    For G = G1 union G2 with G1 intersect G2 = K_m, the zero-field
    chromatic polynomial satisfies P(G) = P(G1) P(G2) / P(K_m); the
    weighted version does not, and the deviation
    Ph(G) - Ph(G1) Ph(G2) / Ph(K_m) carries the factor s (q-s) w (w-1).
    """
    set1, set2 = set(part1), set(part2)
    if set1 | set2 != set(range(g.n)):
        raise PreconditionUnmetError("parts must cover all vertices")
    sep = sorted(set1 & set2)
    m = len(sep)
    present = {(u, v) for u, v in g.edges}
    for i, u in enumerate(sep):
        for v in sep[i + 1:]:
            if (min(u, v), max(u, v)) not in present:
                raise PreconditionUnmetError(
                    f"separator {sep} does not induce a complete graph")
    for u, v in g.edges:
        if not ({u, v} <= set1 or {u, v} <= set2):
            raise PreconditionUnmetError(
                f"edge {(u, v)} crosses the decomposition")
    if ph is None:
        ph = ph_poly(g)
    ph1 = ph_poly(_induced(g, sorted(set1)))
    ph2 = ph_poly(_induced(g, sorted(set2)))
    ph_sep = ph_poly(complete_graph(m)) if m else ONE
    return RationalExpr(ph * ph_sep - ph1 * ph2, ph_sep)


def has_kit_factor(dev: RationalExpr) -> bool:
    """True when s*(q-s)*w*(w-1) divides the numerator and not the denominator."""
    if dev.num.is_zero():
        return True
    factors = [("mono", "s"), ("lin", "q", S), ("mono", "w"), ("lin", "w", 1)]
    if exact_div(dev.num, factors) is None:
        return False
    for f in factors:
        if exact_div(dev.den, [f]) is not None:
            return False
    return True


def cycle_scaled(z: MultiPoly, n: int) -> RationalExpr:
    """s^n Z(G, q/s, 1, v/s, w) as an exact rational expression.

    For a forest this reproduces Z(G,q,s,v,w) itself; any cycle leaves an
    s-denominator behind.
    """
    raw: dict[tuple[int, int, int, int], int] = {}
    min_s = 0
    for (a, _b, ev, d), c in z.terms.items():
        se = n - a - ev
        min_s = min(min_s, se)
        k = (a, se, ev, d)
        raw[k] = raw.get(k, 0) + c
    shift = -min_s
    num = MultiPoly({(a, se + shift, ev, d): c
                     for (a, se, ev, d), c in raw.items() if c})
    return RationalExpr(num, MultiPoly.monomial((0, shift, 0, 0)))


def cycle_deviation(g: Graph, z: MultiPoly | None = None) -> RationalExpr:
    """Z(G,q,s,v,w) - s^n Z(G, q/s, 1, v/s, w); zero exactly on forests."""
    if z is None:
        z = z_poly(g)
    scaled = cycle_scaled(z, g.n)
    return RationalExpr(z * scaled.den - scaled.num, scaled.den)


def multi_edge_invariance(g: Graph, ph: MultiPoly | None = None) -> bool:
    """Ph ignores edge multiplicities: Ph(G) = Ph(reduce(G)).

    ``ph`` is Ph(G) when the caller has it; a graph without parallel edges
    is its own reduction.
    """
    reduced = Graph(g.n, tuple(dict.fromkeys(g.edges)), g.name)
    if reduced == g:
        return True
    if ph is None:
        ph = ph_poly(g)
    return ph == ph_poly(reduced)


def tutte_equivalent_difference(g: Graph, h: Graph) -> MultiPoly:
    """Z(G) - Z(H) for zero-field-equivalent graphs G, H.

    Raises PreconditionUnmetError unless Z(G,q,v) = Z(H,q,v); the returned
    difference always carries the factor s*(q-s)*v*w*(w-1).
    """
    zg, zh = z_poly(g), z_poly(h)
    if zg.substitute(s=0) != zh.substitute(s=0):
        raise PreconditionUnmetError("graphs are not zero-field equivalent")
    return zg - zh


def has_tutte_difference_factor(diff: MultiPoly) -> bool:
    if diff.is_zero():
        return True
    return exact_div(diff, [("mono", "s"), ("lin", "q", S), ("mono", "v"),
                            ("mono", "w"), ("lin", "w", 1)]) is not None


def chromatic_equivalent_check(g: Graph, h: Graph) -> bool:
    """For chromatically equivalent graphs with an edge, both weighted
    polynomials vanish at q=1 for the two admissible s values 0 and 1."""
    phg, phh = ph_poly(g), ph_poly(h)
    if phg.substitute(s=0) != phh.substitute(s=0):
        raise PreconditionUnmetError("graphs are not chromatically equivalent")
    if not (g.e and h.e):
        return phg == phh
    return all(p.substitute(q=1, s=s).is_zero()
               for p in (phg, phh) for s in (0, 1))


# -- bipartite lower bounds ---------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    applicable: bool
    bound: Fraction | None
    value: Fraction | None
    holds: bool | None


def bipartite_lower_bounds(g: Graph, q: int, s: int, w: Fraction,
                           ph_value: Fraction) -> list[BoundCheck]:
    """Elementary one-assignment lower bounds on Ph for a bipartite graph.

    The parts are labeled so n1 <= n2.  Each bound reports its own
    applicability window:

    * w = 1, q >= 2:            P >= q (q-1)^{n2}
    * w > 1, s >= 2:            Ph >= s (s-1)^{n2} w^n
    * 0 <= w < 1, q >= s+2:     Ph >= (q-s) (q-s-1)^{n2}
    * q >= s+1:                 Ph >= s w^{n1} (q-s)^{n2}
    """
    sides = g.bipartition()
    if sides is None:
        raise PreconditionUnmetError("graph is not bipartite")
    n1, n2 = sorted(len(side) for side in sides)
    w = Fraction(w)
    out = []

    def record(name, applicable, bound):
        holds = None if not applicable else ph_value >= bound
        out.append(BoundCheck(name, applicable, bound if applicable else None,
                              ph_value if applicable else None, holds))

    record("uniform-color", w == 1 and q >= 2, Fraction(q) * (q - 1) ** n2)
    record("inside-set", w > 1 and 2 <= s <= q,
           Fraction(s) * (s - 1) ** n2 * w ** g.n)
    record("outside-set", 0 <= w < 1 and q >= s + 2,
           Fraction(q - s) * (q - s - 1) ** n2)
    record("split-set", q >= s + 1 and s >= 1,
           Fraction(s) * w ** n1 * (q - s) ** n2)
    return out


# -- bundled single-graph suite ----------------------------------------------

@dataclass
class IdentityVerdict:
    name: str
    holds: bool
    detail: str = ""


def identity_suite(g: Graph, workers: int = 1) -> list[IdentityVerdict]:
    """Run every single-graph identity; used by the command-line checker.

    Z(G) and the zero-field polynomial are computed once each and handed
    to every check.  The zero-field one is ``zero_field_by_walk``, read
    from the walk's keys rather than sliced from Z, so the s=0 reduction
    and beta_0 test Z's assembly (and on narrow graphs the frontier
    engine) against it.  The deletion-contraction checks take the minors'
    Z from a ``MinorMemo``, once per isomorphism class, and decide
    ``has_dcr_factor`` once per pair of classes (G-e, G/e): K4's twelve
    minors are two classes and one pair, so its six edges share a verdict.
    """
    z = z_poly(g, workers)
    zf = zero_field_by_walk(g, workers)
    out = []

    def add(name, holds, detail=""):
        out.append(IdentityVerdict(name, bool(holds), detail))

    add("reflection-symmetry", symmetry_deviation(z, g.n).is_zero())
    for name, dev in reduction_deviations(g, z, zf).items():
        add(f"reduction[{name}]", dev.is_zero())
    for name, dev in one_color_values(g, z).items():
        add(f"one-color[{name}]", dev.is_zero())
    rep = beta_layer_report(g, z, zf)
    add("beta-layers", rep.holds, "; ".join(rep.failures))
    if not g.has_loop():
        ph = z.substitute(v=-1)
        rep = beta_chromatic_products(g, ph, zf.substitute(v=-1))
        add("beta-chromatic-products", rep.holds, "; ".join(rep.failures))
        rep = alpha_layer_report(g, ph)
        add("alpha-layers", rep.holds, "; ".join(rep.failures))
        add("multi-edge-invariance", multi_edge_invariance(g, ph))
    memo = MinorMemo(workers)
    dcr: dict[tuple[int, int], bool] = {}
    for idx in range(g.e):
        d = memo.classify(g.delete_edge(idx))
        c = memo.classify(g.contract_edge(idx))
        if (d, c) not in dcr:
            dcr[d, c] = has_dcr_factor(z - (memo.z[d] + V * memo.z[c]))
        add(f"dcr-factor[e{idx}]", dcr[d, c])
    if g.cycle_rank() == 0:
        add("forest-scaling", cycle_deviation(g, z).num.is_zero())
    return out
