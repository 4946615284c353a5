"""Exact partition sums over spanning subgraphs.

The central object is the field-weighted cluster sum

    Z(G, q, s, v, w) = sum over spanning subgraphs G' of G of
                       v^{e(G')} * prod_i (q - s + s * w^{n_i}),

where the product runs over the connected components of G' and n_i is the
number of vertices in component i.  Setting v = -1 gives the weighted-set
chromatic polynomial Ph(G, q, s, w): the sum over proper q-colorings of
w^{#vertices colored from the distinguished set {1..s}}.  Setting s = 0 (or
w = 1) recovers the random-cluster form sum v^{e'} q^{k'}.

Two engines compute Z; both assemble it in the basis qt = q - s and convert
to (q, s, v, w) once at the end, and both are bound by the same edge and
vertex caps.

- The walk (``subgraph_counts``) goes depth-first over the edges with a
  rollback union-find and branches only on edges that join two
  components: an edge that closes a cycle leaves the partition as it is
  whether chosen or not, so it only adds a factor (1 + v) (the loop rule
  of deletion-contraction).  Its leaves are the spanning forests, not the
  2^e subgraphs (K7: 36 961 against 2 097 152), and each records
  (component-size multiset, joining edges, cycle edges) in 6-bit fields,
  so it refuses graphs with more than 63 edges; one binomial pass then
  gives the count of subgraphs per (multiset, edge count).  It is the only
  engine with a parallel path: one task function starts every walk, the
  serial walk being the one task with no forced prefix.
- The frontier transfer engine (``frontier``) sweeps the vertices in a
  greedy minimum-frontier order and keeps labelled set partitions of the
  frontier; its cost grows with the length of the graph, not 2^e.

``z_poly`` chooses from the graph alone: the frontier engine when
``frontier.plan`` finds an order whose frontier never exceeds 4 vertices
and whose estimated work is well below 2^e -- strips and circuits from
about 13 edges on -- and the walk otherwise, as on complete graphs,
circulants such as C10(1,2) and small graphs.  ``ph_poly``,
``zero_field_poly``, ``chromatic_poly`` and ``tutte_poly`` are slices of Z
and go through that choice; ``zero_field_by_walk``, the walk's own
zero-field decode, is kept as an independent reference for Z's assembly.

A second, independent route sums over the q^n colorings instead of the
subgraphs (``oracle_count_table`` and friends): a transfer over the colors
of the vertices that still wait for a neighbour.  It shares the frontier
engine's sweep plan -- ``frontier.sweep_order`` and
``frontier.transfer_steps`` -- but never its sum, calls neither engine and
is never used to feed one, so it cross-checks the cluster route; an order
changes only its cost, never a count.  It refuses more than
DEFAULT_VERTEX_CAP vertices, and ``CHROMFIELD_ORACLE_CAP`` bounds the
transfer's work, q colors tried on each state it holds, not the q^n
colorings.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor

from . import frontier
from .errors import (BadDecompositionError, BadInputError, CapExceededError,
                     LoopyGraphError)
from .graphs import Graph
from .poly import MultiPoly

DEFAULT_EDGE_CAP = 30
DEFAULT_VERTEX_CAP = 60
DEFAULT_ORACLE_CAP = 10_000_000

# Component-size multisets are packed into one int, 6 bits of count per
# size, so leaves touch only small-int dict keys.  A walk leaf adds two
# 6-bit fields below it, the joining and the cycle-closing edge counts; a
# subgraph counter key adds one, the chosen-edge count.
_CNT_BITS = 6
_CNT_MASK = (1 << _CNT_BITS) - 1


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise BadInputError(f"{name} must be an integer, got {raw!r}") from None


def _edge_cap() -> int:
    return _env_int("CHROMFIELD_EDGE_CAP", DEFAULT_EDGE_CAP)


def _oracle_cap() -> int:
    return _env_int("CHROMFIELD_ORACLE_CAP", DEFAULT_ORACLE_CAP)


def _check_input(g: Graph, workers: int) -> None:
    if workers < 1:
        raise BadInputError(f"workers wants a count >= 1, got {workers}")
    if g.e > _edge_cap():
        raise CapExceededError(
            f"{g.e} edges exceeds the subgraph-expansion cap of {_edge_cap()} "
            "(override with CHROMFIELD_EDGE_CAP)")
    if g.n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(
            f"{g.n} vertices exceeds the packing limit of {DEFAULT_VERTEX_CAP}")


def _explore(edges, j0: int, parent: list, size: list, key0: int,
             m0: int) -> dict[int, int]:
    """DFS over the joining edges from index j0, counting its leaves.

    An edge whose ends already share a root closes a cycle: choosing it or
    not leaves the partition unchanged (the loop rule of deletion-
    contraction), so it does not branch and only adds to the cycle count c.
    Each leaf is then one spanning forest of the choices, and the result
    maps (packed size-multiset << 12 | chosen edges m << 6 | c) ->
    multiplicity, m being m0 plus the joining edges chosen; ``_expand``
    turns the leaves into subgraph counts.  The union-find uses union by
    size and no path compression so a single undo record per union
    suffices.
    """
    us = [e[0] for e in edges]
    vs = [e[1] for e in edges]
    end = len(edges)
    last = end - 1
    counts: dict[int, int] = {}
    get = counts.get

    def rec(j: int, key: int, m: int, c: int) -> None:
        # the branch with a joining edge recurses (or, on the last edge, is
        # a leaf at once); the branch without it goes on in this loop
        while True:
            while j < end:
                ru = us[j]
                while parent[ru] != ru:
                    ru = parent[ru]
                rv = vs[j]
                while parent[rv] != rv:
                    rv = parent[rv]
                if ru != rv:
                    break
                c += 1
                j += 1
            else:
                pk = (key << (2 * _CNT_BITS)) | (m << _CNT_BITS) | c
                counts[pk] = get(pk, 0) + 1
                return
            a = size[ru]
            b = size[rv]
            nk = key + (1 << (_CNT_BITS * (a + b))) \
                - (1 << (_CNT_BITS * a)) - (1 << (_CNT_BITS * b))
            if j == last:
                pk = (nk << (2 * _CNT_BITS)) | ((m + 1) << _CNT_BITS) | c
                counts[pk] = get(pk, 0) + 1
            else:
                if a < b:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] = a + b
                rec(j + 1, nk, m + 1, c)
                parent[rv] = rv
                size[ru] = max(a, b)
            j += 1

    rec(j0, key0, m0, 0)
    return counts


def _expand(leaves: dict[int, int]) -> dict[int, int]:
    """Subgraph counts from forest leaves: a leaf (key, m, c) stands for
    C(c, i) subgraphs with m + i chosen edges, for i = 0..c, keyed
    key << 6 | (m + i)."""
    out: dict[int, int] = {}
    get = out.get
    for pk, mult in leaves.items():
        c = pk & _CNT_MASK
        m = (pk >> _CNT_BITS) & _CNT_MASK
        base = (pk >> (2 * _CNT_BITS)) << _CNT_BITS
        for i in range(c + 1):
            k = base | (m + i)
            out[k] = get(k, 0) + mult * math.comb(c, i)
    return out


def _walk_task(args) -> dict[int, int]:
    """Forest leaves below the first k edge decisions, forced to the bits
    of mask; k = 0 is the whole walk.  The prefix's partition comes from
    ``Graph.components``, and every chosen prefix edge counts in m, a
    cycle-closing one too."""
    n, edges, k, mask = args
    chosen = [edges[j] for j in range(k) if (mask >> j) & 1]
    parent = list(range(n))
    size = [1] * n
    key = 0
    for comp in Graph(n, tuple(chosen)).components():
        for x in comp:
            parent[x] = comp[0]
        size[comp[0]] = len(comp)
        key += 1 << (_CNT_BITS * len(comp))
    return _explore(edges, k, parent, size, key, len(chosen))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    exposes one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def subgraph_counts(g: Graph, workers: int = 1) -> dict[int, int]:
    """Subgraph counters of the spanning-forest walk.

    Keys pack the component-size multiset (6 bits of count per size) with
    the chosen-edge count in the low 6 bits, so graphs with more than 63
    edges are refused whatever the edge cap says.  Every walk runs through
    ``_walk_task``: the serial walk is one task with no forced prefix; with
    ``workers > 1`` each task forces the first few edge decisions, the
    tasks run on at most as many processes as there are usable CPUs, and
    their counters are merged before ``_expand``.
    """
    _check_input(g, workers)
    if g.e > _CNT_MASK:
        raise CapExceededError(
            f"{g.e} edges exceeds the walk's packing limit of {_CNT_MASK}")
    n, edges = g.n, g.edges
    procs = min(workers, _usable_cpus())
    k = 2
    while (1 << k) < 4 * procs and k < g.e - 1:
        k += 1
    procs = min(procs, 1 << k)
    if procs <= 1 or g.e < 6:
        return _expand(_walk_task((n, edges, 0, 0)))
    tasks = [(n, edges, k, mask) for mask in range(1 << k)]
    merged: dict[int, int] = {}
    with ProcessPoolExecutor(max_workers=procs) as pool:
        for part in pool.map(_walk_task, tasks, chunksize=max(1, len(tasks) // (4 * procs))):
            for pk, c in part.items():
                merged[pk] = merged.get(pk, 0) + c
    return _expand(merged)


def _decode_multiset(key: int, n: int) -> list[tuple[int, int]]:
    out = []
    for sz in range(1, n + 1):
        cnt = (key >> (_CNT_BITS * sz)) & _CNT_MASK
        if cnt:
            out.append((sz, cnt))
    return out


def _multiset_product(sizes: list[tuple[int, int]]) -> dict[tuple[int, int, int], int]:
    """Expand prod (qt + s*w^sz)^cnt as {(qt_exp, s_exp, w_exp): coeff}."""
    prod = {(0, 0, 0): 1}
    for sz, cnt in sizes:
        factor = {}
        for r in range(cnt + 1):
            factor[(cnt - r, r, r * sz)] = math.comb(cnt, r)
        nxt: dict[tuple[int, int, int], int] = {}
        for (a1, s1, w1), c1 in prod.items():
            for (a2, s2, w2), c2 in factor.items():
                k = (a1 + a2, s1 + s2, w1 + w2)
                nxt[k] = nxt.get(k, 0) + c1 * c2
        prod = nxt
    return prod


def _counts_to_z(counts: dict[int, int], n: int) -> MultiPoly:
    by_key: dict[int, dict[int, int]] = {}
    for pk, c in counts.items():
        by_key.setdefault(pk >> _CNT_BITS, {})[pk & _CNT_MASK] = c
    # accumulate in the qt = q - s basis, slots (qt, s, v, w)
    acc: dict[tuple[int, int, int, int], int] = {}
    for key, vcounts in by_key.items():
        prod = _multiset_product(_decode_multiset(key, n))
        for m, mult in vcounts.items():
            for (a, se, we), c in prod.items():
                k = (a, se, m, we)
                acc[k] = acc.get(k, 0) + mult * c
    return _qt_to_z(acc)


def _qt_to_z(acc: dict[tuple[int, int, int, int], int]) -> MultiPoly:
    """Z from its (qt, s, v, w) coefficients: one binomial pass
    qt^a -> sum_r C(a, r) q^r (-s)^(a-r)."""
    out: dict[tuple[int, int, int, int], int] = {}
    get = out.get
    rows: dict[int, list[int]] = {}  # qt-degree a -> C(a, r) (-1)^(a-r)
    for (a, se, ve, we), c in acc.items():
        row = rows.get(a)
        if row is None:
            row = rows[a] = [math.comb(a, r) * (-1) ** ((a - r) & 1)
                             for r in range(a + 1)]
        se += a
        for r, b in enumerate(row):
            k = (r, se - r, ve, we)
            out[k] = get(k, 0) + c * b
    return MultiPoly._trusted(out)


def z_poly(g: Graph, workers: int = 1) -> MultiPoly:
    """Z(G, q, s, v, w) as an exact polynomial.

    Uses the frontier transfer engine where ``frontier.plan`` finds a
    narrow vertex order, else the subgraph walk (``workers`` applies only
    to the walk).
    """
    _check_input(g, workers)
    steps = frontier.plan(g)
    if steps is not None:
        return _qt_to_z(frontier.transfer_z(g, steps))
    return _counts_to_z(subgraph_counts(g, workers), g.n)


def ph_poly(g: Graph, workers: int = 1) -> MultiPoly:
    """Ph(G, q, s, w) = Z at v = -1; identically zero when G has a loop."""
    if g.has_loop():
        return MultiPoly.zero()
    return z_poly(g, workers).substitute(v=-1)


def zero_field_by_walk(g: Graph, workers: int = 1) -> MultiPoly:
    """Z(G, q, v) read off the walk's keys by (components, chosen edges),
    using neither Z's assembly nor the frontier engine: the identity
    checks' independent reference for ``zero_field_poly``."""
    out: dict[tuple[int, int, int, int], int] = {}
    for pk, c in subgraph_counts(g, workers).items():
        k = sum(cnt for _, cnt in _decode_multiset(pk >> _CNT_BITS, g.n))
        exp = (k, 0, pk & _CNT_MASK, 0)
        out[exp] = out.get(exp, 0) + c
    return MultiPoly._trusted(out)


def zero_field_poly(g: Graph, workers: int = 1) -> MultiPoly:
    """Random-cluster Z(G, q, v) = sum v^{e'} q^{k'}: Z at s = 0."""
    return z_poly(g, workers).substitute(s=0)


def chromatic_poly(g: Graph) -> MultiPoly:
    """Proper-coloring count P(G, q): Ph at s = 0."""
    return ph_poly(g).substitute(s=0)


def chromatic_number(g: Graph, p: MultiPoly | None = None) -> int:
    """Least q with P(G, q) > 0; ``p`` is P(G, q) when the caller has it."""
    if g.has_loop():
        raise LoopyGraphError("loops admit no proper coloring")
    if p is None:
        p = chromatic_poly(g)
    for k in range(g.n + 1):
        if p.evaluate(q=k) > 0:
            return k
    raise AssertionError("unreachable: a loop-free graph is n-colorable")


def tutte_poly(g: Graph) -> MultiPoly:
    """Tutte polynomial T(G, x, y) = sum (x-1)^{k'-k} (y-1)^{c'}, remapped
    from the zero-field sum's coefficients of q^k' v^m' (c' = m' + k' - n).

    Stored in the first two variable slots; render with names=("x", "y").
    """
    k_whole = g.component_count()
    out: dict[tuple[int, int, int, int], int] = {}
    for (k_comp, _, m, _), c in zero_field_poly(g).terms.items():
        p = k_comp - k_whole
        cyc = m + k_comp - g.n
        for i in range(p + 1):
            for j in range(cyc + 1):
                exp = (i, j, 0, 0)
                sign = (-1) ** ((p - i + cyc - j) & 1)
                coeff = c * math.comb(p, i) * math.comb(cyc, j) * sign
                out[exp] = out.get(exp, 0) + coeff
    return MultiPoly._trusted(out)


# -- layer decompositions -----------------------------------------------------

def layers(p: MultiPoly, name: str, n: int) -> list[MultiPoly]:
    """Coefficients of name^0..name^n, so p = sum_j layers[j] * name^j.

    The w-layers of Z are the beta's and the q-layers of Ph the alpha's.
    Raises BadDecompositionError if p has degree above n in ``name``.
    """
    if p.degree(name) > n:
        raise BadDecompositionError(
            f"{name}-degree {p.degree(name)} exceeds vertex count {n}")
    by = p.coeffs_in(name)
    return [by.get(j, MultiPoly.zero()) for j in range(n + 1)]


# -- independent coloring-sum oracle ------------------------------------------

def oracle_count_table(g: Graph, q: int, s: int) -> list[list[int]]:
    """N[m][ns] = number of q-colorings with m monochromatic edges and ns
    vertices colored from {0..s-1}.

    Exact integer counts, summed over all q^n colorings by a transfer over
    the colors of the waiting vertices: those colored that still have an
    uncolored neighbour.  Its vertex order and steps come from
    ``frontier.sweep_order`` and ``frontier.transfer_steps``, with a step
    that holds k waiting vertices costing q^k; the frontier engine's sum is
    never used.  Each state keeps its whole (m, ns) table in one int: the
    count of (m, ns) sits at bit (m*(n+1) + ns)*B, where B bits hold q^n,
    so coloring a vertex is one shift and merging two states one addition.
    A loop is always monochromatic and each parallel edge counts once.
    """
    if q < 0 or not 0 <= s <= q:
        raise BadInputError(f"need integers 0 <= s <= q, got q={q}, s={s}")
    n = g.n
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(
            f"{n} vertices exceeds the oracle's vertex cap of {DEFAULT_VERTEX_CAP}")
    table = [[0] * (n + 1) for _ in range(g.e + 1)]
    if n == 0:
        table[0][0] = 1
        return table
    if q == 0:
        return table
    # every step tries each of the q colors on each state it holds, so the
    # work is q times the states held; the planner gives up on an order
    # once its work passes the cap, so a refusal never plans in full
    cap = _oracle_cap()
    best = frontier.sweep_order(g, lambda k, d: q ** k, cap)
    if best is None:
        raise CapExceededError(
            f"the transfer work (states held x {q} colors tried) exceeds "
            f"the oracle cap of {cap} (override with CHROMFIELD_ORACLE_CAP)")
    order, _ = best
    bits = (q ** n).bit_length()
    row = (n + 1) * bits
    waiting: list[int] = []
    layer: dict[tuple[int, ...], int] = {(): 1}
    for x, back, retire in frontier.transfer_steps(g, order):
        loops = back.count(x)
        idx = [waiting.index(y) for y in back if y != x]
        kept = [j for j, y in enumerate(waiting) if y not in retire]
        stays = x not in retire
        waiting = [waiting[j] for j in kept] + [x] * stays
        nxt: dict[tuple[int, ...], int] = {}
        for colors, packed in layer.items():
            hits = [loops] * q  # monochromatic edges x closes, per color
            for j in idx:
                hits[colors[j]] += 1
            base = tuple(colors[j] for j in kept)
            for c in range(q):
                st = base + (c,) if stays else base
                shift = hits[c] * row + (bits if c < s else 0)
                nxt[st] = nxt.get(st, 0) + (packed << shift)
        layer = nxt
    (total,) = layer.values()
    mask = (1 << bits) - 1
    for m in range(g.e + 1):
        for ns in range(n + 1):
            table[m][ns] = (total >> (m * row + ns * bits)) & mask
    return table


def _pow_memo(base, k: int, cache: dict):
    if k not in cache:
        j = k - 1
        while j not in cache:
            j -= 1
        p = cache[j]
        for i in range(j + 1, k + 1):
            p = p * base
            cache[i] = p
    return cache[k]


def oracle_z(g: Graph, q: int, s: int, v, w):
    """Z by the coloring sum: sum N[m][ns] (1+v)^m w^ns.

    ``v`` and ``w`` may be ints, Fractions, floats, or MultiPoly, so the
    result is exact whenever the inputs are.
    """
    y = 1 + v
    ypow: dict = {0: y ** 0}
    wpow: dict = {0: w ** 0}
    total = 0
    for m, row in enumerate(oracle_count_table(g, q, s)):
        for ns, c in enumerate(row):
            if c:
                total = total + c * _pow_memo(y, m, ypow) * _pow_memo(w, ns, wpow)
    return total


def oracle_ph(g: Graph, q: int, s: int, w):
    """Proper-coloring sum of w^ns; the v = -1 slice of ``oracle_z``."""
    return oracle_z(g, q, s, -1, w)
