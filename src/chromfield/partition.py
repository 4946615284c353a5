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

- The walk (``subgraph_counts``) visits the 2^e subgraphs depth-first with
  a rollback union-find, so each edge decision costs O(alpha(n)) and common
  prefixes are shared.  A leaf only records (component-size multiset, edge
  count) in 6-bit fields, so it refuses graphs with more than 63 edges.  It
  is the only engine with a parallel path, and ``zero_field_poly``,
  ``chromatic_poly`` and ``tutte_poly`` always use it, through one decode
  by (components, chosen edges).
- The frontier transfer engine (``frontier``) sweeps the vertices in a
  greedy minimum-frontier order and keeps labelled set partitions of the
  frontier; its cost grows with the length of the graph, not 2^e.

``z_poly`` (and so ``ph_poly``) chooses from the graph alone: the frontier
engine when ``frontier.plan`` finds an order whose frontier never exceeds 4
vertices and whose estimated work is well below 2^e -- strips and circuits
from about 13 edges on -- and the walk otherwise, as on complete graphs,
circulants such as C10(1,2) and small graphs.

A second, fully independent route sums over the q^n colorings instead of
the subgraphs (``oracle_count_table`` and friends): a transfer over the
colors of the vertices that still wait for a neighbour, in a vertex order
of its own.  It exists to cross-check the cluster route, calls neither
engine and is never used to feed it.
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
# size, so leaves touch only small-int dict keys.  A leaf key additionally
# carries the chosen-edge count in its lowest 6 bits.
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


def _check_caps(g: Graph) -> None:
    if g.e > _edge_cap():
        raise CapExceededError(
            f"{g.e} edges exceeds the subgraph-expansion cap of {_edge_cap()} "
            "(override with CHROMFIELD_EDGE_CAP)")
    if g.n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(
            f"{g.n} vertices exceeds the packing limit of {DEFAULT_VERTEX_CAP}")


def _explore(n: int, edges, counts: dict, j0: int, parent: list, size: list,
             key0: int, m0: int) -> None:
    """DFS over edge choices from index j0, accumulating leaf counters.

    ``counts`` maps (packed size-multiset << 6 | edge count) -> multiplicity.
    The union-find uses union by size and no path compression so a single
    undo record per union suffices.
    """
    us = [e[0] for e in edges]
    vs = [e[1] for e in edges]
    last = len(edges) - 1
    get = counts.get

    def rec(j: int, key: int, m: int) -> None:
        ru = us[j]
        while parent[ru] != ru:
            ru = parent[ru]
        rv = vs[j]
        while parent[rv] != rv:
            rv = parent[rv]
        if j == last:
            pk = (key << _CNT_BITS) | m
            counts[pk] = get(pk, 0) + 1
            if ru == rv:
                pk2 = (key << _CNT_BITS) | (m + 1)
            else:
                a = size[ru]
                b = size[rv]
                nk = key + (1 << (_CNT_BITS * (a + b))) \
                    - (1 << (_CNT_BITS * a)) - (1 << (_CNT_BITS * b))
                pk2 = (nk << _CNT_BITS) | (m + 1)
            counts[pk2] = get(pk2, 0) + 1
            return
        rec(j + 1, key, m)
        if ru == rv:
            rec(j + 1, key, m + 1)
            return
        a = size[ru]
        b = size[rv]
        if a < b:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] = a + b
        rec(j + 1,
            key + (1 << (_CNT_BITS * (a + b)))
            - (1 << (_CNT_BITS * a)) - (1 << (_CNT_BITS * b)),
            m + 1)
        parent[rv] = rv
        size[ru] = max(a, b)

    if j0 <= last:
        rec(j0, key0, m0)
    else:
        pk = (key0 << _CNT_BITS) | m0
        counts[pk] = get(pk, 0) + 1


def _replayed_state(n: int, edges, k: int, mask: int):
    """Union-find state after forcing the first k edge decisions from mask bits."""
    parent = list(range(n))
    size = [1] * n
    key = n << _CNT_BITS
    m = 0
    for j in range(k):
        if not (mask >> j) & 1:
            continue
        m += 1
        ru = edges[j][0]
        while parent[ru] != ru:
            ru = parent[ru]
        rv = edges[j][1]
        while parent[rv] != rv:
            rv = parent[rv]
        if ru == rv:
            continue
        a, b = size[ru], size[rv]
        if a < b:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] = a + b
        key += (1 << (_CNT_BITS * (a + b))) \
            - (1 << (_CNT_BITS * a)) - (1 << (_CNT_BITS * b))
    return parent, size, key, m


def _prefix_chunk(args) -> dict:
    n, edges, k, mask = args
    parent, size, key, m = _replayed_state(n, edges, k, mask)
    counts: dict[int, int] = {}
    _explore(n, edges, counts, k, parent, size, key, m)
    return counts


def subgraph_counts(g: Graph, workers: int = 1) -> dict[int, int]:
    """Leaf counters of the spanning-subgraph walk.

    Keys pack the component-size multiset (6 bits of count per size) with
    the chosen-edge count in the low 6 bits, so graphs with more than 63
    edges are refused whatever the edge cap says.  With ``workers > 1`` the
    first few edge decisions are fixed per task and the task counters are
    merged.
    """
    _check_caps(g)
    if g.e > _CNT_MASK:
        raise CapExceededError(
            f"{g.e} edges exceeds the walk's packing limit of {_CNT_MASK}")
    n, edges = g.n, g.edges
    if workers <= 1 or g.e < 6:
        counts: dict[int, int] = {}
        _explore(n, edges, counts, 0, list(range(n)), [1] * n,
                 n << _CNT_BITS, 0)
        return counts
    k = 2
    while (1 << k) < 4 * workers and k < g.e - 1:
        k += 1
    tasks = [(n, edges, k, mask) for mask in range(1 << k)]
    merged: dict[int, int] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_prefix_chunk, tasks, chunksize=max(1, len(tasks) // (4 * workers))):
            for pk, c in part.items():
                merged[pk] = merged.get(pk, 0) + c
    return merged


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
    for (a, se, ve, we), c in acc.items():
        for r in range(a + 1):
            k = (r, se + a - r, ve, we)
            out[k] = out.get(k, 0) + c * math.comb(a, r) * (-1) ** ((a - r) & 1)
    return MultiPoly._trusted(out)


def z_poly(g: Graph, workers: int = 1) -> MultiPoly:
    """Z(G, q, s, v, w) as an exact polynomial.

    Uses the frontier transfer engine where ``frontier.plan`` finds a
    narrow vertex order, else the subgraph walk (``workers`` applies only
    to the walk).
    """
    _check_caps(g)
    steps = frontier.plan(g)
    if steps is not None:
        return _qt_to_z(frontier.transfer_z(g, steps))
    return _counts_to_z(subgraph_counts(g, workers), g.n)


def ph_poly(g: Graph, workers: int = 1) -> MultiPoly:
    """Ph(G, q, s, w) = Z at v = -1; identically zero when G has a loop."""
    if g.has_loop():
        return MultiPoly.zero()
    return z_poly(g, workers).substitute(v=-1)


def _component_edge_counts(g: Graph, workers: int = 1) -> dict[tuple[int, int], int]:
    """The walk's leaves by (components, chosen edges): {(k, m): subgraphs}.

    The one decode of the size-multiset keys outside ``_counts_to_z``,
    shared by the zero-field, chromatic and Tutte polynomials.
    """
    out: dict[tuple[int, int], int] = {}
    for pk, c in subgraph_counts(g, workers).items():
        k = sum(cnt for _, cnt in _decode_multiset(pk >> _CNT_BITS, g.n))
        key = (k, pk & _CNT_MASK)
        out[key] = out.get(key, 0) + c
    return out


def zero_field_poly(g: Graph, workers: int = 1) -> MultiPoly:
    """Random-cluster Z(G, q, v) = sum v^{e'} q^{k'} (no s, w dependence)."""
    return MultiPoly._trusted({(k, 0, m, 0): c for (k, m), c
                               in _component_edge_counts(g, workers).items()})


def chromatic_poly(g: Graph) -> MultiPoly:
    """Proper-coloring count P(G, q) via the alternating cluster sum."""
    out: dict[tuple[int, int, int, int], int] = {}
    for (k, m), c in _component_edge_counts(g).items():
        exp = (k, 0, 0, 0)
        out[exp] = out.get(exp, 0) + (-c if m & 1 else c)
    return MultiPoly._trusted(out)


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
    """Tutte polynomial T(G, x, y) = sum (x-1)^{k'-k} (y-1)^{c'}.

    Stored in the first two variable slots; render with names=("x", "y").
    """
    k_whole = g.component_count()
    out: dict[tuple[int, int, int, int], int] = {}
    for (k_comp, m), c in _component_edge_counts(g).items():
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

def beta_layers(z: MultiPoly, n: int) -> list[MultiPoly]:
    """Coefficients of w^0..w^n, so z = sum_j beta[j] * w^j.

    Raises BadDecompositionError if z has w-degree above n.
    """
    if z.degree("w") > n:
        raise BadDecompositionError(
            f"w-degree {z.degree('w')} exceeds vertex count {n}")
    by = z.coeffs_in("w")
    return [by.get(j, MultiPoly.zero()) for j in range(n + 1)]


def alpha_layers(ph: MultiPoly, n: int) -> list[MultiPoly]:
    """Coefficients of q^0..q^n of a weighted chromatic polynomial."""
    if ph.degree("q") > n:
        raise BadDecompositionError(
            f"q-degree {ph.degree('q')} exceeds vertex count {n}")
    by = ph.coeffs_in("q")
    return [by.get(j, MultiPoly.zero()) for j in range(n + 1)]


# -- independent coloring-sum oracle ------------------------------------------

def _coloring_order(g: Graph, q: int) -> list[int]:
    """A vertex order for the coloring transfer.

    A vertex waits, colored, until all its neighbours are colored; the
    transfer holds q^(waiting vertices) states.  From each start vertex,
    each step colors the neighbour of a waiting vertex that leaves the
    fewest waiting (a new component starts at its lowest-degree vertex);
    the order with the least total of q^waiting wins.
    """
    n = g.n
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    best: tuple[int, list[int]] | None = None
    for start in range(n):
        open_nbrs = [len(s) for s in nbrs]  # neighbours not yet colored
        placed = [False] * n
        waiting: set[int] = set()
        order: list[int] = []
        cost = 0
        x = start
        while True:
            placed[x] = True
            order.append(x)
            for y in nbrs[x]:
                open_nbrs[y] -= 1
                if not open_nbrs[y]:
                    waiting.discard(y)
            if open_nbrs[x]:
                waiting.add(x)
            cost += q ** len(waiting)
            if len(order) == n:
                break
            cands = {y for f in waiting for y in nbrs[f] if not placed[y]}
            if cands:
                x = min(cands, key=lambda y: (
                    (open_nbrs[y] > 0)
                    - sum(1 for f in nbrs[y] & waiting if open_nbrs[f] == 1), y))
            else:
                x = min((y for y in range(n) if not placed[y]),
                        key=lambda y: (len(nbrs[y]), y))
        if best is None or cost < best[0]:
            best = (cost, order)
    return best[1]


def oracle_count_table(g: Graph, q: int, s: int) -> list[list[int]]:
    """N[m][ns] = number of q-colorings with m monochromatic edges and ns
    vertices colored from {0..s-1}.

    Exact integer counts, summed over all q^n colorings by a transfer over
    the colors of the waiting vertices (``_coloring_order``).  Each state
    keeps its whole (m, ns) table in one int: the count of (m, ns) sits at
    bit (m*(n+1) + ns)*B, where B bits hold q^n, so coloring a vertex is
    one shift and merging two states one addition.  A loop is always
    monochromatic and each parallel edge counts once.
    """
    if q < 0 or not 0 <= s <= q:
        raise ValueError(f"need integers 0 <= s <= q, got q={q}, s={s}")
    n = g.n
    table = [[0] * (n + 1) for _ in range(g.e + 1)]
    if n == 0:
        table[0][0] = 1
        return table
    if q == 0:
        return table
    states = q ** n
    if states > _oracle_cap():
        raise CapExceededError(
            f"{states} colorings exceeds the oracle cap of {_oracle_cap()} "
            "(override with CHROMFIELD_ORACLE_CAP)")
    order = _coloring_order(g, q)
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    back: list[list[int]] = [[] for _ in range(n)]  # earlier ends, per edge
    loops = [0] * n
    done = list(pos)  # the step after which a vertex waits for no neighbour
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
            continue
        a, b = (u, v) if pos[u] < pos[v] else (v, u)
        back[b].append(a)
        done[a] = max(done[a], pos[b])
    bits = states.bit_length()
    row = (n + 1) * bits
    waiting: list[int] = []
    layer: dict[tuple[int, ...], int] = {(): 1}
    for i, x in enumerate(order):
        idx = [waiting.index(y) for y in back[x]]
        kept = [j for j, y in enumerate(waiting) if done[y] > i]
        stays = done[x] > i
        waiting = [waiting[j] for j in kept] + [x] * stays
        nxt: dict[tuple[int, ...], int] = {}
        for colors, packed in layer.items():
            hits = [loops[x]] * q  # monochromatic edges x closes, per color
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
