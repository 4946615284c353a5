"""Frontier transfer engine for Z on graphs of small path width.

The subgraph walk in ``partition`` visits every spanning forest, and on a
strip or a circuit those are still most of the 2^e subgraphs (on C20, all
but one).  There the same sum factors into small transfer steps (Salas &
Sokal, J. Stat. Phys. 104 (2001); Sekine, Imai & Tani, ISAAC 1995):
vertices enter in a fixed order, each edge is decided once both its ends
have entered, and a vertex retires once all its edges are decided.  Only
the frontier -- entered vertices that have not retired -- matters between
steps, and the state is the set partition of the frontier that the chosen
edges induce.

Each block carries a label, picked when its first vertex enters: free,
for a component's factor q - s, or distinguished, for s * w^size (one w
per vertex as it enters, the s when the block closes).  A chosen edge
between blocks of different labels yields no term and is dropped; a
block's factor is applied when its last frontier vertex retires.

A state's polynomial in qt = q - s, s, v and w is a dict from packed
(qt, s, v) exponents -- one int, each field as wide as max(n, e) needs --
to an int that packs the whole polynomial in w (Kronecker substitution):
the coefficient of w^d sits at bit d * (n + e + 1).  A vertex entering a
distinguished block multiplies by w with one shift of each such int, and
merging two states adds ints; ``transfer_z`` unpacks the fields at the
end.  Every coefficient is exact and non-negative.

The plan is shared with the coloring oracle in ``partition``, which sweeps
the colors of the frontier in place of its partitions.  ``sweep`` builds
a greedy minimum-frontier order from every start vertex, keeps the
cheapest under a cost the caller gives per step (k frontier vertices,
the new one included, and d edges decided) and returns its steps: here
the labelled Bell number of k times 1 + d, infinite past MAX_WIDTH; for
the oracle q^k.  ``transfer_steps`` turns any order into those steps.

MAX_WIDTH is 5.  That takes the circulants Cn(1,2) from n = 9, the
prisms from 12 vertices and the 4xL grids from L = 4 off the walk, and
leaves the complete graphs on it.  The work estimate counts states, not
the terms each state holds, and past 5 it stops picking the faster
engine: at 7, K7's estimate would fall below 2^21 and send it here,
about 8x slower than the walk.
"""

from __future__ import annotations

import math

from .graphs import Graph

# Labelled Bell numbers sum_k S(m, k) 2^k: the most states a frontier of
# m vertices can hold.
_LABELLED_BELL = (1, 2, 6, 22, 94, 454)
MAX_WIDTH = len(_LABELLED_BELL) - 1
# The engine is chosen where 2^e exceeds its estimated work by this factor.
# Against a walk over all 2^e subgraphs the two broke even near 4 (the 3x3
# grid: 1130 units of work, 4096 leaves, equal times), so 16 keeps the
# engine to graphs where it should win about 4x, and small graphs on the
# walk.  The walk visits only the spanning forests (at most 2^e), and the
# engine still wins on the graphs this picks, planning included: 2.3x on
# sq2x5, 8x on sq3x4, 90x on C20, 2x on C9(1,2) and 3.5-5.5x on
# C10(1,2) (2 vCPUs).
_STATE_COST = 16

Step = tuple[int, tuple[int, ...], tuple[int, ...]]


def _greedy(n: int, nbrs: list[set[int]], ends: list[list[int]], start: int,
            weight, limit) -> tuple[list[int], int] | None:
    """One order from ``start`` and its work; None once the work passes
    ``limit``.

    Each step places the frontier neighbour that leaves the smallest
    frontier, preferring one joined to more frontier vertices; a new
    component starts at its lowest-degree vertex.
    """
    open_nbrs = [len(s) for s in nbrs]  # neighbours not yet placed
    placed = [False] * n
    front: set[int] = set()
    order: list[int] = []
    work = 0
    v = start
    while True:
        placed[v] = True
        order.append(v)
        work += weight(len(front) + 1, sum(placed[u] for u in ends[v]))
        if work > limit:
            return None
        for u in nbrs[v]:
            open_nbrs[u] -= 1
            if not open_nbrs[u]:
                front.discard(u)
        if open_nbrs[v]:
            front.add(v)
        if len(order) == n:
            return order, work
        best = None
        for u in {x for f in front for x in nbrs[f] if not placed[x]}:
            linked = nbrs[u] & front
            size = (len(front) + (open_nbrs[u] > 0)
                    - sum(1 for f in linked if open_nbrs[f] == 1))
            key = (size, -len(linked), u)
            if best is None or key < best:
                best = key
        if best is None:
            v = min((x for x in range(n) if not placed[x]),
                    key=lambda x: (len(nbrs[x]), x))
        else:
            v = best[2]


def sweep(g: Graph, weight, limit) -> list[Step] | None:
    """The steps of the cheapest greedy vertex order for a sweep over ``g``.

    A step that holds k frontier vertices, the new one included, and
    decides d edges costs weight(k, d).  Each vertex is tried as the start
    of the order, lowest degree first; a start is given up once its work
    passes ``limit`` or reaches the best work found so far.  None when no
    order stays within ``limit``; [] for the empty graph.
    """
    n = g.n
    nbrs: list[set[int]] = [set() for _ in range(n)]
    ends: list[list[int]] = [[] for _ in range(n)]  # one entry per edge end
    for u, v in g.edges:
        ends[u].append(v)
        if u != v:
            ends[v].append(u)
            nbrs[u].add(v)
            nbrs[v].add(u)
    order = None if n else []
    for start in sorted(range(n), key=lambda x: (len(nbrs[x]), x)):
        found = _greedy(n, nbrs, ends, start, weight, limit)
        if found is not None:
            order, work = found
            limit = work - 1
    return None if order is None else transfer_steps(g, order)


def plan(g: Graph) -> list[Step] | None:
    """Transfer steps for ``g``, or None where the walk should be used.

    The frontier engine is chosen when ``sweep`` finds an order that keeps
    every frontier at MAX_WIDTH vertices or fewer and whose estimated work
    -- the sum over steps of the labelled Bell number of the frontier times
    one plus the edges decided -- times _STATE_COST is below 2^e, the bound
    on the walk's leaves.  The choice depends on the graph alone, not on
    its labels or an option.
    """
    limit = (1 << g.e) // _STATE_COST
    if 2 * (g.n + g.e) > limit:
        return None
    return sweep(g, lambda k, d: _LABELLED_BELL[k] * (1 + d)
                 if k <= MAX_WIDTH else math.inf, limit)


def transfer_steps(g: Graph, order) -> list[Step]:
    """The steps for any vertex order: (vertex, ends of the edges it closes
    to vertices placed before it or itself, vertices retiring after it)."""
    n, order = g.n, list(order)
    back: list[list[int]] = [[] for _ in range(n)]
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    last = list(pos)  # step after which a vertex has no undecided edge
    for u, v in g.edges:
        a, b = (u, v) if pos[u] <= pos[v] else (v, u)
        back[b].append(a)
        last[a] = max(last[a], pos[b])
    retire: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        retire[last[x]].append(x)
    return [(x, tuple(back[x]), tuple(retire[pos[x]])) for x in order]


def _canon(codes) -> tuple[int, ...]:
    """Renumber blocks in order of first appearance; code = 2*block + label."""
    ids: dict[int, int] = {}
    return tuple((ids.setdefault(c >> 1, len(ids)) << 1) | (c & 1) for c in codes)


def _shift(poly: dict[int, int], mono: int) -> dict[int, int]:
    return {k + mono: c for k, c in poly.items()}


def _put(layer: dict, state, poly: dict[int, int]) -> None:
    """Add ``poly`` (owned by the caller, and given up) into layer[state]."""
    cur = layer.get(state)
    if cur is None:
        layer[state] = poly
        return
    if len(cur) < len(poly):
        cur, poly = poly, cur
        layer[state] = cur
    get = cur.get
    for k, c in poly.items():
        cur[k] = get(k, 0) + c


def _retire(layer: dict, front: list[int], y: int, unit_s: int) -> dict:
    """Drop ``y``, whose edges are all decided, from the frontier; its block
    takes its factor if ``y`` was the block's last frontier vertex."""
    i = front.index(y)
    del front[i]
    nxt: dict = {}
    while layer:
        st, poly = layer.popitem()
        c = st[i]
        rest = st[:i] + st[i + 1:]
        if c not in rest:
            poly = _shift(poly, unit_s if c & 1 else 1)
        _put(nxt, _canon(rest), poly)
    return nxt


def transfer_z(g: Graph, steps: list[Step]) -> dict[tuple[int, int, int, int], int]:
    """Z in the qt = q - s basis, as {(qt, s, v, w) exponents: coefficient}.

    A vertex that a step retires leaves the frontier right after its last
    edge, before the step's later edges, so those run on fewer states: on
    C10(1,2) this halved the peak memory and took a third off the time.
    """
    bits = max(g.n, g.e, 1).bit_length()
    mask = (1 << bits) - 1
    unit_s, unit_v = 1 << bits, 1 << 2 * bits
    # w^d's coefficient sits at bit d * width of the packed coefficient.
    # A field never carries into the next: every coefficient counts (edge
    # subset, block label) configurations, at most 2^(n+e) < 2^width, and
    # no coefficient in the qt basis is negative.
    width = g.n + g.e + 1
    front: list[int] = []
    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for x, back, retire in steps:
        nxt: dict = {}
        while layer:
            st, poly = layer.popitem()
            b = 2 * (max(st) // 2 + 1) if st else 0
            nxt[st + (b | 1,)] = {k: c << width for k, c in poly.items()}
            nxt[st + (b,)] = poly
        layer = nxt
        front.append(x)
        for e, y in enumerate(back):
            i, j = front.index(y), len(front) - 1
            nxt = {}
            while layer:
                st, poly = layer.popitem()
                ci, cj = st[i], st[j]
                if ci == cj:  # same block: the edge closes a cycle
                    chosen = _shift(poly, unit_v)
                    _put(nxt, st, poly)
                    _put(nxt, st, chosen)
                elif (ci ^ cj) & 1:  # labels differ: only the unchosen edge
                    _put(nxt, st, poly)
                else:
                    chosen = _shift(poly, unit_v)
                    _put(nxt, st, poly)
                    _put(nxt, _canon(ci if c == cj else c for c in st), chosen)
            layer = nxt
            # a vertex that retires here, other than x, has its last edge to x
            if y != x and y in retire and y not in back[e + 1:]:
                layer = _retire(layer, front, y, unit_s)
        if x in retire:
            layer = _retire(layer, front, x, unit_s)
    (poly,) = layer.values()
    field = (1 << width) - 1
    out = {}
    for k, c in poly.items():
        a, se, ve = k & mask, (k >> bits) & mask, k >> 2 * bits
        d = 0
        while c:
            if c & field:
                out[a, se, ve, d] = c & field
            c >>= width
            d += 1
    return out
