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

Each block carries a label: free, for a component's factor q - s, or
distinguished, for s * w^size (one w per vertex as it gets the label,
the s when the block closes).  A vertex enters unlabelled and alone.  Its
first chosen edge puts it in an earlier vertex's block, whose label it
takes; if it is still alone after its step, it is split into a free and
a distinguished block then.  A chosen edge between blocks of different
labels yields no term and is dropped; a block's factor is applied when
its last frontier vertex retires.

A state's polynomial in qt = q - s, s, v and w is a dict from a packed
key -- k, the number of blocks already closed, and the v exponent, each
field ``Packing.bits`` wide -- to one int that packs the polynomial in s
and w (Kronecker substitution): the coefficient of s^j w^d sits at bit
(j * (n + 1) + d) * width, and qt's exponent is k - j.  The split of the
k closed blocks into free (qt) and distinguished (s) rides inside the
int, so a state holds a few keys per v exponent, not one per (qt, s, v).
A vertex entering a distinguished block multiplies by w with one shift
of each int, a closing block adds 1 to the key (and for a distinguished
block multiplies by s, one shift by a row of (n + 1) * width bits), and
merging two states adds ints.

``Packing`` decides that layout for all three engines and turns it into
Z in (q, s, v, w); the walk and the subset sum reach it through
``Packing.blocks``, the packed product of (qt + s w^size) over a
component-size multiset.  For one key, sum_j s^j qt^(k-j) R_j(w) is
homogeneous of degree k in q and s, so with s = 1 and X = 2^row it is
sum_j R_j (X - 1)^(k-j): a Taylor shift by -1 (von zur Gathen &
Gerhard, ISSAC 1997), which Horner's rule does in k big-int steps,
acc * X - acc + R_j.  The coefficient of X^r is the packed w-row of
q^r s^(k-r); each row is read once as a signed int and its slots walked
with one borrow.  No qt-basis dict is built.

A slot is width = bitlen(2^e 3^n) + 2 bits.  Every coefficient of Z in
(q, s, v, w) is a signed sum over at most 2^e edge sets of at most 3^n
terms of +-1 -- one per choice of q, -s or s w^size in each component's
factor -- so it lies strictly inside +-2^(width - 2).  Each slot then
reads as a signed number, and a whole row, its top slot included, as one
signed int of row bits; |c| < 2^(width - 1) would already do, so the
second spare bit is margin.  The counts the transfer carries, of (edge
subset, block label) configurations, are non-negative and below
2^(n+e) < 2^width, so no slot carries into the next there either.

The plan is shared with the coloring oracle in ``partition``, which sweeps
the colors of the frontier in place of its partitions.  ``sweep`` builds
a greedy minimum-frontier order from every start vertex, keeps the
cheapest under a cost the caller gives per step (k frontier vertices,
the new one included, and d edges decided) and returns its steps: here
the labelled Bell number of k times 1 + d, infinite past MAX_WIDTH; for
the oracle q^k.  ``transfer_steps`` turns any order into those steps.

MAX_WIDTH is 5.  ``plan`` takes the circulants Cn(1,2) from n = 11, the
prisms from 12 vertices and the 4xL grids from L = 4; the complete
graphs from K5, C9(1,2) and C10(1,2) go to the subset sum in
``partition``, whose estimate of 2 * 3^k summed over the components caps
the budget ``plan`` is given.  The work estimate counts states, not the
terms each state holds.  Against 2^e alone a width of 7 would have sent
K7 here (16 times its work is 1 868 864, below 2^21), about 3x slower
than the walk; against that cap no wide step fits on a small graph: 16
times one step of width 6 (2 430 states) passes 2 * 3^k for every
component of fewer than 9 vertices, and of width 7 (14 214 states) for
fewer than 11.
"""

from __future__ import annotations

import math

from .graphs import Graph
from .poly import MultiPoly

# Labelled Bell numbers sum_k S(m, k) 2^k: the most states a frontier of
# m vertices can hold.
_LABELLED_BELL = (1, 2, 6, 22, 94, 454)
MAX_WIDTH = len(_LABELLED_BELL) - 1
# The engine is chosen where the other engines' estimated work -- the
# smaller of 2^e for the walk and 2 * 3^k summed over the components for
# the subset sum -- exceeds its own by this factor.  Against a walk over
# all 2^e subgraphs the two broke even near 4 (the 3x3 grid: 1130 units
# of work, 4096 leaves, equal times), so 16 keeps the engine to graphs
# where it should win about 4x, and small graphs off it.  The walk visits
# only the spanning forests (at most 2^e), and the engine still wins on
# the graphs this picks, planning included: 2.3-2.6x on sq2x5, 8-9x on
# sq3x4 and 45-70x on C20 (2 vCPUs, median of 3-9 calls, three runs).
# Against the subset sum the same factor falls near the break-even:
# C10(1,2) (16 times its work is 158 336, against 2 * 3^10 = 118 098)
# runs as fast as a subset sum (0.94-1.03x), and C11(1,2) (180 128
# against 354 294) about 2x faster here.
_STATE_COST = 16

Step = tuple[int, tuple[int, ...], tuple[int, ...]]
# The code of a frontier vertex that has no label yet: the newest vertex
# while no chosen edge has joined it to an earlier one.
_ALONE = -1


def _greedy(n: int, nbrs: list[int], ends: list[list[int]], by_degree: list[int],
            ones: int, start: int, weight, limit) -> tuple[list[int], int] | None:
    """One order from ``start`` and its work; None once the work passes
    ``limit``.

    Each step places the frontier neighbour that leaves the smallest
    frontier, preferring one joined to more frontier vertices; a new
    component starts at its lowest-degree vertex.  Vertex sets are int
    bitmasks: ``nbrs[u]`` holds u's distinct neighbours, ``ends[u]`` one
    mask per edge multiplicity (u itself for its loops), and ``ones`` the
    vertices with one neighbour not yet placed.
    """
    open_nbrs = [m.bit_count() for m in nbrs]  # neighbours not yet placed
    placed = front = reach = 0
    order: list[int] = []
    work = 0
    v = start
    while True:
        bit = 1 << v
        placed |= bit
        order.append(v)
        d = 0
        for m in ends[v]:
            d += (placed & m).bit_count()
        work += weight(front.bit_count() + 1, d)
        if work > limit:
            return None
        reach |= nbrs[v]
        rest = nbrs[v]
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            left = open_nbrs[u] = open_nbrs[u] - 1
            if left == 1:
                ones |= low
            elif not left:
                ones &= ~low
                front &= ~low
        if open_nbrs[v]:
            front |= bit
        if len(order) == n:
            return order, work
        # a placed vertex outside the frontier has no unplaced neighbour
        cand = reach & ~placed
        if not cand:
            v = next(x for x in by_degree if not placed >> x & 1)
            continue
        size = front.bit_count()
        best = None
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            linked = nbrs[u] & front
            key = (size + (open_nbrs[u] > 0) - (linked & ones).bit_count(),
                   -linked.bit_count(), u)
            if best is None or key < best:
                best = key
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
    nbrs = [0] * n
    mult: list[dict[int, int]] = [{} for _ in range(n)]  # edges per end pair
    for u, v in g.edges:
        mult[u][v] = mult[u].get(v, 0) + 1
        if u != v:
            mult[v][u] = mult[v].get(u, 0) + 1
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    ends = [[sum(1 << u for u, c in m.items() if c > t)
             for t in range(max(m.values(), default=0))] for m in mult]
    ones = sum(1 << u for u in range(n) if nbrs[u].bit_count() == 1)
    by_degree = sorted(range(n), key=lambda x: (nbrs[x].bit_count(), x))
    order = None if n else []
    for start in by_degree:
        found = _greedy(n, nbrs, ends, by_degree, ones, start, weight, limit)
        if found is not None:
            order, work = found
            limit = work - 1
    return None if order is None else transfer_steps(g, order)


def plan(g: Graph, budget: int) -> list[Step] | None:
    """Transfer steps for ``g``, or None where another engine should be used.

    The frontier engine is chosen when ``sweep`` finds an order that keeps
    every frontier at MAX_WIDTH vertices or fewer and whose estimated work
    -- the sum over steps of the labelled Bell number of the frontier times
    one plus the edges decided -- times _STATE_COST is below ``budget``,
    the other engines' estimated work.  ``partition.z_poly`` passes the
    smaller of 2^e, the bound on the walk's leaves, and the subset sum's
    2 * 3^k summed over the components.  The choice depends on the graph
    alone, not on its labels or an option.
    """
    limit = budget // _STATE_COST
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


class Packing:
    """The packed layout of Z that every engine sums into (see the module
    docstring): key fields of ``bits`` bits, slots of ``width`` bits, and
    one row of ``row`` bits per power of s."""

    __slots__ = ("bits", "width", "row")

    def __init__(self, n: int, e: int):
        self.bits = max(n, e, 1).bit_length()
        self.width = ((3 ** n) << e).bit_length() + 2
        self.row = (n + 1) * self.width

    def key(self, k: int, m: int) -> int:
        """The key of k closed blocks and v^m."""
        return m << self.bits | k

    def blocks(self, sizes) -> tuple[int, int]:
        """The number of blocks and the packed product of (qt + s w^size)
        over ``sizes``, (size, count) pairs: one shift-add per block."""
        k, p = 0, 1
        for sz, cnt in sizes:
            shift = self.row + sz * self.width
            for _ in range(cnt):
                p += p << shift
            k += cnt
        return k, p

    def z(self, packed: dict[int, int]) -> MultiPoly:
        """Z in (q, s, v, w) from packed terms, whose slots hold the
        non-negative counts every engine sums: a Horner pass in X - 1 per
        key, then one signed read of each row it gives."""
        bits, width, row = self.bits, self.width, self.row
        kmask = (1 << bits) - 1
        field, half = (1 << width) - 1, 1 << (width - 1)
        row_field, row_half = (1 << row) - 1, 1 << (row - 1)
        out: dict[tuple[int, int, int, int], int] = {}
        for key, c in packed.items():
            k, m = key & kmask, key >> bits
            acc = 0
            for _ in range(k + 1):  # s^0's row first: it takes (X - 1)^k
                acc = (acc << row) - acc + (c & row_field)
                c >>= row
            qe = 0
            while acc:  # the row of q^qe s^(k - qe)
                r = acc & row_field
                acc >>= row
                if r >= row_half:
                    r -= 1 << row
                    acc += 1
                se = k - qe
                d = 0
                while r:
                    part = r & field
                    if not part:  # skip to the lowest set bit's slot
                        skip = ((r & -r).bit_length() - 1) // width
                        r >>= skip * width
                        d += skip
                        continue
                    r >>= width
                    if part >= half:
                        part -= 1 << width
                        r += 1
                    out[qe, se, m, d] = part
                    d += 1
                qe += 1
        return MultiPoly._trusted(out)


def _canon(codes) -> tuple[int, ...]:
    """Renumber blocks in order of first appearance; code = 2*block + label.
    The code _ALONE passes through unchanged."""
    ids: dict[int, int] = {}
    return tuple(c if c == _ALONE
                 else (ids.setdefault(c >> 1, len(ids)) << 1) | (c & 1)
                 for c in codes)


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


def _retire(layer: dict, front: list[int], y: int, moves: dict,
            close_s: int, unit_w: int) -> dict:
    """Drop ``y``, whose edges are all decided, from the frontier; its block
    closes if ``y`` was the block's last frontier vertex: one more closed
    block in the key, and for a distinguished block one more s, a shift
    of the value by ``close_s`` bits.  A ``y`` still alone closes both
    ways at once: qt, or s times its own w."""
    i = front.index(y)
    del front[i]
    nxt: dict = {}
    while layer:
        st, poly = layer.popitem()
        move = moves.get((st, i))
        if move is None:
            c = st[i]
            rest = st[:i] + st[i + 1:]
            label = None if c in rest else c if c == _ALONE else c & 1
            move = moves[st, i] = (_canon(rest), label)
        to, label = move
        if label == 1:
            poly = {k + 1: c << close_s for k, c in poly.items()}
        elif label == 0:
            poly = _shift(poly, 1)
        elif label == _ALONE:
            both = close_s + unit_w
            poly = {k + 1: c + (c << both) for k, c in poly.items()}
        _put(nxt, to, poly)
    return nxt


def transfer_z(g: Graph, steps: list[Step]) -> MultiPoly:
    """Z(G, q, s, v, w) by the transfer over ``steps``."""
    pack = Packing(g.n, g.e)
    return pack.z(transfer_packed(g, steps, pack))


def transfer_packed(g: Graph, steps: list[Step], pack: Packing) -> dict[int, int]:
    """Z in ``pack``'s layout, {key: packed int}, by the transfer.

    A vertex enters with the code _ALONE, outside the block numbering, and
    no label.  Its first chosen edge to an earlier vertex puts it in that
    vertex's block, with the block's label and, for a distinguished block,
    its w; only after that can an edge be refused for a label mismatch.
    A vertex still alone after its step is split into a free and a
    distinguished block as the next vertex enters, and one that retires
    alone closes as qt + s w.  So a state doubles only where its newest
    vertex stayed alone, not at every entry.

    A vertex that a step retires leaves the frontier right after its last
    edge, before the step's later edges, so those run on fewer states: on
    C10(1,2) this halved the peak memory and took a third off the time.
    Each state move -- a merge of two blocks, a retirement -- is
    canonicalized once per call and then looked up.
    """
    unit_v, width, row = 1 << pack.bits, pack.width, pack.row
    front: list[int] = []
    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    merges: dict = {}
    retires: dict = {}
    for x, back, retire in steps:
        nxt: dict = {}
        while layer:
            st, poly = layer.popitem()
            if st and st[-1] == _ALONE:  # the last vertex stayed alone
                st = st[:-1]
                b = 2 * (max(st) // 2 + 1) if st else 0
                _put(nxt, st + (b | 1, _ALONE),
                     {k: c << width for k, c in poly.items()})
                st += (b,)
            _put(nxt, st + (_ALONE,), poly)
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
                elif cj != _ALONE and (ci ^ cj) & 1:
                    _put(nxt, st, poly)  # labels differ: only the unchosen edge
                else:
                    if cj == _ALONE and ci & 1:  # x's first block: its w
                        chosen = {k + unit_v: c << width for k, c in poly.items()}
                    else:
                        chosen = _shift(poly, unit_v)
                    _put(nxt, st, poly)
                    to = merges.get((st, ci, cj))
                    if to is None:
                        to = merges[st, ci, cj] = _canon(
                            ci if c == cj else c for c in st)
                    _put(nxt, to, chosen)
            layer = nxt
            # a vertex that retires here, other than x, has its last edge to x
            if y != x and y in retire and y not in back[e + 1:]:
                layer = _retire(layer, front, y, retires, row, width)
        if x in retire:
            layer = _retire(layer, front, x, retires, row, width)
    (poly,) = layer.values()
    return poly
