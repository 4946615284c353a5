"""Small multigraphs: containers, named families, minors, and I/O.

Graphs here are undirected, allow parallel edges, and allow loops (loops
matter for contraction sequences, where the partition sum is defined to
vanish at v = -1).  Vertices are 0..n-1; edges are stored as an ordered
tuple of (u, v) pairs with u <= v so parallel edges keep their multiplicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BadInputError, BadSizeError


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    name: str = ""

    @staticmethod
    def make(n: int, edges: Iterable[Sequence[int]], name: str = "") -> "Graph":
        if n < 0:
            raise BadInputError(f"vertex count must be >= 0, got {n}")
        norm = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise BadInputError(f"edge {(u, v)} out of range for n={n}")
            norm.append((u, v) if u <= v else (v, u))
        return Graph(n=n, edges=tuple(norm), name=name)

    # -- basic structure ------------------------------------------------------

    @property
    def e(self) -> int:
        return len(self.edges)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self) -> list[list[int]]:
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, list[int]] = {}
        for x in range(self.n):
            groups.setdefault(find(x), []).append(x)
        return list(groups.values())

    def component_count(self) -> int:
        return len(self.components())

    def cycle_rank(self) -> int:
        return self.e + self.component_count() - self.n

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """A 2-coloring by BFS, or None if an odd cycle exists."""
        color = [-1] * self.n
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if u == v:
                return None
            adj[u].append(v)
            adj[v].append(u)
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if color[y] == -1:
                        color[y] = 1 - color[x]
                        queue.append(y)
                    elif color[y] == color[x]:
                        return None
        side0 = [x for x in range(self.n) if color[x] == 0]
        side1 = [x for x in range(self.n) if color[x] == 1]
        return side0, side1

    # -- minors ---------------------------------------------------------------

    def delete_edge(self, idx: int) -> "Graph":
        return Graph(self.n, self.edges[:idx] + self.edges[idx + 1:], self.name)

    def contract_edge(self, idx: int) -> "Graph":
        """Contract edge idx, relabeling the higher endpoint away.

        Parallel copies of the contracted edge become loops and are kept;
        loops on other vertices are preserved.
        """
        u, v = self.edges[idx]
        if u == v:
            # contracting a loop is deletion of that loop
            return self.delete_edge(idx)
        keep = min(u, v)
        gone = max(u, v)

        def relabel(x: int) -> int:
            if x == gone:
                return keep
            return x - 1 if x > gone else x

        new_edges = []
        for j, (a, b) in enumerate(self.edges):
            if j == idx:
                continue
            na, nb = relabel(a), relabel(b)
            new_edges.append((na, nb) if na <= nb else (nb, na))
        return Graph(self.n - 1, tuple(new_edges), self.name)

    def add_isolated(self, k: int = 1) -> "Graph":
        return Graph(self.n + k, self.edges, self.name)

    def disjoint_union(self, other: "Graph") -> "Graph":
        shifted = tuple((u + self.n, v + self.n) for u, v in other.edges)
        return Graph(self.n + other.n, self.edges + shifted)

    # -- hashing and I/O ------------------------------------------------------

    def canonical_key(self) -> str:
        payload = {"n": self.n, "edges": sorted(self.edges)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def graph_hash(self) -> str:
        # imported here: hashlib loads OpenSSL, which only the commands
        # that print a hash need
        import hashlib
        return hashlib.sha256(self.canonical_key().encode()).hexdigest()[:16]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data) -> "Graph":
        """Graph from {"n": count, "edges": [[u, v], ...]}.  The count and
        the ends must be ints (not bools) and each edge a pair; anything
        else is a BadInputError, never truncated."""
        n, edges = data["n"], data["edges"]
        if type(n) is not int:
            raise BadInputError(f"vertex count must be an integer, got {n!r}")
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                for e in edges):
            raise BadInputError("edges must be a list of integer pairs")
        return cls.make(n, edges, str(data.get("name", "")))

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {self.e}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        rows = [r for r in (line.strip() for line in text.splitlines())
                if r and not r.startswith("#")]
        if not rows:
            raise BadInputError("empty edge-list input")

        def pair(row: str) -> tuple[int, int]:
            u, v = (int(x) for x in row.split()[:2])
            return u, v

        try:
            n, m = pair(rows[0])
            edges = [pair(r) for r in rows[1:]]
        except ValueError:
            raise BadInputError("edge-list lines must start with two integers") from None
        if len(edges) != m:
            raise BadInputError(f"header says {m} edges, found {len(edges)}")
        return cls.make(n, edges)


# -- named families -----------------------------------------------------------

def null_graph(n: int) -> Graph:
    if n < 0:
        raise BadSizeError("null graph needs n >= 0")
    return Graph(n, (), f"N{n}")


def line_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise BadSizeError("path needs n >= 1")
    return Graph.make(n, [(i, i + 1) for i in range(n - 1)], f"L{n}")


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    if n < 1:
        raise BadSizeError("star needs n >= 1")
    return Graph.make(n, [(0, i) for i in range(1, n)], f"S{n}")


def circuit_graph(n: int) -> Graph:
    """Cycle on n vertices; C2 is a doubled edge and C1 a single loop."""
    if n < 1:
        raise BadSizeError("circuit needs n >= 1")
    if n == 1:
        return Graph.make(1, [(0, 0)], "C1")
    if n == 2:
        return Graph.make(2, [(0, 1), (0, 1)], "C2")
    return Graph.make(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadSizeError("complete graph needs n >= 1")
    return Graph.make(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                      f"K{n}")


def square_with_diagonal(n: int = 4) -> Graph:
    """4-cycle 0-1-2-3 plus the chord 0-2; the family has only n = 4."""
    if n != 4:
        raise BadSizeError("c4d is defined only for n = 4")
    return Graph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], "C4d")


def grid_graph(ly: int, lx: int) -> Graph:
    """Square-lattice strip with ly rows and lx columns, free boundaries."""
    if ly < 1 or lx < 1:
        raise BadSizeError("grid needs ly, lx >= 1")
    edges = []
    for r in range(ly):
        for c in range(lx):
            x = r * lx + c
            if c + 1 < lx:
                edges.append((x, x + 1))
            if r + 1 < ly:
                edges.append((x, x + lx))
    return Graph.make(ly * lx, edges, f"sq{ly}x{lx}")


FAMILY_BUILDERS = {
    "null": null_graph,
    "line": line_graph,
    "star": star_graph,
    "circuit": circuit_graph,
    "complete": complete_graph,
    "c4d": square_with_diagonal,
}


def make_family(kind: str, n: int) -> Graph:
    if kind not in FAMILY_BUILDERS:
        raise BadInputError(f"unknown family {kind!r}; choose from "
                            f"{sorted(FAMILY_BUILDERS)}")
    return FAMILY_BUILDERS[kind](n)


# -- spanning-subgraph enumeration (reference path, exponential) --------------

@dataclass
class SubgraphSummary:
    edge_count: int
    component_count: int
    component_sizes: tuple[int, ...]


def enumerate_spanning_subgraphs(g: Graph) -> Iterator[SubgraphSummary]:
    """All 2^e spanning subgraphs with component statistics.

    Reference-only: the production path in ``partition`` shares prefixes and
    never materializes this enumeration.
    """
    m = g.e
    for mask in range(1 << m):
        parent = list(range(g.n))
        size = [1] * g.n

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = 0
        for j in range(m):
            if not (mask >> j) & 1:
                continue
            chosen += 1
            u, v = g.edges[j]
            ru, rv = find(u), find(v)
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
        roots = {find(x) for x in range(g.n)}
        sizes = tuple(sorted(size[r] for r in roots))
        yield SubgraphSummary(chosen, len(roots), sizes)
