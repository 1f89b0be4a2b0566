"""Graph representation, exact minimum vertex cover, and type partitioning.

Vertices carry external names but all computation runs on dense 0-based
indices in declaration order. Two vertices have the same type when
N(u)\\{v} = N(v)\\{u}; with a fixed cover every cover vertex is additionally
split into its own singleton type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CoverBudgetExceeded, GraphFormatError, InvalidCoverError

DEFAULT_K_MAX = 20


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph. No loops, no parallel edges."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # normalised u < v, sorted, deduplicated
    adj: tuple[frozenset[int], ...] = field(repr=False)

    @classmethod
    def build(cls, names: tuple[str, ...] | list[str], edge_list) -> "Graph":
        n = len(names)
        keys = set()
        for u, v in edge_list:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) references unknown vertex")
            keys.add(u * n + v if u < v else v * n + u)
        return cls._of_keys(names, keys)

    @classmethod
    def _of_keys(cls, names: tuple[str, ...] | list[str], keys) -> "Graph":
        """The graph of validated edge keys u * n + v with u < v."""
        n = len(names)
        edges = tuple(divmod(key, n) for key in sorted(keys))
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls(tuple(names), edges, tuple(frozenset(s) for s in adj))

    @classmethod
    def from_edges(cls, n: int, edge_list) -> "Graph":
        return cls.build(tuple(str(i + 1) for i in range(n)), edge_list)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def induced(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the given vertices (kept in index order).

        Returns the new graph and the old-index -> new-index map.
        """
        kept = sorted(vertices)
        remap = {old: new for new, old in enumerate(kept)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u in remap and v in remap
        ]
        return Graph.build(tuple(self.names[v] for v in kept), edges), remap

    def relabel(self, perm: list[int]) -> "Graph":
        """Graph with vertex i renamed to perm[i] (names follow)."""
        names = [""] * self.n
        for i, p in enumerate(perm):
            names[p] = self.names[i]
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        return Graph.build(tuple(names), edges)

    def cut_size(self, parts) -> int:
        """Number of edges with endpoints in different parts."""
        owner = {}
        for i, part in enumerate(parts):
            for v in part:
                owner[v] = i
        return sum(1 for u, v in self.edges if owner[u] != owner[v])


@dataclass(frozen=True)
class VertexCover:
    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TypePartition:
    """Partition of V(G) into types, ordered by smallest member.

    cover_types holds the indices of the singleton types that came from cover
    vertices (empty in neighborhood-diversity mode).
    """

    types: tuple[tuple[int, ...], ...]
    cover_types: frozenset[int]

    @property
    def count(self) -> int:
        return len(self.types)

    def type_of(self, n: int) -> list[int]:
        """Vertex index -> type index lookup."""
        out = [-1] * n
        for t, members in enumerate(self.types):
            for v in members:
                out[v] = t
        return out


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Lines: `# comment`, `p <n> <m>` header, optional `v <index> <name>`
    aliases, and `e <i> <j>` edges with 1-based endpoints. The declared m must
    equal the number of distinct edges.
    """
    n = None
    declared_m = None
    names: list[str] = []
    keys: set[int] = set()  # u * n + v for each edge, u < v

    def vertex(tok: str, ln: int) -> int:
        try:
            i = int(tok)
        except ValueError:
            raise GraphFormatError(f"expected vertex index, got {tok!r}", ln)
        if not (1 <= i <= n):
            raise GraphFormatError(f"unknown vertex {i} (graph has {n})", ln)
        return i - 1

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", ln)
            if len(parts) != 3:
                raise GraphFormatError("header must be `p <n> <m>`", ln)
            try:
                n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("header counts must be integers", ln)
            if n < 0 or declared_m < 0:
                raise GraphFormatError("header counts must be non-negative", ln)
            names = [str(i + 1) for i in range(n)]
        elif kind == "v":
            if n is None:
                raise GraphFormatError("alias before header", ln)
            if len(parts) != 3:
                raise GraphFormatError("alias must be `v <index> <name>`", ln)
            idx = vertex(parts[1], ln)
            names[idx] = parts[2]
        elif kind == "e":
            if n is None:
                raise GraphFormatError("edge before header", ln)
            if len(parts) != 3:
                raise GraphFormatError("edge must be `e <i> <j>`", ln)
            u, v = vertex(parts[1], ln), vertex(parts[2], ln)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u + 1}", ln)
            keys.add(u * n + v if u < v else v * n + u)
        else:
            raise GraphFormatError(f"unknown line kind {kind!r}", ln)

    if n is None:
        raise GraphFormatError("missing `p <n> <m>` header")
    if len(set(names)) != n:
        raise GraphFormatError("vertex names must be distinct")
    if declared_m != len(keys):
        raise GraphFormatError(
            f"header declares {declared_m} edges but file has {len(keys)} distinct"
        )
    return Graph._of_keys(names, keys)


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph (canonical form)."""
    out = [f"p {g.n} {g.m}"]
    for i, name in enumerate(g.names):
        if name != str(i + 1):
            out.append(f"v {i + 1} {name}")
    out.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def min_vertex_cover(g: Graph, k_max: int = DEFAULT_K_MAX) -> VertexCover:
    """Exact minimum vertex cover by edge branching, budgeted by k_max.

    Iterative deepening over the budget gives the minimum; branching on the
    lower-index endpoint first makes the returned cover deterministic.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    def search(queued: list[tuple[int, int]], start: int, removed: set[int], budget: int):
        # queued is the edge list; `removed` covers the edges before `start`
        i = start
        while i < len(queued) and (queued[i][0] in removed or queued[i][1] in removed):
            i += 1
        if i == len(queued):
            return set()
        if budget == 0:
            return None
        u, v = queued[i]
        for pick in (u, v):
            removed.add(pick)
            sub = search(queued, i + 1, removed, budget - 1)
            removed.discard(pick)
            if sub is not None:
                sub.add(pick)
                return sub
        return None

    edges = list(g.edges)
    for k in range(0, k_max + 1):
        found = search(edges, 0, set(), k)
        if found is not None:
            return VertexCover(frozenset(found))
    raise CoverBudgetExceeded(k_max)


def _grouped_types(groups: dict, singles: list[int]) -> tuple[tuple[int, ...], ...]:
    classes = [tuple(sorted(members)) for members in groups.values()]
    classes.extend((v,) for v in singles)
    return tuple(sorted(classes, key=lambda c: c[0]))


def type_partition(g: Graph, cover: VertexCover) -> TypePartition:
    """Types w.r.t. a fixed cover: cover vertices become singleton types,
    non-cover vertices group by neighborhood (always a subset of the cover)."""
    for u, v in g.edges:
        if u not in cover.vertices and v not in cover.vertices:
            raise InvalidCoverError(f"edge ({u},{v}) not covered")
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if v in cover.vertices:
            continue
        groups.setdefault(g.adj[v], []).append(v)
    types = _grouped_types(groups, sorted(cover.vertices))
    cover_idx = frozenset(
        i for i, t in enumerate(types) if len(t) == 1 and t[0] in cover.vertices
    )
    return TypePartition(types, cover_idx)


def nd_partition(g: Graph) -> TypePartition:
    """Maximal same-type classes, no cover convention; the class count is the
    neighborhood diversity of g.

    u ~ v holds iff N(u)\\{v} = N(v)\\{u}: equal open neighborhoods for
    non-adjacent pairs, equal closed neighborhoods for adjacent ones.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    open_keys: dict[frozenset[int], int] = {}
    closed_keys: dict[frozenset[int], int] = {}
    for v in range(g.n):
        op = g.adj[v]
        cl = g.adj[v] | {v}
        if op in open_keys:
            union(v, open_keys[op])
        else:
            open_keys[op] = v
        if cl in closed_keys:
            union(v, closed_keys[cl])
        else:
            closed_keys[cl] = v

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    types = tuple(sorted((tuple(sorted(ms)) for ms in groups.values()),
                         key=lambda c: c[0]))
    return TypePartition(types, frozenset())
