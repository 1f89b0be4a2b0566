"""Graph representation, exact minimum vertex cover, and type partitioning.

Vertices carry external names but all computation runs on dense 0-based
indices in declaration order. A graph is one sorted int64 array of edge
keys u * n + v with u < v; the CSR arrays indptr and indices (row v lists
v's neighbours in ascending order) are derived from it on first use, and so
are the tuple views edges and adj, which only callers on small graphs ask
for. The cover search, the type partitions and the Graph methods read the
arrays, so nothing builds a Python object per vertex or per edge of a large
graph.

Two vertices have the same type when N(u)\\{v} = N(v)\\{u}; with a fixed
cover every cover vertex is additionally split into its own singleton type.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverBudgetExceeded, GraphFormatError, InvalidCoverError

DEFAULT_K_MAX = 20


class Graph:
    """Simple undirected graph. No loops, no parallel edges.

    keys holds every edge once as u * n + v with u < v, sorted and read-only;
    build, from_edges and parse_graph validate what they are given, the
    constructor takes keys as they are. Equality and hashing go by names and
    keys.
    """

    def __init__(self, names: tuple[str, ...] | list[str], keys: np.ndarray):
        self.names = tuple(names)
        self.keys = keys
        keys.flags.writeable = False

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
    def _of_keys(cls, names: tuple[str, ...] | list[str], keys: set[int]) -> "Graph":
        """The graph of validated edge keys u * n + v with u < v."""
        array = np.fromiter(keys, dtype=np.int64, count=len(keys))
        array.sort()
        return cls(names, array)

    @classmethod
    def from_edges(cls, n: int, edge_list) -> "Graph":
        return cls.build(tuple(str(i + 1) for i in range(n)), edge_list)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.keys, other.keys)

    def __hash__(self) -> int:
        return hash((self.names, self.keys.tobytes()))

    def __repr__(self) -> str:
        lo, hi = self.endpoints()
        return f"Graph(names={self.names!r}, edges={list(zip(lo.tolist(), hi.tolist()))!r})"

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays (u, v) of the edges in key order, u < v."""
        return np.divmod(self.keys, max(self.n, 1))

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.endpoints()
        rows = np.concatenate((hi, lo))
        # stable: row v takes its lower neighbours (in key order, so
        # ascending), then its upper ones (ascending too)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return indptr, np.concatenate((lo, hi))[order]

    @property
    def indptr(self) -> np.ndarray:
        """Row offsets: v's neighbours are indices[indptr[v]:indptr[v + 1]]."""
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        """Every vertex's neighbours in ascending order, row after row."""
        return self._csr[1]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v), u < v, in key order."""
        lo, hi = self.endpoints()
        return tuple(zip(lo.tolist(), hi.tolist()))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Each vertex's neighbourhood (read off edges: the callers' graphs
        are small, and so need no CSR)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def has_edge(self, u: int, v: int) -> bool:
        key = u * self.n + v if u < v else v * self.n + u  # never a key when u == v
        keys = memoryview(self.keys)
        i = bisect.bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def adjacency(self, vertices) -> np.ndarray:
        """The adjacency matrix among the given vertices, in the given order."""
        vs = np.asarray(vertices, dtype=np.int64)
        key = np.minimum.outer(vs, vs) * self.n + np.maximum.outer(vs, vs)
        return self.keys.searchsorted(key, "right") > self.keys.searchsorted(key)

    def class_adjacency(self, classes) -> np.ndarray:
        """Adjacency between classes of twins: [a, b] is the adjacency of
        the first members of a and b, [a, a] that of a's first two members
        (False for a singleton)."""
        adj = self.adjacency([members[0] for members in classes])
        np.fill_diagonal(adj, [len(ms) > 1 and self.has_edge(ms[0], ms[1]) for ms in classes])
        return adj

    def induced(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the given vertices (kept in index order).

        Returns the new graph and the old-index -> new-index map.
        """
        kept = sorted(vertices)
        new = np.full(self.n, -1, dtype=np.int64)
        new[kept] = np.arange(len(kept))
        lo, hi = (new[ends] for ends in self.endpoints())
        inside = (lo >= 0) & (hi >= 0)
        # new is increasing on kept, so the new keys stay sorted
        keys = lo[inside] * len(kept) + hi[inside]
        return Graph(tuple(self.names[v] for v in kept), keys), {old: i for i, old in enumerate(kept)}

    def relabel(self, perm: list[int]) -> "Graph":
        """Graph with vertex i renamed to perm[i] (names follow)."""
        names = [""] * self.n
        for i, p in enumerate(perm):
            names[p] = self.names[i]
        lo, hi = (np.asarray(perm, dtype=np.int64)[ends] for ends in self.endpoints())
        return Graph(names, np.unique(np.minimum(lo, hi) * self.n + np.maximum(lo, hi)))

    def cut_size(self, parts) -> int:
        """Number of edges with endpoints in different parts."""
        owner = np.full(self.n, -1, dtype=np.int64)
        for i, part in enumerate(parts):
            owner[list(part)] = i
        lo, hi = self.endpoints()
        return int(np.count_nonzero(owner[lo] != owner[hi]))


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
    lo, hi = g.endpoints()
    out.extend(f"e {u + 1} {v + 1}" for u, v in zip(lo.tolist(), hi.tolist()))
    return "\n".join(out) + "\n"


def min_vertex_cover(g: Graph, k_max: int = DEFAULT_K_MAX) -> VertexCover:
    """Exact minimum vertex cover by edge branching, budgeted by k_max.

    Iterative deepening over the budget gives the minimum; branching on the
    lower-index endpoint first makes the returned cover deterministic.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    keys, n = memoryview(g.keys), g.n

    def search(start: int, removed: set[int], budget: int):
        # the edges before `start` are covered by `removed`; the edges whose
        # lower endpoint is u form one run of keys, skipped whole once u is
        # removed
        i = start
        while i < len(keys):
            u, v = divmod(keys[i], n)
            if u in removed:
                i = bisect.bisect_left(keys, (u + 1) * n, i)
            elif v in removed:
                i += 1
            else:
                break
        else:
            return set()
        if budget == 0:
            return None
        for pick in (u, v):
            removed.add(pick)
            sub = search(i + 1, removed, budget - 1)
            removed.discard(pick)
            if sub is not None:
                sub.add(pick)
                return sub
        return None

    for k in range(0, k_max + 1):
        found = search(0, set(), k)
        if found is not None:
            return VertexCover(frozenset(found))
    raise CoverBudgetExceeded(k_max)


def _ordered_types(classes: list[tuple[int, ...]], cover: list[int]) -> TypePartition:
    """The partition of classes and the cover's singletons, ordered by
    smallest member."""
    types = tuple(sorted(classes + [(v,) for v in cover], key=lambda c: c[0]))
    in_cover = set(cover)
    return TypePartition(
        types, frozenset(i for i, t in enumerate(types) if len(t) == 1 and t[0] in in_cover)
    )


def type_partition(g: Graph, cover: VertexCover) -> TypePartition:
    """Types w.r.t. a fixed cover: cover vertices become singleton types,
    non-cover vertices group by neighborhood (always a subset of the cover).

    Read off the cover vertices' CSR rows: each vertex gets one bit per
    cover vertex it sees, the cover is checked by counting the edges the
    rows hold, and the other vertices group by their masks.
    """
    members = sorted(cover.vertices)
    k, n = len(members), g.n
    starts = g.indptr[members].tolist()
    stops = g.indptr[[c + 1 for c in members]].tolist()
    # one word per 31 cover vertices, each of the narrowest integer type
    # (small ones sort by radix); the cover vertices' own labels become -1
    words = [
        np.zeros(n, dtype=np.min_scalar_type(-(1 << min(k - j, 31))))
        for j in range(0, max(k, 1), 31)
    ]
    for j, (a, b) in enumerate(zip(starts, stops)):
        words[j // 31][g.indices[a:b]] += 1 << j % 31
    # an edge inside the cover sits in two of the rows, any other in one
    inner = sum(bits.bit_count() for word in words for bits in word[members].tolist())
    if sum(stops) - sum(starts) - inner // 2 != g.m:
        in_cover = np.zeros(n, dtype=bool)
        in_cover[members] = True
        lo, hi = g.endpoints()
        first = int((~(in_cover[lo] | in_cover[hi])).argmax())
        raise InvalidCoverError(f"edge ({lo[first]},{hi[first]}) not covered")
    label = words[0]
    for word in words[1:]:  # fold each further word in as a dense label
        label = np.unique((label.astype(np.int64) << 31) | word, return_inverse=True)[1]
    label[members] = -1
    # stable: by label, then by vertex; the cover vertices come first
    order = label.argsort(kind="stable")[k:]
    label = label[order]
    cuts = [0, *((label[1:] != label[:-1]).nonzero()[0] + 1).tolist(), n - k]
    order = order.tolist()
    return _ordered_types([tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b], members)


def nd_partition(g: Graph) -> TypePartition:
    """Maximal same-type classes, no cover convention; the class count is the
    neighborhood diversity of g.

    u ~ v holds iff N(u)\\{v} = N(v)\\{u}: equal open neighborhoods for
    non-adjacent pairs, equal closed neighborhoods for adjacent ones. No
    vertex has both kinds of twin: were N(u) = N(v) and N[w] = N[v] with u
    and w other than v, then w is in N(v) = N(u), so u is in N[w] = N[v],
    yet u is not in N(v) = N(u). So each class is a group of equal open rows
    of size at least 2, or else a group of equal closed rows. Each vertex is
    keyed by the bytes of its open and of its closed CSR row, and a group by
    its first member.
    """
    indptr, indices = g.indptr, g.indices
    # closed row v is open row v with v inserted after its lower neighbours,
    # so it starts v entries further on
    below = np.bincount(g.endpoints()[1], minlength=g.n)
    closed = np.insert(indices, indptr[:-1] + below, np.arange(g.n)).tobytes()
    opened = indices.tobytes()
    size = indices.itemsize
    ptr = (size * indptr).tolist()
    first_open: dict[bytes, int] = {}
    first_closed: dict[bytes, int] = {}
    open_group, closed_group = [], []
    for v in range(g.n):
        a, b = ptr[v], ptr[v + 1]
        open_group.append(first_open.setdefault(opened[a:b], v))
        closed_group.append(first_closed.setdefault(closed[a + v * size : b + (v + 1) * size], v))
    shared = Counter(open_group)
    groups: dict[int, list[int]] = {}
    for v, (o, c) in enumerate(zip(open_group, closed_group)):
        groups.setdefault(o if shared[o] > 1 else c, []).append(v)
    return _ordered_types([tuple(ms) for ms in groups.values()], [])
