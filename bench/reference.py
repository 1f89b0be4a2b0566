"""Reference answers and witness validators, written apart from cardmso.

Nothing here imports cardmso: every answer the benchmark accepts is computed
from the property's definition, either by plain enumeration (graphs of at
most about ten vertices) or by a structural argument that holds on the
benchmark's generated graph families. Graphs are plain data: a vertex count
n and a list of 0-based edges (u, v).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product

import networkx as nx


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def equitable_sizes(n: int, c: int) -> list[int]:
    q, rem = divmod(n, c)
    return [q + 1] * rem + [q] * (c - rem)


def _equitable(sizes) -> bool:
    return max(sizes) - min(sizes) <= 1


def _independent(vertices, adj) -> bool:
    return all(not (adj[v] & vertices) for v in vertices)


def _clique(vertices, adj) -> bool:
    return all(vertices - {v} <= adj[v] for v in vertices)


def _connected(vertices, adj) -> bool:
    """Connected induced subgraph; the empty set counts as connected, as in
    the corpus's connectivity predicate."""
    if not vertices:
        return True
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & vertices:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def _classes(labels, c: int) -> list[set[int]]:
    out = [set() for _ in range(c)]
    for v, label in enumerate(labels):
        out[label].add(v)
    return out


def _cut(edges, labels) -> int:
    return sum(1 for u, v in edges if labels[u] != labels[v])


# ------------------------------------------------------- plain enumeration

def brute_bipartite_equal(n: int, edges) -> bool:
    """Two colour classes of equal size with every edge between them."""
    if n % 2:
        return False
    for half in combinations(range(n), n // 2):
        side = set(half)
        if all((u in side) != (v in side) for u, v in edges):
            return True
    return False


def brute_equitable(n: int, edges, c: int, connected: bool) -> bool:
    """c labelled classes of sizes differing by at most one, each independent
    (an equitable colouring) or each connected."""
    adj = adjacency(n, edges)
    ok = _connected if connected else _independent
    for labels in product(range(c), repeat=n):
        classes = _classes(labels, c)
        if _equitable([len(p) for p in classes]) and all(ok(p, adj) for p in classes):
            return True
    return False


def brute_ids_sizes(n: int, edges) -> set[int]:
    """Sizes of all independent dominating sets."""
    adj = adjacency(n, edges)
    sizes = set()
    for mask in range(1 << n):
        chosen = {v for v in range(n) if (mask >> v) & 1}
        if _independent(chosen, adj) and all(v in chosen or adj[v] & chosen for v in range(n)):
            sizes.add(len(chosen))
    return sizes


def brute_partition(n: int, edges, r: int, kind: str) -> bool:
    """Can V be split into r (possibly empty) independent sets or cliques?"""
    adj = adjacency(n, edges)
    ok = _independent if kind == "independence" else _clique
    return any(
        all(ok(p, adj) for p in _classes(labels, r))
        for labels in product(range(r), repeat=n)
    )


def brute_cbalance(n: int, edges, c: int) -> int:
    """Minimum cut over partitions into c parts of sizes differing by <= 1."""
    best = None
    for labels in product(range(c), repeat=n):
        if _equitable([labels.count(p) for p in range(c)]):
            cut = _cut(edges, labels)
            best = cut if best is None else min(best, cut)
    return best


# ------------------------------------------------------ structural answers
# A planted cover graph has the vertex cover {0, ..., k-1}: no edge joins two
# vertices outside it, so every non-cover vertex sees only cover vertices.

def planted_bipartite_equal(n: int, edges) -> bool:
    """Each bipartite component fixes its two colour classes up to a swap,
    so equal sides exist iff the components' class differences split into
    two halves of equal sum."""
    if n % 2:
        return False
    adj = adjacency(n, edges)
    colour = [-1] * n
    diffs = []
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        count = [1, 0]
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    count[colour[w]] += 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
        diffs.append(abs(count[0] - count[1]))
    total = sum(diffs)
    if total % 2:
        return False
    reachable = 1  # bit s set: some subset of diffs sums to s
    for d in diffs:
        reachable |= reachable << d
    return bool((reachable >> (total // 2)) & 1)


def planted_ids_sizes(n: int, edges, k: int) -> set[int]:
    """An independent dominating set X is fixed by I = X ∩ cover: a non-cover
    vertex with a neighbour in I must stay out (independence) and one
    without must come in (it can only be dominated from the cover)."""
    adj = adjacency(n, edges)
    outside = range(k, n)
    sizes = set()
    for bits in range(1 << k):
        inner = {u for u in range(k) if (bits >> u) & 1}
        if not _independent(inner, adj):
            continue
        chosen = inner | {v for v in outside if not (adj[v] & inner)}
        if all(u in chosen or adj[u] & chosen for u in range(k)):
            sizes.add(len(chosen))
    return sizes


def planted_colourable(n: int, edges, k: int, r: int) -> bool:
    """r-colourable iff some proper colouring of the cover leaves every
    non-cover vertex a colour its (cover) neighbours do not use."""
    adj = adjacency(n, edges)
    cover_edges = [(u, v) for u, v in edges if u < k and v < k]
    for colours in product(range(r), repeat=k):
        if any(colours[u] == colours[v] for u, v in cover_edges):
            continue
        if all(len({colours[u] for u in adj[v]}) < r for v in range(k, n)):
            return True
    return False


def planted_cbalance(n: int, edges, k: int, c: int) -> int:
    """For each assignment of the cover to parts and each equitable size
    vector, placing the non-cover vertices is a transportation problem:
    a vertex of neighbourhood N costs |{u in N : part(u) != p}| in part p."""
    adj = adjacency(n, edges)
    types = Counter(frozenset(adj[v]) for v in range(k, n))
    cover_edges = [(u, v) for u, v in edges if u < k and v < k]
    vectors = set(permutations(equitable_sizes(n, c)))
    best = None
    for parts in product(range(c), repeat=k):
        fixed = _cut(cover_edges, parts)
        used = Counter(parts)
        for sizes in vectors:
            room = [sizes[p] - used.get(p, 0) for p in range(c)]
            if min(room) < 0:
                continue
            flow = nx.DiGraph()
            for p in range(c):
                flow.add_node(("part", p), demand=room[p])
            for t, (neighbours, count) in enumerate(types.items()):
                flow.add_node(("type", t), demand=-count)
                for p in range(c):
                    cost = sum(1 for u in neighbours if parts[u] != p)
                    flow.add_edge(("type", t), ("part", p), weight=cost)
            total = fixed + nx.min_cost_flow_cost(flow)
            best = total if best is None else min(best, total)
    return best


def multipartite_ids_sizes(part_sizes) -> set[int]:
    """In a complete multipartite graph an independent set lies inside one
    part, and dominating that part's other vertices needs all of them."""
    return set(part_sizes)


# ---------------------------------------------------------------- validators

def _is_partition(n: int, sets) -> bool:
    seen: set[int] = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return seen == set(range(n))


def valid_bipartite_equal(n: int, edges, sets) -> bool:
    if len(sets) != 2 or not _is_partition(n, sets):
        return False
    left, right = sets
    return len(left) == len(right) and all((u in left) != (v in left) for u, v in edges)


def valid_equitable(n: int, edges, sets, c: int, connected: bool) -> bool:
    if len(sets) != c or not _is_partition(n, sets) or not _equitable([len(s) for s in sets]):
        return False
    adj = adjacency(n, edges)
    ok = _connected if connected else _independent
    return all(ok(set(s), adj) for s in sets)


def valid_ids(n: int, edges, sets, size: int) -> bool:
    if len(sets) != 1:
        return False
    chosen = set(sets[0])
    adj = adjacency(n, edges)
    return (
        len(chosen) == size
        and chosen <= set(range(n))
        and _independent(chosen, adj)
        and all(v in chosen or adj[v] & chosen for v in range(n))
    )


def valid_parts(n: int, edges, parts, r: int, kind: str) -> bool:
    if len(parts) != r or not _is_partition(n, parts):
        return False
    adj = adjacency(n, edges)
    ok = _independent if kind == "independence" else _clique
    return all(ok(set(p), adj) for p in parts)


def valid_balanced(n: int, edges, parts, c: int, cut: int) -> bool:
    """Parts form an equitable c-partition whose cut, recounted from the
    edge list, is the reported value."""
    if len(parts) != c or not _is_partition(n, parts) or not _equitable([len(p) for p in parts]):
        return False
    label = {v: i for i, p in enumerate(parts) for v in p}
    return _cut(edges, label) == cut
