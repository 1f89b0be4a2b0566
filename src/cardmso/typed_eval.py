"""Exact MSO evaluation by counting over same-type vertex classes.

Vertices of one class are interchangeable: any permutation inside a class is
a graph automorphism, so a set assignment matters only through how many
vertices of each class it takes, and a vertex assignment only through which
class the vertex comes from and which previously picked vertices it equals.
Set quantifiers therefore enumerate per-class counts instead of raw subsets
and vertex quantifiers enumerate picks per class plus aliases to earlier
picks. With memoisation on the state projected to each node's free variables
this decides sentences on graphs far beyond raw 2^n enumeration.

The vertex-local signature filter (_local_split) reads the conjuncts
`forall v. psi(v)` on a body's top-level And spine whose psi is a Boolean
combination of `v in X` for prefix sets X (Knop, Koutecky, Masarik, Toufar,
"Simplified algorithmic metatheorems beyond MSO", LMCS 2019). Count-state
enumeration (satisfying_states) never gives vertices to a signature they
rule out; the solver's table path reads only the cells they allow.

Classes must have uniform adjacency: inside a class all pairs adjacent or
none, and between two classes all pairs or none. Type partitions (with or
without the cover convention) have this shape. It is validated on entry,
on the edge arrays, against Graph.class_adjacency (read off each class's
first members): no edge may join two classes the matrix keeps apart, and
the edges must number what the matrix promises. A block of pairs holds no
more edges than it has pairs, so then every adjacent block is complete.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import BudgetExceeded
from .formula import (
    CONNECTIVES, Adjacent, And, ConstraintRef, FalseLit, Iff, Implies, Member,
    Node, Not, Or, Quant, SetEq, TrueLit, VertexEq, free_vars,
)
from .graph import Graph, nd_partition

DEFAULT_STATE_BUDGET = 50_000_000
MEMO_BUDGET = 8_000_000  # memo entries weighted by 1 + classes + picks: about 1.1 GB

# state entries: classes = ((base_id, sig, count), ...) with count > 0,
# picks = ((base_id, sig), ...); sig bit i = membership in the i-th bound set


def _local_mask(node: Node, var: str, bit_of: dict[str, int], full: int) -> int | None:
    """Bit s set <=> node holds for a vertex var of signature s, when node is
    a Boolean combination of `var in X` for prefix sets X; None otherwise."""
    if isinstance(node, TrueLit):
        return full
    if isinstance(node, FalseLit):
        return 0
    if isinstance(node, Member):
        if node.vertex != var or node.set not in bit_of:
            return None
        bit = bit_of[node.set]
        return sum(1 << s for s in range(full.bit_length()) if (s >> bit) & 1)
    if isinstance(node, Not):
        child = _local_mask(node.child, var, bit_of, full)
        return None if child is None else full ^ child
    if type(node) in CONNECTIVES:
        a = _local_mask(node.left, var, bit_of, full)
        b = _local_mask(node.right, var, bit_of, full)
        return None if a is None or b is None else CONNECTIVES[type(node)](a, b, full)
    return None


def _local_split(prefix: tuple[str, ...], body: Node) -> tuple[frozenset[int] | None, Node]:
    """One walk of body's top-level And spine: the signatures (bit i =
    membership in prefix[i]) every vertex-local conjunct accepts (None when
    there is none), and the rest, the And of the others (true when none).
    body holds iff every vertex's signature is allowed and the rest holds."""
    bit_of = {name: i for i, name in enumerate(prefix)}
    full = (1 << (1 << len(prefix))) - 1
    allowed, rest, spine = None, None, [body]
    while spine:
        node = spine.pop()
        local = isinstance(node, Quant) and node.quantifier == "forall" and node.sort == "vertex"
        mask = _local_mask(node.child, node.var, bit_of, full) if local else None
        if isinstance(node, And):
            spine += (node.right, node.left)
        elif mask is None:
            rest = node if rest is None else And(rest, node)
        else:
            allowed = mask if allowed is None else allowed & mask
    if allowed is not None:
        allowed = frozenset(s for s in range(1 << len(prefix)) if (allowed >> s) & 1)
    return allowed, TrueLit() if rest is None else rest


def _signature_prefixes(allowed: frozenset[int], m: int) -> list[frozenset[int]]:
    """Entry i: the signatures on bits 0..i some allowed signature extends."""
    return [frozenset(s & ((2 << i) - 1) for s in allowed) for i in range(m)]


class TypedEvaluator:
    def __init__(
        self,
        g: Graph,
        classes: list[tuple[int, ...]] | None = None,
        state_budget: int = DEFAULT_STATE_BUDGET,
    ):
        self.g = g
        self.state_budget = state_budget
        self.calls = 0
        self.leaves = 0  # candidate states satisfying_states evaluated
        self.memo_used = 0  # memo entries, weighted as MEMO_BUDGET counts them

        if classes is None:
            classes = nd_partition(g).types
        # classes as the caller orders them: the partitions give them by
        # first member, each in ascending order
        self.base_members = tuple(tuple(members) for members in classes)
        adjacent = g.class_adjacency(self.base_members)
        self._validate_uniform(adjacent)
        self.adjacent = adjacent.tolist()

        self.set_bits: dict[str, int] = {}
        self.nbits = 0
        self.vertex_pick: dict[str, int] = {}
        self._freemap: dict = {}
        self._memo: dict[int, dict] = {}

    def _validate_uniform(self, adjacent: np.ndarray) -> None:
        """Every edge among classed vertices joins classes adjacent in the
        matrix, and the edges number what it promises (see the module
        docstring). Linear in vertices plus edges."""
        sizes = np.array([len(members) for members in self.base_members], dtype=np.int64)
        class_of = np.full(self.g.n, -1, dtype=np.int64)
        members = np.fromiter(chain.from_iterable(self.base_members), np.int64, int(sizes.sum()))
        class_of[members] = np.repeat(np.arange(len(sizes)), sizes)
        ends = class_of[np.array(self.g.endpoints())]
        lo, hi = ends[:, (ends >= 0).all(axis=0)]
        # ordered pairs of two members: each edge is promised twice
        promised = adjacent * (np.outer(sizes, sizes) - np.diag(sizes))
        stray = ~adjacent[lo, hi]
        if not stray.any() and 2 * len(lo) == promised.sum():
            return
        inner = lo == hi
        internal = inner[stray].any() if stray.any() else 2 * np.count_nonzero(inner) != promised.trace()
        raise ValueError(
            "class without uniform internal adjacency" if internal
            else "class pair without uniform adjacency"
        )

    # ------------------------------------------------------------------ state

    def initial_state(self):
        classes = tuple(
            (b, 0, len(members)) for b, members in enumerate(self.base_members)
        )
        return classes, ()

    def _project_key(self, node: Node, classes, picks):
        free_sets, free_vertices = free_vars(node, self._freemap)
        bits = sorted(self.set_bits[s] for s in free_sets if s in self.set_bits)
        bitpos = {b: i for i, b in enumerate(bits)}

        def proj(sig: int) -> int:
            out = 0
            for b, i in bitpos.items():
                out |= ((sig >> b) & 1) << i
            return out

        merged: dict[tuple[int, int], int] = {}
        for base, sig, count in classes:
            key = (base, proj(sig))
            merged[key] = merged.get(key, 0) + count

        kept: list[tuple[int, int]] = []
        slot_of: dict[int, int] = {}
        pattern: list[int] = []
        for name in sorted(free_vertices):
            pid = self.vertex_pick[name]
            if pid not in slot_of:
                slot_of[pid] = len(kept)
                base, sig = picks[pid]
                kept.append((base, proj(sig)))
            pattern.append(slot_of[pid])
        for pid, (base, sig) in enumerate(picks):
            if pid not in slot_of:
                key = (base, proj(sig))
                merged[key] = merged.get(key, 0) + 1

        return (tuple(sorted(merged.items())), tuple(kept), tuple(pattern))

    # ------------------------------------------------------------- evaluation

    def eval(self, node: Node, classes, picks) -> bool:
        self.calls += 1
        if self.calls > self.state_budget:
            raise BudgetExceeded("mso-states", self.state_budget, self.calls)

        if isinstance(node, TrueLit):
            return True
        if isinstance(node, FalseLit):
            return False
        if isinstance(node, ConstraintRef):
            raise ValueError("typed evaluation requires a constraint-free body")
        if isinstance(node, Member):
            _, sig = picks[self.vertex_pick[node.vertex]]
            return bool((sig >> self.set_bits[node.set]) & 1)
        if isinstance(node, Adjacent):
            p, q = self.vertex_pick[node.a], self.vertex_pick[node.b]
            if p == q:
                return False
            (b1, _), (b2, _) = picks[p], picks[q]
            return self.adjacent[b1][b2]
        if isinstance(node, VertexEq):
            return self.vertex_pick[node.a] == self.vertex_pick[node.b]
        if isinstance(node, SetEq):
            return self._set_eq(node, classes, picks)
        if isinstance(node, Not):
            return not self.eval(node.child, classes, picks)
        if isinstance(node, And):
            return self.eval(node.left, classes, picks) and self.eval(node.right, classes, picks)
        if isinstance(node, Or):
            return self.eval(node.left, classes, picks) or self.eval(node.right, classes, picks)
        if isinstance(node, Implies):
            return (not self.eval(node.left, classes, picks)) or self.eval(node.right, classes, picks)
        if isinstance(node, Iff):
            return self.eval(node.left, classes, picks) == self.eval(node.right, classes, picks)
        if isinstance(node, Quant):
            table = self._memo.setdefault(id(node), {})
            key = self._project_key(node, classes, picks)
            got = table.get(key)
            if got is None:
                got = self._eval_quant(node, classes, picks)
                table[key] = got
                self.memo_used += 1 + len(key[0]) + len(key[1])
                if self.memo_used > MEMO_BUDGET:
                    raise BudgetExceeded("mso-memo", MEMO_BUDGET, self.memo_used)
            return got
        raise TypeError(f"unknown node {node!r}")

    def _set_eq(self, node: SetEq, classes, picks) -> bool:
        both = (1 << self.set_bits[node.a]) | (1 << self.set_bits[node.b])
        return all(sig & both in (0, both) for _, sig, _ in classes) and all(
            sig & both in (0, both) for _, sig in picks
        )

    def _eval_quant(self, node: Quant, classes, picks) -> bool:
        want = node.quantifier == "exists"
        if node.sort == "set":
            bit = self.nbits
            self.set_bits[node.var] = bit
            self.nbits += 1
            try:
                for st in self._set_choices(bit, classes, picks):
                    if self.eval(node.child, st[0], st[1]) == want:
                        return want
            finally:
                del self.set_bits[node.var]
                self.nbits -= 1
            return not want
        # vertex quantifier
        for new_classes, new_picks, pid in self._vertex_choices(classes, picks):
            self.vertex_pick[node.var] = pid
            try:
                if self.eval(node.child, new_classes, new_picks) == want:
                    return want
            finally:
                del self.vertex_pick[node.var]
        return not want

    def _set_choices(self, bit: int, classes, picks, keep=None):
        """All ways to put the current classes/picks into a fresh set, lazily:
        per class the in-count runs 0..count, per pick out then in. With
        keep, a split giving vertices to a signature keep rejects is skipped."""
        mark = 1 << bit

        def class_splits(i: int, acc: tuple):
            if i == len(classes):
                yield from pick_splits(0, acc, ())
                return
            base, sig, count = classes[i]
            lo, hi = 0, count
            if keep is not None:
                if not keep(sig):
                    lo = count
                if not keep(sig | mark):
                    hi = 0
            for k in range(lo, hi + 1):
                entry: tuple = ()
                if count - k:
                    entry += ((base, sig, count - k),)
                if k:
                    entry += ((base, sig | mark, k),)
                yield from class_splits(i + 1, acc + entry)

        def pick_splits(j: int, cls: tuple, acc: tuple):
            if j == len(picks):
                yield cls, acc
                return
            base, sig = picks[j]
            yield from pick_splits(j + 1, cls, acc + ((base, sig),))
            yield from pick_splits(j + 1, cls, acc + ((base, sig | mark),))

        yield from class_splits(0, ())

    def _vertex_choices(self, classes, picks):
        """Alias an existing pick or take a fresh vertex from some class."""
        for pid in range(len(picks)):
            yield classes, picks, pid
        for i, (base, sig, count) in enumerate(classes):
            if count == 1:
                new_classes = classes[:i] + classes[i + 1:]
            else:
                new_classes = classes[:i] + ((base, sig, count - 1),) + classes[i + 1:]
            yield new_classes, picks + ((base, sig),), len(picks)

    # -------------------------------------------------------------- interfaces

    def check(self, node: Node) -> bool:
        classes, picks = self.initial_state()
        return self.eval(node, classes, picks)

    def satisfying_states(self, prefix: tuple[str, ...], body: Node):
        """Bind the prefix sets in order (variable i on sig bit i) and yield
        every class-count state whose body evaluates true, in deterministic
        enumeration order. States carry no picks. A class part whose
        signature has no completion among _local_split's allowed signatures
        gets no vertices, which skips only states whose body is false; every
        state left allows each vertex, so only the rest of the body is read."""
        if any(name in self.set_bits for name in prefix):
            raise ValueError("prefix variable already bound")
        allowed, rest = _local_split(prefix, body)
        prefixes = [] if allowed is None else _signature_prefixes(allowed, len(prefix))
        keep = [ends.__contains__ for ends in prefixes] or [None] * len(prefix)

        def descend(i: int, classes):
            if i == len(prefix):
                self.leaves += 1
                self.calls += 1  # candidate states count against the budget
                if self.calls > self.state_budget:
                    raise BudgetExceeded("mso-states", self.state_budget, self.calls)
                if self.eval(body if allowed is None else rest, classes, ()):
                    yield classes
                return
            bit = self.nbits
            self.set_bits[prefix[i]] = bit
            self.nbits += 1
            try:
                for cls, _ in self._set_choices(bit, classes, (), keep[i]):
                    yield from descend(i + 1, cls)
            finally:
                del self.set_bits[prefix[i]]
                self.nbits -= 1

        classes, _ = self.initial_state()
        yield from descend(0, classes)
