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
without the cover convention) have this shape; it is validated on entry.
"""

from __future__ import annotations

from collections import Counter

from .errors import BudgetExceeded
from .formula import (
    Adjacent, And, ConstraintRef, FalseLit, Iff, Implies, Member, Node, Not,
    Or, Quant, SetEq, TrueLit, VertexEq, free_vars,
)
from .graph import Graph, nd_partition

DEFAULT_STATE_BUDGET = 200_000_000

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
    if isinstance(node, (And, Or, Implies, Iff)):
        a = _local_mask(node.left, var, bit_of, full)
        b = _local_mask(node.right, var, bit_of, full)
        if a is None or b is None:
            return None
        if isinstance(node, And):
            return a & b
        if isinstance(node, Or):
            return a | b
        if isinstance(node, Implies):
            return (full ^ a) | b
        return full ^ a ^ b
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
        fixed_sets: dict[str, frozenset[int]] | None = None,
        state_budget: int = DEFAULT_STATE_BUDGET,
    ):
        self.g = g
        self.state_budget = state_budget
        self.calls = 0
        self.leaves = 0  # candidate states satisfying_states evaluated
        fixed_sets = fixed_sets or {}
        self.fixed_names = tuple(sorted(fixed_sets))

        if classes is None:
            classes = list(nd_partition(g).types)
        # refine by the fixed sets so class membership in them is uniform
        refined: list[tuple[tuple[int, ...], tuple[bool, ...]]] = []
        for members in classes:
            buckets: dict[tuple[bool, ...], list[int]] = {}
            for v in members:
                key = tuple(v in fixed_sets[name] for name in self.fixed_names)
                buckets.setdefault(key, []).append(v)
            for key in sorted(buckets):
                refined.append((tuple(sorted(buckets[key])), key))
        refined.sort(key=lambda item: item[0][0])

        self.base_members = tuple(m for m, _ in refined)
        self.fixed_bits = tuple(
            {name: bits[i] for i, name in enumerate(self.fixed_names)}
            for _, bits in refined
        )
        self._validate_uniform()

        nb = len(self.base_members)
        self.intra = [False] * nb
        for b, members in enumerate(self.base_members):
            if len(members) >= 2:
                self.intra[b] = self.g.has_edge(members[0], members[1])
        self.cross = [[False] * nb for _ in range(nb)]
        for i in range(nb):
            for j in range(i + 1, nb):
                val = self.g.has_edge(self.base_members[i][0], self.base_members[j][0])
                self.cross[i][j] = self.cross[j][i] = val

        self.set_bits: dict[str, int] = {}
        self.nbits = 0
        self.vertex_pick: dict[str, int] = {}
        self._freemap: dict = {}
        self._memo: dict[int, dict] = {}

    def _validate_uniform(self) -> None:
        """Adjacency is uniform exactly when every vertex is adjacent to none
        or all of each class (itself excepted): were u adjacent to all of C
        and v in u's class to none of it, a member of C would see part of
        that class. Linear in vertices plus edges."""
        class_of = {v: b for b, members in enumerate(self.base_members) for v in members}
        for v, b in class_of.items():
            counts = Counter(class_of[w] for w in self.g.adj[v] if w in class_of)
            for c, count in counts.items():
                if count != len(self.base_members[c]) - (c == b):
                    raise ValueError(
                        "class without uniform internal adjacency" if c == b
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
            base, sig = picks[self.vertex_pick[node.vertex]]
            if node.set in self.set_bits:
                return bool((sig >> self.set_bits[node.set]) & 1)
            return self.fixed_bits[base][node.set]
        if isinstance(node, Adjacent):
            p, q = self.vertex_pick[node.a], self.vertex_pick[node.b]
            if p == q:
                return False
            (b1, _), (b2, _) = picks[p], picks[q]
            return self.intra[b1] if b1 == b2 else self.cross[b1][b2]
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
            return got
        raise TypeError(f"unknown node {node!r}")

    def _membership_bit(self, base: int, sig: int, name: str) -> bool:
        if name in self.set_bits:
            return bool((sig >> self.set_bits[name]) & 1)
        return self.fixed_bits[base][name]

    def _set_eq(self, node: SetEq, classes, picks) -> bool:
        if node.a == node.b:
            return True
        for base, sig, _count in classes:
            if self._membership_bit(base, sig, node.a) != self._membership_bit(base, sig, node.b):
                return False
        for base, sig in picks:
            if self._membership_bit(base, sig, node.a) != self._membership_bit(base, sig, node.b):
                return False
        return True

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
        gets no vertices, which skips only states whose body is false."""
        if any(name in self.set_bits for name in prefix):
            raise ValueError("prefix variable already bound")
        allowed = _local_split(prefix, body)[0]
        prefixes = [] if allowed is None else _signature_prefixes(allowed, len(prefix))
        keep = [ends.__contains__ for ends in prefixes] or [None] * len(prefix)

        def descend(i: int, classes):
            if i == len(prefix):
                self.leaves += 1
                self.calls += 1  # candidate states count against the budget
                if self.calls > self.state_budget:
                    raise BudgetExceeded("mso-states", self.state_budget, self.calls)
                if self.eval(body, classes, ()):
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
