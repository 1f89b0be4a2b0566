"""Reduced-graph construction and MSO model checking.

mso_check picks between two engines with identical semantics:

  table  vectorised truth tables (table_eval): set quantifiers range over
         all 2^n subsets as array axes
  typed  count-state recursion (typed_eval): same-type vertices are
         interchangeable, so sets are enumerated as per-class counts

It sends sentences without set quantifiers to typed (there is no subset
axis to vectorise, and typed picks one vertex per class where table loops
over every vertex), the others to table when the largest intermediate table
fits the cell budget and to typed otherwise. The engine tests call both
directly and compare them against the oracle's plain recursion,
oracle._LoopEval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import table_eval
from .formula import Formula, FormulaStats, Node, Quant, free_vars, sentence, walk
from .graph import Graph, TypePartition
from .typed_eval import TypedEvaluator


@dataclass(frozen=True)
class PrefixAssignment:
    """Values for the prefix variables: one vertex set per variable."""

    sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ReducedGraph:
    """Result of shrinking each type to the reduce threshold: the induced
    subgraph and its types, one reduced type per original type, in the
    original order."""

    graph: Graph
    types: TypePartition


def reduce_graph(g: Graph, tp: TypePartition, stats: FormulaStats) -> ReducedGraph:
    """Keep the lexicographically-first min(|T|, threshold) vertices of every
    type and take the induced subgraph."""
    kept = tuple(members[: stats.reduce_threshold] for members in tp.types)
    reduced, remap = g.induced(v for members in kept for v in members)
    new_types = tuple(tuple(remap[v] for v in members) for members in kept)
    return ReducedGraph(reduced, TypePartition(new_types, tp.cover_types))


def _as_sentence(f: Formula | Node) -> Node:
    if isinstance(f, Formula):
        if f.constraints:
            raise ValueError("mso_check needs a constraint-free sentence; pre-evaluate first")
        return sentence(f)
    return f


def mso_check(g: Graph, f: Formula | Node) -> bool:
    """Exact truth of g |= f for a constraint-free sentence."""
    node = _as_sentence(f)
    has_sets = any(isinstance(sub, Quant) and sub.sort == "set" for sub in walk(node))
    if has_sets and table_eval.estimate_worst_cells(g, node) <= table_eval.DEFAULT_CELL_BUDGET:
        return table_eval.evaluate_sentence(g, node)
    return TypedEvaluator(g).check(node)


def satisfying_prefix_assignments(
    g: Graph,
    body: Node,
    prefix: tuple[str, ...],
) -> Iterator[PrefixAssignment]:
    """Every assignment of the prefix variables making the body true, streamed
    in binary-counter order (vertex 0 is the least significant bit and the
    last prefix variable is the fastest counter) from one truth table; a
    table past the cell budget is refused with BudgetExceeded("mso-cells").

    The true cells are decoded in fixed slices, one unravel per slice, and
    each distinct vertex mask of a slice becomes one frozenset shared by the
    slice's assignments, so memory stays at the index array plus one slice."""
    m = len(prefix)
    if m == 0:
        raise ValueError("no prefix variables to assign")
    free_sets, free_vertices = free_vars(body, {})
    stray = (free_sets - set(prefix)) | free_vertices
    if stray:
        raise ValueError(f"body has free variables beyond the prefix: {sorted(stray)}")
    table = table_eval.prefix_table(g, body, prefix)
    cells = np.flatnonzero(table.reshape(-1))
    shape = (1 << g.n,) * m
    for start in range(0, len(cells), table_eval.SLICE_CELLS):
        memo: dict[int, frozenset[int]] = {}
        columns = []
        for axis in np.unravel_index(cells[start : start + table_eval.SLICE_CELLS], shape):
            masks = axis.tolist()
            for mask in set(masks).difference(memo):
                memo[mask] = frozenset(v for v in range(g.n) if (mask >> v) & 1)
            columns.append([memo[mask] for mask in masks])
        for sets in zip(*columns):
            yield PrefixAssignment(sets)
