"""Per-layer tracing from outside the library.

Tracer.install() replaces each traced function at the name its caller looks
it up by (solver imports min_vertex_cover by name, so solver.min_vertex_cover
is wrapped; mso_eval calls table_eval.prefix_table through the module, so
table_eval.prefix_table is wrapped) and uninstall() puts the originals back.
Every call becomes a span (name, start, end, parent, query); a generator's
span covers the time spent inside each next. Spans are kept in memory and
written out when the run ends. A span's self time is its duration minus the
time its child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """measure(start, end) turns a perf_counter interval into the seconds
    the figures report (speed.SpeedClock.adjusted in the benchmark)."""

    def __init__(self, measure=lambda start, end: end - start):
        self.measure = measure
        self.spans: list[list] = []  # [name, start, end, parent index, query]
        self.counts: dict[str, float] = defaultdict(float)
        self.query: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # ---------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, name: str, items: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def steps(iterator):
            while True:
                index = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                tracer.counts[items] += 1
                yield item

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return steps(original(*args, **kwargs))

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from cardmso import balanced, formula, graph, ilp, partitioning, solver, table_eval
        from cardmso.typed_eval import TypedEvaluator

        add = self.counts

        def ilp_result(result):
            add["ilp.nodes"] += result.nodes
            add["ilp.successes"] += result.status != "infeasible"

        def solve_stats(result):
            if result is not None:
                add["solver.work_items"] += result.stats.ilp_solves
                add["solver.prefix_assignments"] += result.stats.prefix_assignments

        def shape_result(holds):
            add["partitioning.satisfying_shapes"] += bool(holds)

        def table_cells(table):
            add["table_eval.cells"] += table.size

        def shape_count(shapes):
            add["partitioning.shapes"] += len(shapes)

        self.wrap(graph, "parse_graph", "graph.parse_graph")
        self.wrap(formula, "parse_formula", "formula.parse_formula")
        self.wrap(balanced, "parse_formula", "formula.parse_formula")
        for module in (solver, partitioning):
            self.wrap(module, "min_vertex_cover", "graph.min_vertex_cover")
            self.wrap(module, "type_partition", "graph.type_partition")
            self.wrap(module, "nd_partition", "graph.nd_partition")
            self.wrap(module, "mso_check", "mso_eval.mso_check")
        self.wrap(solver, "reduce_graph", "mso_eval.reduce_graph")
        self.wrap_generator(solver, "satisfying_prefix_assignments",
                            "mso_eval.satisfying_prefix_assignments",
                            "mso_eval.assignments_yielded")
        self.wrap(table_eval, "prefix_table", "table_eval.prefix_table", table_cells)
        self.wrap(table_eval, "evaluate_sentence", "table_eval.evaluate_sentence")
        self.wrap_generator(TypedEvaluator, "satisfying_states",
                            "typed_eval.satisfying_states", "typed_eval.states_yielded")
        self.wrap(ilp, "solve_min", "ilp.solve_min", ilp_result)
        self.wrap(ilp, "solve_feasibility", "ilp.solve_feasibility", ilp_result)
        self.wrap(solver, "check", "solver.check", solve_stats)
        self.wrap(solver, "extract_witness", "solver.extract_witness")
        # cbalanced drives the check pipeline itself; these spans put that
        # work (unit bookkeeping, pair collection, instance building) under
        # the solver layer rather than the balanced one
        self.wrap(solver._Pipeline, "__init__", "solver.pipeline")
        self.wrap(solver._Pipeline, "run_minimize", "solver.run_minimize")
        self.wrap(balanced.BetaObjective, "augment", "balanced.objective")
        self.wrap(partitioning, "mso_partition", "partitioning.mso_partition")
        self.wrap(partitioning, "enumerate_shapes", "partitioning.enumerate_shapes", shape_count)
        self.wrap(partitioning, "shape_satisfies", "partitioning.shape_satisfies", shape_result)
        self.wrap(balanced, "cbalanced", "balanced.cbalanced", solve_stats)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- summary

    def _durations(self) -> list[float]:
        return [self.measure(start, end) for _, start, end, _, _ in self.spans]

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        durations = self._durations()
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += duration
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _, _), duration, covered in zip(self.spans, durations, child):
            out[name] += duration - covered
        return out

    def totals(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _, _), duration in zip(self.spans, self._durations()):
            out[name] += duration
        return out

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per round (sums over the run divided by the
        number of rounds; ratios are taken over the whole run)."""
        total = self.totals()
        own = self.self_times()
        c = self.counts
        layer_self: dict[str, float] = defaultdict(float)
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value

        def ratio(hits: float, tries: float) -> float:
            return hits / tries if tries else 0.0

        ilp_calls = c["ilp.solve_min.calls"] + c["ilp.solve_feasibility.calls"]
        per_round = {
            "table_eval.prefix_table_s": total["table_eval.prefix_table"],
            "table_eval.prefix_table_calls": c["table_eval.prefix_table.calls"],
            "table_eval.cells": c["table_eval.cells"],
            "table_eval.evaluate_sentence_s": total["table_eval.evaluate_sentence"],
            "typed_eval.satisfying_states_s": total["typed_eval.satisfying_states"],
            "typed_eval.states_yielded": c["typed_eval.states_yielded"],
            "ilp.solve_min_s": total["ilp.solve_min"],
            "ilp.solve_min_calls": c["ilp.solve_min.calls"],
            "ilp.solve_feasibility_s": total["ilp.solve_feasibility"],
            "ilp.solve_feasibility_calls": c["ilp.solve_feasibility.calls"],
            "ilp.nodes": c["ilp.nodes"],
            "solver.check_s": total["solver.check"],
            "solver.self_s": layer_self["solver"],
            "solver.extract_witness_s": total["solver.extract_witness"],
            "solver.work_items": c["solver.work_items"],
            "solver.prefix_assignments": c["solver.prefix_assignments"],
            "partitioning.mso_partition_s": total["partitioning.mso_partition"],
            "partitioning.self_s": layer_self["partitioning"],
            "partitioning.enumerate_shapes_s": total["partitioning.enumerate_shapes"],
            "partitioning.shapes": c["partitioning.shapes"],
            "partitioning.shape_satisfies_s": total["partitioning.shape_satisfies"],
            "partitioning.shape_checks": c["partitioning.shape_satisfies.calls"],
            "balanced.cbalanced_s": total["balanced.cbalanced"],
            "balanced.self_s": layer_self["balanced"],
            "graph.min_vertex_cover_s": total["graph.min_vertex_cover"],
            "graph.type_partition_s": total["graph.type_partition"],
            "graph.nd_partition_s": total["graph.nd_partition"],
            "mso_eval.reduce_graph_s": total["mso_eval.reduce_graph"],
            "mso_eval.satisfying_prefix_assignments_s": total["mso_eval.satisfying_prefix_assignments"],
            "mso_eval.assignments_yielded": c["mso_eval.assignments_yielded"],
            "mso_eval.mso_check_s": total["mso_eval.mso_check"],
            "graph.parse_graph_s": total["graph.parse_graph"],
            "formula.parse_formula_s": total["formula.parse_formula"],
        }
        out = {name: value / rounds for name, value in per_round.items()}
        out["ilp.feasible_ratio"] = ratio(c["ilp.successes"], ilp_calls)
        out["partitioning.satisfying_shape_ratio"] = ratio(
            c["partitioning.satisfying_shapes"], c["partitioning.shape_satisfies.calls"]
        )
        out["trace.spans"] = len(self.spans) / rounds
        return out

    def write(self, path) -> None:
        """One JSON object per span, in opening order."""
        with open(path, "w") as out:
            for name, start, end, parent, query in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "query": query,
                }) + "\n")
