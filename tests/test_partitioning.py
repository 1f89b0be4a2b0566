import gc
import itertools
import random

import numpy as np
import pytest

from cardmso import corpus, formula, ilp, oracle, partitioning, solver, table_eval
from cardmso.errors import BudgetExceeded
from cardmso.formula import (
    And, Iff, Implies, Member, Not, Or, FormulaStats, Quant, analyze, parse_formula,
)
from cardmso.graph import (
    DEFAULT_K_MAX, Graph, TypePartition, min_vertex_cover, nd_partition, type_partition,
)
from cardmso.mso_eval import mso_check
from cardmso.partitioning import (
    PartitionInstance, enumerate_shapes, mso_partition, shape_satisfies,
)
from cardmso.solver import SolveStats
from conftest import (
    complete_graph, cycle_graph, path_graph, planted_cover, random_graph, star_graph,
    twin_class_graph,
)

INDEP = parse_formula(corpus.independence_body())
CLIQUE = parse_formula(corpus.clique_body())
# more sentences without set quantifiers: a dominating vertex, an induced P3
DOMINATING = parse_formula("exists u. forall v. (u = v | adj(u, v))")
INDUCED_P3 = parse_formula(
    "exists u. exists v. exists w. (adj(u, v) & adj(v, w) & !(u = w) & !adj(u, w))"
)
# outside the rows fragment: three universal vertex variables
TRIANGLE_FREE = parse_formula("forall u. forall v. forall w. !(adj(u, v) & adj(v, w) & adj(u, w))")
# in it: forall-exists
NO_ISOLATED = parse_formula("forall u. exists v. adj(u, v)")


def shape_verdict(g: Graph, inst: PartitionInstance, mode: str, allow_empty: bool):
    """mso_partition forced onto the shape path, its parts validated."""
    tp, cover_size = solver._types(g, mode, DEFAULT_K_MAX)
    stats = SolveStats(cover_size=cover_size, type_count=tp.count)
    verdict = partitioning._shape_partition(
        g, inst, tp, stats, allow_empty, ilp.DEFAULT_NODE_BUDGET, None,
    )
    if verdict.holds:
        partitioning._validate_parts(g, inst, verdict.parts, allow_empty)
    return verdict


def cover_colourable(g: Graph, k: int, r: int) -> bool:
    """Does g, whose vertices 0..k-1 cover it, split into r independent
    sets? Some proper r-colouring of the cover leaves every other vertex a
    colour its cover neighbours do not use."""
    cover = range(k)
    return any(
        all(colour[u] != colour[w] for u in cover for w in cover if g.has_edge(u, w))
        and all(len({colour[u] for u in cover if g.has_edge(u, x)}) < r for x in range(k, g.n))
        for colour in itertools.product(range(r), repeat=k)
    )


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for r in range(1, g.n + 1):
        if oracle.brute_partition(g, INDEP, r):
            return r
    raise AssertionError


class TestShapes:
    def test_two_types_nine_shapes(self):
        # threshold 2: counts 0, 1 and "2 or more" on both types
        tp = TypePartition(((0, 1, 2), tuple(range(3, 13))), frozenset())
        shapes = enumerate_shapes(tp, FormulaStats(0, 1, 1))
        assert shapes.tolist() == [
            [a, b] for a in range(3) for b in range(3)
        ]

    def test_singleton_type(self):
        tp = TypePartition(((0,),), frozenset())
        shapes = enumerate_shapes(tp, FormulaStats(0, 1, 1))
        assert shapes.tolist() == [[0], [1]]

    def test_empty_graph_single_shape(self):
        tp = TypePartition((), frozenset())
        assert enumerate_shapes(tp, FormulaStats(0, 1, 1)).shape == (1, 0)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(partitioning, "DEFAULT_SHAPE_BUDGET", 1000)
        tp = TypePartition(tuple((i,) for i in range(40)), frozenset())
        with pytest.raises(BudgetExceeded) as err:
            enumerate_shapes(tp, FormulaStats(0, 1, 1))
        # 40 singleton types, each count 0 or 1
        assert (err.value.kind, err.value.limit, err.value.used) == ("shapes", 1000, 2 ** 40)

    def test_counts_stop_at_the_type_size(self):
        tp = TypePartition(((0,), (1, 2, 3)), frozenset())
        shapes = enumerate_shapes(tp, FormulaStats(0, 2, 1))  # threshold 4
        assert shapes.tolist() == [
            [a, b] for a in range(2) for b in range(4)
        ]
        assert shapes.dtype == np.int64

    @pytest.mark.parametrize("phi", [INDEP, CLIQUE, parse_formula(
        "exists u. exists v. (!(u = v) & !adj(u, v))"
    )], ids=["independence", "clique", "non-edge"])
    def test_threshold_count_stands_for_every_larger_size(self, rng, phi):
        # a count at the threshold is one shape for all sizes from the
        # threshold to |T|: sets taking more vertices of that type (and
        # exactly the shape's count elsewhere) have the same truth
        stats = analyze(phi)
        small = stats.small_threshold
        checked = 0
        for i in range(40):
            if i % 2:
                g = random_graph(rng, rng.randint(1, 7))
            else:
                g = twin_class_graph(rng)
            tp = type_partition(g, min_vertex_cover(g, g.n))
            for s in map(tuple, enumerate_shapes(tp, stats).tolist()):
                want = shape_satisfies(g, tp, s, phi, stats)
                for t, members in enumerate(tp.types):
                    if s[t] != small:
                        continue
                    for take in range(small + 1, len(members) + 1):
                        picked = [
                            v
                            for u, (ms, c) in enumerate(zip(tp.types, s))
                            for v in ms[: take if u == t else c]
                        ]
                        sub, _ = g.induced(picked)
                        assert mso_check(sub, phi) == want
                        checked += 1
        assert checked > 0


class TestShapeSatisfies:
    def _tp(self, g):
        return type_partition(g, min_vertex_cover(g, g.n))

    def test_adjacent_cover_pair_fails_independence(self):
        g = path_graph(2)
        tp = self._tp(g)
        stats = analyze(INDEP)
        s = (1, 1)
        assert shape_satisfies(g, tp, s, INDEP, stats) is False

    def test_empty_shape_vacuous(self):
        g = path_graph(2)
        tp = self._tp(g)
        s = (0, 0)
        assert shape_satisfies(g, tp, s, INDEP, analyze(INDEP)) is True

    def test_c5_pairs(self):
        g = cycle_graph(5)
        tp = self._tp(g)
        stats = analyze(INDEP)
        type_of = tp.type_of(5)
        for u, v in itertools.combinations(range(5), 2):
            per = [0] * tp.count
            per[type_of[u]] += 1
            per[type_of[v]] += 1
            got = shape_satisfies(g, tp, tuple(per), INDEP, stats)
            # C5 types are singletons, so the shape pins the pair exactly
            assert got == (not g.has_edge(u, v))

    def test_representative_independence(self, rng):
        # two disjoint materialisations of one shape agree on satisfaction
        stats = analyze(INDEP)
        small = stats.small_threshold
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6))
            tp = type_partition(g, min_vertex_cover(g, g.n))
            s = tuple(
                rng.randint(0, min(len(members), small)) for members in tp.types
            )
            base = shape_satisfies(g, tp, s, INDEP, stats)
            # alternative representative: take the last vertices instead
            picked = []
            for members, want in zip(tp.types, s):
                picked.extend(members[-want:] if want else [])
            sub, _ = g.induced(picked)
            assert mso_check(sub, INDEP) == base

    @pytest.mark.parametrize("mode", ["vc", "nd"])
    def test_shared_evaluator_matches_the_table_engine(self, rng, mode):
        # every shape, on the count state of the one evaluator per query,
        # against the table engine on the shape's representative
        checked = 0
        for i in range(30):
            g = random_graph(rng, rng.randint(1, 8)) if i % 2 else twin_class_graph(rng)
            tp = nd_partition(g) if mode == "nd" else self._tp(g)
            # the library lists types by first member; a partition listed
            # the other way round must be read just as well
            last = tp.count - 1
            flipped = TypePartition(tp.types[::-1], frozenset(last - t for t in tp.cover_types))
            for types in (tp, flipped):
                for phi in (INDEP, CLIQUE, DOMINATING, INDUCED_P3):
                    stats = analyze(phi)
                    check = partitioning._ShapeCheck(g, types, phi, stats)
                    assert check.typed
                    for s in map(tuple, enumerate_shapes(types, stats).tolist()):
                        rep = partitioning.shape_representative(g, types, s, stats)
                        want = table_eval.evaluate_sentence(g.induced(rep)[0], phi.body)
                        assert check.decide(s) == want, (s, types, g.edges)
                        checked += 1
        assert checked > 1000

    def test_cache_entry_dies_with_its_graph(self, monkeypatch):
        # the cache compares graphs by value: names no other test uses keep
        # an equal graph from elsewhere from holding the entry
        c5 = cycle_graph(5)
        g = Graph.build(tuple(f"probe{v}" for v in range(5)), c5.edges)
        tp = self._tp(g)
        stats = analyze(INDEP)
        shape = tuple(enumerate_shapes(tp, stats)[-1].tolist())
        assert not shape_satisfies(g, tp, shape, INDEP, stats)
        assert g in partitioning._SHAPE_CACHE
        # while g lives, asking again reuses the entry
        monkeypatch.setattr(partitioning, "mso_check", None)
        assert not shape_satisfies(g, tp, shape, INDEP, stats)
        entries = len(partitioning._SHAPE_CACHE)
        del g
        gc.collect()
        assert len(partitioning._SHAPE_CACHE) == entries - 1


class TestMsoPartition:
    def test_c4_two_colours(self):
        assert mso_partition(cycle_graph(4), PartitionInstance(INDEP, 2)).holds

    def test_stats_report_the_shapes(self):
        # three universal vertex variables keep a sentence off the rows
        # path: K4's parts must be triangle-free, which its shapes with
        # three vertices are not
        g = complete_graph(4)
        verdict = mso_partition(g, PartitionInstance(TRIANGLE_FREE, 2))
        tp = type_partition(g, min_vertex_cover(g))
        fstats = analyze(TRIANGLE_FREE)
        shapes = enumerate_shapes(tp, fstats)
        satisfying = sum(
            shape_satisfies(g, tp, s, TRIANGLE_FREE, fstats) for s in map(tuple, shapes.tolist())
        )
        assert verdict.holds
        assert verdict.stats.shapes == len(shapes) > satisfying == verdict.stats.satisfying_shapes > 0
        # independence takes the rows path, which lists no shape
        rows = mso_partition(cycle_graph(4), PartitionInstance(INDEP, 2))
        assert rows.holds and rows.stats.ilp_solves == 1
        assert rows.stats.shapes == rows.stats.satisfying_shapes == 0

    def test_stats_report_no_reduction_or_prefix_assignments(self):
        # partition checks one representative per shape: it neither reduces
        # the graph nor enumerates prefix assignments
        for g in (cycle_graph(4), star_graph(9)):
            verdict = mso_partition(g, PartitionInstance(INDEP, 2))
            assert verdict.stats.reduced_vertices == verdict.stats.prefix_assignments == 0

    def test_c5_needs_three(self):
        assert not mso_partition(cycle_graph(5), PartitionInstance(INDEP, 2)).holds
        assert mso_partition(cycle_graph(5), PartitionInstance(INDEP, 3)).holds

    def test_trivial_one_part(self):
        f = parse_formula("true")
        for g in (cycle_graph(4), star_graph(3), Graph.from_edges(0, [])):
            assert mso_partition(g, PartitionInstance(f, 1)).holds

    def test_witness_parts_are_checked(self):
        v = mso_partition(star_graph(4), PartitionInstance(INDEP, 2))
        assert v.holds
        assert len(v.parts) == 2
        assert set().union(*v.parts) == set(range(5))

    def test_large_part_is_validated_without_a_membership_table(self):
        # the leaves form one part: validating it must neither build a
        # 2^leaves-row membership table nor visit every pair of leaves
        for leaves in (40, 2000):
            g = star_graph(leaves)
            v = mso_partition(g, PartitionInstance(INDEP, 2))
            assert v.holds
            assert sorted(len(p) for p in v.parts) == [1, leaves]
            assert v.stats.ilp_nodes >= 1

    def test_three_colouring_no_instance_closes_at_the_root(self):
        # vertices 0..2 cover the graph. The rows path closes it in a few
        # nodes. Its tiling program on the shape path has 708 variables:
        # branch and bound alone took 591,141 nodes on it, and the root LP
        # refutes it
        g = planted_cover(random.Random(7), 3, 16)
        inst = PartitionInstance(INDEP, 3)
        v = mso_partition(g, inst)
        assert not v.holds
        assert v.stats.shapes == 0 and v.stats.ilp_nodes <= 20
        shapes = shape_verdict(g, inst, "vertex-cover", True)
        assert not shapes.holds and shapes.stats.satisfying_shapes == 708
        assert shapes.stats.ilp_nodes <= 10 and shapes.stats.ilp_lp_refutations == 1
        # independent check: a proper 3-colouring of the cover that leaves
        # every other vertex a colour its cover neighbours do not use
        assert not cover_colourable(g, 3, 3)

    def test_chromatic_consistency(self, rng):
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 6))
            want = brute_chromatic(g)
            got = next(
                r for r in range(1, g.n + 1)
                if mso_partition(g, PartitionInstance(INDEP, r), allow_empty=False).holds
            )
            assert got == want

    def test_oracle_agreement_with_cliques(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 6))
            for r in range(1, g.n + 1):
                for phi in (INDEP, CLIQUE):
                    assert (
                        mso_partition(g, PartitionInstance(phi, r)).holds
                        == oracle.brute_partition(g, phi, r)
                    )

    @pytest.mark.parametrize("mode", ["vertex-cover", "neighborhood-diversity"])
    def test_oracle_agreement_on_twin_classes(self, rng, mode):
        # parts that take a threshold count of a large twin class must be
        # able to absorb the rest of it
        for _ in range(40):
            g = twin_class_graph(rng)
            for r in range(1, 4):
                for phi in (INDEP, CLIQUE):
                    got = mso_partition(g, PartitionInstance(phi, r), mode=mode)
                    assert got.holds == oracle.brute_partition(g, phi, r), (r, g.edges)

    @pytest.mark.parametrize("n", [100, 400])
    def test_answers_survive_relabelling(self, n):
        # no brute force reaches these sizes; renaming the vertices moves
        # the cover away from 0..k-1 and must not change an answer
        rng = random.Random(n)
        for k in (1, 2):
            g = planted_cover(rng, k, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            for phi in (INDEP, CLIQUE):
                for r in (2, 3):
                    want = mso_partition(g, PartitionInstance(phi, r)).holds
                    assert mso_partition(h, PartitionInstance(phi, r)).holds == want, (k, r)
                    # a k-vertex cover plus one colour for the rest colours it
                    if phi is INDEP and r == k + 1:
                        assert want

    @pytest.mark.parametrize("n", [40, 400])
    def test_vertex_cover_and_nd_modes_agree(self, n):
        rng = random.Random(n + 1)
        for k in (1, 2):
            g = planted_cover(rng, k, n)
            for phi in (INDEP, CLIQUE):
                for r in (2, 3):
                    inst = PartitionInstance(phi, r)
                    assert (
                        mso_partition(g, inst).holds
                        == mso_partition(g, inst, mode="nd").holds
                    ), (k, r)

    def test_rejects_prefixed_formula(self):
        with pytest.raises(ValueError):
            PartitionInstance(parse_formula(corpus.bipartite_equal()), 2)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            PartitionInstance(INDEP, 0)


# ------------------------------------------------- the relativised sentence

def rows_shape_mismatches() -> list:
    """A seeded family at n 9-14, planted covers and random graphs, in both
    modes, with empty parts allowed and not: the cases where mso_partition,
    on the rows path, and the shape path answer differently."""
    rng = random.Random(2027)
    out = []
    for i in range(16):
        n = rng.randint(9, 14)
        if i % 8 < 5:
            g, phis = planted_cover(rng, rng.randint(1, 3), n), (INDEP, CLIQUE, NO_ISOLATED)
        else:
            # forall-exists keeps off random graphs: its shape path takes
            # up to a minute there
            g, phis = random_graph(rng, n, rng.uniform(0.2, 0.8)), (INDEP, CLIQUE)
        for mode, phi, r, allow_empty in itertools.product(
            ("vertex-cover", "neighborhood-diversity"), phis, (2, 3), (True, False),
        ):
            inst = PartitionInstance(phi, r)
            rows = mso_partition(g, inst, mode=mode, allow_empty=allow_empty)
            assert rows.stats.shapes == 0 and rows.stats.ilp_solves == 1
            if rows.holds != shape_verdict(g, inst, mode, allow_empty).holds:
                out.append((i, mode, phi, r, allow_empty))
    return out


def colouring_mismatches() -> list:
    """Independence with r in {2, 3} on planted covers with k = 3 at n 30 and
    400: the cases where mso_partition and cover_colourable differ. Every
    "yes" must be r disjoint independent sets covering the vertices."""
    out = []
    for seed, n, r in itertools.product((1, 2, 3), (30, 400), (2, 3)):
        g = planted_cover(random.Random(seed), 3, n)
        verdict = mso_partition(g, PartitionInstance(INDEP, r))
        assert verdict.stats.shapes == 0
        if verdict.holds:
            assert len(verdict.parts) == r and sum(map(len, verdict.parts)) == n
            assert set().union(*verdict.parts) == set(range(n))
            assert not any(g.has_edge(u, v) for p in verdict.parts for u in p for v in p if u < v)
        if verdict.holds != cover_colourable(g, 3, r):
            out.append((seed, n, r))
    return out


def relativise_without_forall_guard(node, set_name):
    """A mutant of formula.relativise: forall x. psi keeps ranging over
    every vertex."""
    if isinstance(node, Quant):
        child = relativise_without_forall_guard(node.child, set_name)
        if node.quantifier == "exists":
            child = And(Member(node.var, set_name), child)
        return Quant(node.quantifier, node.var, node.sort, child)
    if isinstance(node, Not):
        return Not(relativise_without_forall_guard(node.child, set_name))
    if isinstance(node, (And, Or, Implies, Iff)):
        return type(node)(
            relativise_without_forall_guard(node.left, set_name),
            relativise_without_forall_guard(node.right, set_name),
        )
    return node


class TestRowsPath:
    def test_relativise_guards_each_vertex_quantifier(self):
        phi = parse_formula("forall u. exists v. (adj(u, v) | true)").body
        assert formula.relativise(phi, "P") == Quant("forall", "u", "vertex", Implies(
            Member("u", "P"),
            Quant("exists", "v", "vertex", And(Member("v", "P"), phi.child.child)),
        ))
        with pytest.raises(ValueError):
            formula.relativise(parse_formula("forall X. true").body, "P")

    def test_rows_and_shape_paths_agree(self):
        assert rows_shape_mismatches() == []

    def test_independence_past_brute_force_matches_a_cover_colouring(self):
        assert colouring_mismatches() == []

    def test_a_missing_forall_guard_is_caught(self, monkeypatch):
        monkeypatch.setattr(partitioning, "relativise", relativise_without_forall_guard)
        assert rows_shape_mismatches() and colouring_mismatches()

    def test_outside_the_fragment_or_past_the_cell_budget_shapes_decide(self, monkeypatch):
        g = cycle_graph(5)
        for phi in (TRIANGLE_FREE, DOMINATING):
            assert mso_partition(g, PartitionInstance(phi, 2)).stats.shapes > 0
        # C5's five types take 2 * (5 << 2)^2 cells at r = 2
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 2 * (5 << 2) ** 2 - 1)
        verdict = mso_partition(g, PartitionInstance(INDEP, 2))
        assert not verdict.holds and verdict.stats.shapes > 0
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 2 * (5 << 2) ** 2)
        verdict = mso_partition(g, PartitionInstance(INDEP, 2))
        assert not verdict.holds and verdict.stats.shapes == 0
