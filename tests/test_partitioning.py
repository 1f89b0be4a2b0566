import gc
import itertools
import random

import numpy as np
import pytest

from cardmso import corpus, oracle, partitioning, table_eval
from cardmso.errors import BudgetExceeded
from cardmso.formula import FormulaStats, analyze, parse_formula
from cardmso.graph import Graph, TypePartition, min_vertex_cover, nd_partition, type_partition
from cardmso.mso_eval import mso_check
from cardmso.partitioning import (
    PartitionInstance, enumerate_shapes, mso_partition, shape_satisfies,
)
from conftest import (
    cycle_graph, path_graph, planted_cover, random_graph, star_graph, twin_class_graph,
)

INDEP = parse_formula(corpus.independence_body())
CLIQUE = parse_formula(corpus.clique_body())
# more sentences without set quantifiers: a dominating vertex, an induced P3
DOMINATING = parse_formula("exists u. forall v. (u = v | adj(u, v))")
INDUCED_P3 = parse_formula(
    "exists u. exists v. exists w. (adj(u, v) & adj(v, w) & !(u = w) & !adj(u, w))"
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
        g = cycle_graph(4)
        verdict = mso_partition(g, PartitionInstance(INDEP, 2))
        tp = type_partition(g, min_vertex_cover(g))
        fstats = analyze(INDEP)
        shapes = enumerate_shapes(tp, fstats)
        satisfying = sum(shape_satisfies(g, tp, s, INDEP, fstats) for s in map(tuple, shapes.tolist()))
        assert verdict.holds
        assert verdict.stats.shapes == len(shapes) > satisfying == verdict.stats.satisfying_shapes > 0

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
        # vertices 0..2 cover the graph; its tiling program has 708
        # variables, and branch and bound alone took 591,141 nodes on it
        g = planted_cover(random.Random(7), 3, 16)
        v = mso_partition(g, PartitionInstance(INDEP, 3))
        assert not v.holds
        assert v.stats.ilp_nodes <= 10 and v.stats.ilp_lp_refutations == 1
        # independent check: a proper 3-colouring of the cover that leaves
        # every other vertex a colour its cover neighbours do not use
        cover = range(3)
        colourable = any(
            all(colour[u] != colour[w] for u in cover for w in cover if g.has_edge(u, w))
            and all(len({colour[u] for u in cover if g.has_edge(u, x)}) < 3 for x in range(3, g.n))
            for colour in itertools.product(range(3), repeat=3)
        )
        assert not colourable

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
