import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso import corpus, oracle, table_eval
from cardmso.errors import BudgetExceeded
from cardmso.formula import (
    Adjacent, And, FalseLit, Iff, Implies, Member, Not, Or, Quant,
    SetEq, TrueLit, VertexEq, analyze, parse_formula, pre_evaluate, sentence,
)
from cardmso.graph import Graph, min_vertex_cover, nd_partition, type_partition
from cardmso.mso_eval import (
    mso_check, reduce_graph, satisfying_prefix_assignments,
)
from cardmso.typed_eval import TypedEvaluator
from conftest import cycle_graph, path_graph, random_graph, star_graph

# mso_check's two engines, called directly on a sentence node
ENGINES = {
    "table": table_eval.evaluate_sentence,
    "typed": lambda g, node: TypedEvaluator(g).check(node),
}


# ------------------------------------------------------------ random formulas

def formula_nodes(max_depth: int, free_sets: tuple[str, ...] = ()):
    """Hypothesis strategy for MSO node trees whose only free variables are
    the given set variables (closed trees by default)."""

    def build(depth, sets, vertices, counter):
        atom_opts = []
        if sets and vertices:
            atom_opts.append(st.builds(Member, st.sampled_from(vertices), st.sampled_from(sets)))
        if vertices:
            atom_opts.append(st.builds(Adjacent, st.sampled_from(vertices), st.sampled_from(vertices)))
            atom_opts.append(st.builds(VertexEq, st.sampled_from(vertices), st.sampled_from(vertices)))
        if sets:
            atom_opts.append(st.builds(SetEq, st.sampled_from(sets), st.sampled_from(sets)))
        atom_opts.extend([st.just(TrueLit()), st.just(FalseLit())])
        atom = st.one_of(atom_opts)
        if depth == 0:
            return atom

        def quantified(sort_flag):
            sort = "set" if sort_flag else "vertex"
            name = (f"S{counter}" if sort_flag else f"x{counter}")
            inner = build(
                depth - 1,
                sets + [name] if sort_flag else sets,
                vertices if sort_flag else vertices + [name],
                counter + 1,
            )
            return st.builds(
                lambda q, child: Quant(q, name, sort, child),
                st.sampled_from(["exists", "forall"]),
                inner,
            )

        sub = build(depth - 1, sets, vertices, counter)
        sub2 = build(depth - 1, sets, vertices, counter)
        return st.one_of(
            atom,
            st.builds(Not, sub),
            st.builds(And, sub, sub2),
            st.builds(Or, sub, sub2),
            st.builds(Implies, sub, sub2),
            st.builds(Iff, sub, sub2),
            st.booleans().flatmap(quantified),
        )

    return build(max_depth, list(free_sets), [], 0)


small_graphs = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .filter(lambda e: e[0] != e[1]),
        max_size=10,
    ).map(lambda edges: Graph.from_edges(n, edges))
    if n
    else st.just(Graph.from_edges(0, []))
)


@settings(max_examples=120, deadline=None)
@given(small_graphs, formula_nodes(3))
def test_engines_agree(g, node):
    want = oracle._LoopEval(g, ()).eval(node, {}, {})
    results = {m: engine(g, node) for m, engine in ENGINES.items()}
    assert set(results.values()) == {want}, (want, results)


@settings(max_examples=60, deadline=None)
@given(small_graphs, formula_nodes(3))
def test_de_morgan(g, node):
    assert mso_check(g, Not(node)) == (not mso_check(g, node))


@settings(max_examples=40, deadline=None)
@given(small_graphs, formula_nodes(2), st.randoms(use_true_random=False))
def test_isomorphism_invariance(g, node, pyrandom):
    perm = list(range(g.n))
    pyrandom.shuffle(perm)
    h = g.relabel(perm)
    assert mso_check(g, node) == mso_check(h, node)


class TestMsoCheckExamples:
    def test_k3_nonempty_independent(self):
        f = parse_formula(
            "exists X. ((forall u. forall v. ((u in X & v in X) -> !adj(u, v)))"
            " & (exists w. w in X))"
        )
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert oracle._loop_check(k3, f)
        for engine in ENGINES.values():
            assert engine(k3, sentence(f))

    def test_empty_graph_vacuous_forall(self):
        f = parse_formula("forall x. false")
        assert oracle._loop_check(Graph.from_edges(0, []), f)
        for engine in ENGINES.values():
            assert engine(Graph.from_edges(0, []), sentence(f))

    def test_c4_bipartite_equal_whole_pipeline_body(self):
        bip = parse_formula(corpus.bipartite_equal())
        sentence = pre_evaluate(bip, (True, True))
        assert mso_check(cycle_graph(4), sentence)

    def test_typed_state_budget(self):
        f = parse_formula("exists X. exists Y. (X = Y & !(X = Y))")
        with pytest.raises(BudgetExceeded) as err:
            TypedEvaluator(star_graph(5), state_budget=50).check(sentence(f))
        assert (err.value.kind, err.value.limit, err.value.used) == ("mso-states", 50, 51)

    def test_auto_sends_set_free_sentences_to_typed(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("TableEngine built for a set-free sentence")

        monkeypatch.setattr(table_eval, "TableEngine", no_table)
        f = parse_formula("exists u. forall v. (u = v | adj(u, v))")
        assert mso_check(star_graph(40), f)
        assert not mso_check(path_graph(4), f)


class TestTypedClasses:
    def test_mixed_internal_adjacency_rejected(self):
        # unequal neighbour counts inside the class, then equal but partial
        for g in (path_graph(3), cycle_graph(4)):
            with pytest.raises(ValueError, match="internal"):
                TypedEvaluator(g, classes=[tuple(range(g.n))])

    def test_mixed_pair_adjacency_rejected(self):
        for g, classes in (
            (Graph.from_edges(3, [(0, 2)]), [(0, 1), (2,)]),
            (Graph.from_edges(4, [(0, 2), (1, 3)]), [(0, 1), (2, 3)]),
        ):
            with pytest.raises(ValueError, match="class pair"):
                TypedEvaluator(g, classes=classes)

    def test_stray_edge_rejected_at_the_promised_count(self):
        # 1-3 is missing and 1-4 is stray, so the edge count matches what
        # the class adjacency promises and only the stray edge gives it away
        g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 4)])
        with pytest.raises(ValueError, match="class pair"):
            TypedEvaluator(g, classes=[(0, 1), (2, 3), (4,)])

    def test_uniform_classes_accepted(self):
        g = star_graph(5)
        ev = TypedEvaluator(g, classes=[(0,), (1, 2, 3, 4, 5)])
        assert ev.adjacent == [[False, True], [True, False]]


class TestReduceGraph:
    def _stats(self, m, q_S, q_v):
        from cardmso.formula import FormulaStats
        return FormulaStats(m, q_S, q_v)

    def test_threshold_sixteen(self):
        g = star_graph(20)
        tp = type_partition(g, min_vertex_cover(g, 5))
        rg = reduce_graph(g, tp, self._stats(2, 1, 2))
        leaf_type = max(rg.types.types, key=len)
        assert len(leaf_type) == 16

    def test_small_type_untouched(self):
        g = star_graph(3)
        tp = type_partition(g, min_vertex_cover(g, 5))
        rg = reduce_graph(g, tp, self._stats(2, 1, 2))
        assert rg.graph.n == g.n

    def test_star99_bipartite_reduces_to_star8(self):
        g = star_graph(99)
        tp = type_partition(g, min_vertex_cover(g, 5))
        stats = analyze(parse_formula(corpus.bipartite_equal()))
        rg = reduce_graph(g, tp, stats)
        assert rg.graph.n == 9
        assert rg.graph.m == 8
        # reduced model-check verdict matches the unreduced one (unequal
        # parts: both graphs fail bipartite-equal)
        sentence = parse_formula(corpus.bipartite_equal())
        from cardmso.solver import check
        assert check(g, sentence).holds is False

    def test_kept_are_lexicographically_first(self):
        g = star_graph(20)
        tp = type_partition(g, min_vertex_cover(g, 5))
        rg = reduce_graph(g, tp, self._stats(2, 1, 2))
        for members, kept in zip(tp.types, rg.types.types):
            assert [rg.graph.names[v] for v in kept] == [
                g.names[v] for v in members[: len(kept)]
            ]


def reference_decode(g, body, prefix):
    """The true cells of the prefix table decoded one index at a time: the
    last prefix variable's mask is the least significant digit."""
    subsets = 1 << g.n
    out = []
    for idx in np.flatnonzero(table_eval.prefix_table(g, body, prefix).reshape(-1)):
        masks = []
        rest = int(idx)
        for _ in prefix:
            masks.append(rest % subsets)
            rest //= subsets
        out.append(tuple(
            frozenset(v for v in range(g.n) if (mask >> v) & 1) for mask in reversed(masks)
        ))
    return out


class TestSatisfyingAssignments:
    def test_full_set_only(self):
        f = parse_formula("exists Z1. (forall x. x in Z1)")
        k2 = Graph.from_edges(2, [(0, 1)])
        out = list(satisfying_prefix_assignments(k2, f.body, f.prefix))
        assert [tuple(sorted(a.sets[0])) for a in out] == [(0, 1)]

    def test_true_counts_all_subsets(self):
        f = parse_formula("exists Z1. true")
        k2 = Graph.from_edges(2, [(0, 1)])
        assert len(list(satisfying_prefix_assignments(k2, f.body, f.prefix))) == 4

    def test_deterministic_binary_counter_order(self):
        f = parse_formula("exists Z1. true")
        g = Graph.from_edges(2, [])
        masks = [
            tuple(sorted(a.sets[0]))
            for a in satisfying_prefix_assignments(g, f.body, f.prefix)
        ]
        assert masks == [(), (0,), (1,), (0, 1)]

    def test_p3_bipartiteness_matches_brute_force(self):
        bip = pre_evaluate(parse_formula(corpus.bipartite_equal()), (True, True))
        p3 = path_graph(3)
        stream = {
            tuple(frozenset(s) for s in a.sets)
            for a in satisfying_prefix_assignments(p3, bip.body, bip.prefix)
        }
        assert (frozenset({1}), frozenset({0, 2})) in stream
        assert (frozenset({0, 2}), frozenset({1})) in stream
        # brute force with the oracle's loop evaluator over all 8^2 assignments
        brute = set()
        for m1 in range(8):
            for m2 in range(8):
                ev = oracle._LoopEval(p3, ())
                if ev.eval(bip.body, {"X1": m1, "X2": m2}, {}):
                    brute.add((
                        frozenset(v for v in range(3) if (m1 >> v) & 1),
                        frozenset(v for v in range(3) if (m2 >> v) & 1),
                    ))
        assert stream == brute

    @settings(max_examples=30, deadline=None)
    @given(small_graphs, formula_nodes(2))
    def test_stream_matches_direct_enumeration(self, g, node):
        body = Quant("forall", "probe", "vertex", Or(node, Member("probe", "Zfree")))
        out = {
            a.sets[0]
            for a in satisfying_prefix_assignments(g, body, ("Zfree",))
        }
        want = set()
        for mask in range(1 << g.n):
            ev = oracle._LoopEval(g, ())
            if ev.eval(body, {"Zfree": mask}, {}):
                want.add(frozenset(v for v in range(g.n) if (mask >> v) & 1))
        assert out == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_slice_decode_matches_per_cell_decode(self, data):
        prefix = ("A", "B", "C")[: data.draw(st.integers(1, 3))]
        g = data.draw(small_graphs)
        body = data.draw(formula_nodes(2, prefix))
        out = [a.sets for a in satisfying_prefix_assignments(g, body, prefix)]
        assert out == reference_decode(g, body, prefix)

    def test_decode_spans_several_slices(self):
        # every subset of 17 vertices: 2^17 true cells, more than one slice
        g = Graph.from_edges(17, [])
        f = parse_formula("exists Z1. true")
        out = [a.sets for a in satisfying_prefix_assignments(g, f.body, f.prefix)]
        assert out == [
            (frozenset(v for v in range(17) if (mask >> v) & 1),)
            for mask in range(1 << 17)
        ]

    def test_prefix_past_the_cell_budget_is_refused(self, monkeypatch):
        # two prefix variables on the 4 vertices of C4 need (2^4)^2 = 256 cells
        bip = pre_evaluate(parse_formula(corpus.bipartite_equal()), (True, True))
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 255)
        with pytest.raises(BudgetExceeded) as refusal:
            list(satisfying_prefix_assignments(cycle_graph(4), bip.body, bip.prefix))
        assert refusal.value.kind == "mso-cells"
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 256)
        assert list(satisfying_prefix_assignments(cycle_graph(4), bip.body, bip.prefix))


def test_shrinking_preserves_verdicts_small(rng):
    """Deleting one vertex from a type above the sentence's set-count
    threshold never flips the verdict (spot version of the acceptance
    property, with low-variable sentences so small graphs qualify)."""
    sentences = [
        # one set + two vertex variables: threshold 4
        parse_formula(
            "exists X. ((forall u. forall v. ((u in X & v in X) -> !adj(u, v)))"
            " & (forall u. (u in X | (exists v. (v in X & adj(u, v))))))"
        ),
        # pure first-order, two vertex variables: threshold 2
        parse_formula("exists u. forall v. (u = v | adj(u, v))"),
    ]
    checked = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        tp = nd_partition(g)
        for f in sentences:
            stats = analyze(f)
            threshold = (1 << stats.q_S) * max(stats.q_v, 1)
            for members in tp.types:
                if len(members) > threshold:
                    reduced, _ = g.induced(
                        [v for v in range(g.n) if v != members[-1]]
                    )
                    assert mso_check(g, f) == mso_check(reduced, f)
                    checked += 1
    assert checked > 0
