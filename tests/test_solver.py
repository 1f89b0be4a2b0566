import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso import corpus, ilp, oracle, solver, table_eval
from cardmso.balanced import cbalanced
from cardmso.errors import BudgetExceeded, CoverBudgetExceeded, WitnessError
from cardmso.formula import (
    And, ConstraintRef, FalseLit, Iff, Implies, Not, Or, Quant, TrueLit, analyze,
    constraint_truths, parse_formula, substitute_params,
)
from cardmso.graph import Graph, VertexCover, min_vertex_cover, type_partition
from cardmso.mso_eval import PrefixAssignment, reduce_graph, satisfying_prefix_assignments
from cardmso.solver import _Pipeline, build_extension_ilp, check, extract_witness
from conftest import (
    assert_witness_valid, complete_bipartite, complete_graph, cycle_graph,
    path_graph, planted_cover, random_graph, star_graph, twin_class_graph,
)


def edgeless(n: int) -> Graph:
    return Graph.from_edges(n, [])


class TestBuildExtensionIlp:
    """The 5-vertex edgeless example: one type of size 5 reduced to 2, the
    empty assignment, and the [|Z1| <= 0] constraint."""

    def _setup(self):
        g = edgeless(5)
        f = parse_formula("exists Z1. [|Z1| <= 0]")
        stats = analyze(f)
        tp = type_partition(g, VertexCover(frozenset()))
        rg = reduce_graph(g, tp, stats)
        assert rg.graph.n == 2  # reduce threshold 2 (q_v clamped to 1)
        chi = PrefixAssignment((frozenset(),))
        return g, f, stats, tp, rg, chi

    def test_alpha_true_structure_and_feasibility(self):
        g, f, stats, tp, rg, chi = self._setup()
        inst = build_extension_ilp(g, tp, chi, (True,), f, stats)
        assert [v[0] for v in inst.variables] == ["x_t0_s0", "x_t0_s1"]
        group1 = [r for r in inst.rows if len(r.coeffs) == 2 and r.relation == ilp.EQ]
        assert group1[0].rhs == 5
        assert ("x_t0_s1", 0, 0) in inst.variables  # group 2: the pin is the domain
        rows = [r for r in inst.rows if r.coeffs == (("x_t0_s1", 1),)]
        assert any(r.relation == ilp.LE and r.rhs == 0 for r in rows)  # group 3
        assert ilp.solve_feasibility(inst).status == "feasible"

    def test_alpha_false_is_infeasible(self):
        g, f, stats, tp, rg, chi = self._setup()
        inst = build_extension_ilp(g, tp, chi, (False,), f, stats)
        # the reversed constraint demands |Z1| >= 1 against the pinned 0
        assert ilp.solve_feasibility(inst).status == "infeasible"

    def test_variable_count_is_types_times_signatures(self):
        g = star_graph(4)
        f = parse_formula(corpus.bipartite_equal())
        stats = analyze(f)
        tp = type_partition(g, min_vertex_cover(g, 4))
        rg = reduce_graph(g, tp, stats)
        chi = PrefixAssignment((frozenset(), frozenset()))
        inst = build_extension_ilp(g, tp, chi, (True, True), f, stats)
        assert len(inst.variables) == tp.count * (1 << f.m)

    def test_lemma_instance_for_c6_bipartite(self):
        # the 3+3 bipartition of C6 must extend
        g = cycle_graph(6)
        f = parse_formula(corpus.bipartite_equal())
        stats = analyze(f)
        tp = type_partition(g, min_vertex_cover(g, 6))
        rg = reduce_graph(g, tp, stats)
        chi = PrefixAssignment((frozenset({0, 2, 4}), frozenset({1, 3, 5})))
        inst = build_extension_ilp(g, tp, chi, (True, True), f, stats)
        assert ilp.solve_feasibility(inst).status == "feasible"


def full_counts(tp, m: int, chi: PrefixAssignment) -> list[int]:
    """Per-(type, signature) counts of an assignment of the full graph, in
    the column order (t << m) | sig."""
    counts = [0] * (tp.count << m)
    for t, members in enumerate(tp.types):
        for v in members:
            sig = sum(1 << i for i, s in enumerate(chi.sets) if v in s)
            counts[(t << m) | sig] += 1
    return counts


_side = st.lists(
    st.one_of(st.sampled_from(["|X|", "|Y|", "|Z|"]), st.integers(0, 5).map(str)),
    min_size=1, max_size=4,
).map(" + ".join)
_constraint = st.tuples(_side, st.sampled_from(["<=", "=", "<"]), _side).map(
    lambda parts: f"[{parts[0]} {parts[1]} {parts[2]}]"
)


def reachable(pipeline: _Pipeline, sizes) -> list[int]:
    """Every pre-evaluation the pipeline's offsets reach from `sizes`, over
    all profiles."""
    return sorted(
        alpha for values in pipeline._profiles()
        for alpha in pipeline._reachable(list(sizes), values)
    )


def swept(f, sizes, slack: int) -> list[int]:
    """The pre-evaluations of every size vector in [s, s + slack]^m."""
    out = set()
    for offset in itertools.product(range(slack + 1), repeat=f.m):
        truths = constraint_truths(f, {n: s + o for n, s, o in zip(f.prefix, sizes, offset)})
        out.add(sum((0 if truth else 1) << j for j, truth in enumerate(truths)))
    return sorted(out)


def with_slack(f, slack: int) -> _Pipeline:
    """A pipeline of f on an edgeless graph with `slack` vertices past what
    reduction keeps of its one twin class."""
    kept = _Pipeline(edgeless(64), f).rg.graph.n
    pipeline = _Pipeline(edgeless(kept + slack), f)
    assert pipeline.slack == slack
    return pipeline


@settings(max_examples=60, deadline=None)
@given(st.lists(_constraint, min_size=1, max_size=4), st.tuples(*[st.integers(0, 12)] * 3))
def test_constraint_matrix_matches_constraint_truths(constraints, sizes):
    """Sides may repeat a set (|X| + |X|) or be constant; = and < desugar
    into several <= rows, some negated. A single zero offset reaches just
    the sizes' own pre-evaluation."""
    f = parse_formula("exists X. exists Y. exists Z. (" + " & ".join(constraints) + ")")
    pipeline = _Pipeline(edgeless(1), f)
    pipeline._offsets = np.zeros((1, len(f.constraints)), dtype=np.int64)
    assert reachable(pipeline, sizes) == swept(f, sizes, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_constraint, min_size=1, max_size=4),
    st.tuples(*[st.integers(0, 12)] * 3),
    st.integers(0, 6),
)
def test_offsets_reach_what_a_sweep_of_the_box_reaches(constraints, sizes, slack):
    f = parse_formula("exists X. exists Y. exists Z. (" + " & ".join(constraints) + ")")
    pipeline = with_slack(f, slack)
    cols = pipeline.cols
    assert np.array_equal(np.array(cols.signs)[:, None] * cols.dirs[cols.dir_of], cols.coeffs)
    assert reachable(pipeline, sizes) == swept(f, sizes, slack)


@pytest.mark.parametrize("body, directions", [
    ("exists X. exists Y. forall v. (v in X -> !(v in Y))", 0),  # no constraints
    ("[1 <= 2]", 1),  # m = 0
    ("[3 <= 1]", 1),  # m = 0, false
    ("exists X. [|X| + 2 <= |X| + 3]", 1),  # an all-zero row
    ("exists X. exists Y. [|X| + |X| <= |Y| + 3]", 1),  # a coefficient of 2
    # negated and duplicate rows share one direction
    ("exists X. exists Y. ([|X| <= |Y|] & [|Y| <= |X| + 1] & [|X| <= |Y|])", 1),
    ("exists X. exists Y. ([|X| = |Y| + 2] & [|Y| < 3] & [|X| + |X| <= 9])", 3),
])
@pytest.mark.parametrize("slack", [0, 1, 4])
def test_offsets_edge_cases(body, directions, slack):
    f = parse_formula(body)
    pipeline = with_slack(f, slack)
    assert len(pipeline.cols.dirs) == directions
    for sizes in itertools.product(range(4), repeat=f.m):
        assert reachable(pipeline, sizes) == swept(f, sizes, slack), sizes


def test_offsets_with_more_directions_than_numpy_has_dimensions():
    """70 distinct directions (numpy arrays have at most 32 or 64
    dimensions), none over the first set, in seven pieces of ten
    constraints: the offsets are the distinct projections of the box
    [0, slack]^6."""
    names = ["A", "B", "C", "D", "E", "F"]
    directions = [
        (0,) + d for d in itertools.product((-1, 0, 1), repeat=5)
        if next((c for c in d if c), 0) > 0
    ][:70]
    constraints = [
        "[" + " + ".join(["0"] + [f"|{n}|" for n, c in zip(names, d) if c > 0])
        + " <= " + " + ".join([str(j % 3)] + [f"|{n}|" for n, c in zip(names, d) if c < 0]) + "]"
        for j, d in enumerate(directions)
    ]
    pieces = [" & ".join(constraints[i : i + 10]) for i in range(0, 70, 10)]
    body = " & ".join(f"((forall v. v in A) | ({piece}))" for piece in pieces)
    f = parse_formula("".join(f"exists {n}. " for n in names) + "(" + body + ")")
    pipeline = with_slack(f, 2)
    assert len(pipeline.cols.dirs) == 70
    box = np.array(list(itertools.product(range(3), repeat=6)), dtype=np.int64)
    want = {tuple(row) for row in (box @ pipeline.cols.coeffs.T).tolist()}
    assert sorted(want) == sorted(map(tuple, pipeline._offsets.tolist()))


class TestExtractWitness:
    def test_identity_when_no_deletions(self):
        g = cycle_graph(4)
        f = parse_formula(corpus.bipartite_equal())
        tp = type_partition(g, min_vertex_cover(g, 4))
        rg = reduce_graph(g, tp, analyze(f))
        assert rg.graph.n == g.n
        chi = PrefixAssignment((frozenset({0, 2}), frozenset({1, 3})))
        # each type puts all its members on one signature, so the canonical
        # placement is the assignment itself
        full = extract_witness(full_counts(tp, f.m, chi), f.m, tp.types)
        assert full.sets == chi.sets

    def test_edgeless_fill(self):
        g = edgeless(5)
        tp = type_partition(g, VertexCover(frozenset()))
        full = extract_witness((5, 0), 1, tp.types)
        assert full.sets == (frozenset(),)

    def test_lift_keeps_the_solved_counts(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 8))
            tp = type_partition(g, min_vertex_cover(g, 8))
            m = rng.randint(0, 3)
            counts = []
            for members in tp.types:
                block = [0] * (1 << m)
                for _ in members:
                    block[rng.randrange(1 << m)] += 1
                counts.extend(block)
            full = extract_witness(counts, m, tp.types)
            assert len(full.sets) == m
            assert full_counts(tp, m, full) == counts

    def test_counts_not_matching_a_type_size_raise(self):
        tp = type_partition(edgeless(5), VertexCover(frozenset()))
        for counts in ((4, 0), (3, 3)):
            with pytest.raises(WitnessError):
                extract_witness(counts, 1, tp.types)

    def test_star9_bipartite_has_no_witness(self):
        verdict = check(star_graph(9), parse_formula(corpus.bipartite_equal()))
        assert verdict.holds is False and verdict.witness is None


class TestCheck:
    def test_c4_bipartite_true(self):
        f = parse_formula(corpus.bipartite_equal())
        v = check(cycle_graph(4), f)
        assert v.holds
        assert_witness_valid(cycle_graph(4), f, v)
        assert {len(s) for s in v.witness.sets} == {2}

    def test_p3_bipartite_false(self):
        assert not check(path_graph(3), parse_formula(corpus.bipartite_equal())).holds

    def test_equitable_coloring_k3_k4(self):
        f = parse_formula(corpus.equitable_coloring(3))
        assert check(complete_graph(3), f).holds
        assert not check(complete_graph(4), f).holds

    def test_k33_large_subtypes_extend_without_growth(self):
        # both colourings of K3,3 put three same-type vertices in one class;
        # the extension program must accept cardinality-preserving extensions
        f = parse_formula(corpus.bipartite_equal())
        v = check(complete_bipartite(3, 3), f)
        assert v.holds
        assert_witness_valid(complete_bipartite(3, 3), f, v)

    def test_complete_type_totals_are_decided_without_the_ilp(self):
        # nothing is reduced away, so the type sums pin the large subtype of
        # the three twins at its count and no branch-and-bound node is spent
        g = complete_bipartite(3, 3)
        f = parse_formula(corpus.bipartite_equal())
        v = check(g, f)
        assert v.stats.reduced_vertices == 6
        assert v.holds
        assert_witness_valid(g, f, v)
        assert v.stats.ilp_nodes == 0

    def test_reduction_paths_give_witnesses_on_big_stars(self):
        f = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 1})
        v = check(star_graph(40), f)
        assert v.holds
        assert_witness_valid(star_graph(40), f, v)
        assert v.witness.sets[0] == frozenset({0})
        assert v.stats.reduced_vertices < 41

    def test_ids_k2_on_star_is_false(self):
        # any two vertices of a star are adjacent (centre) or fail to
        # dominate the centre's other leaves independently... actually {two
        # leaves} never dominates the remaining leaves; centre+leaf is
        # adjacent, so no independent dominating pair exists
        f = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2})
        assert not check(star_graph(5), f).holds

    def test_mode_agreement(self, rng):
        formulas = [
            parse_formula(corpus.bipartite_equal()),
            substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2}),
        ]
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 6))
            for f in formulas:
                assert (
                    check(g, f, mode="vertex-cover").holds
                    == check(g, f, mode="neighborhood-diversity").holds
                )

    def test_brute_oracle_agrees_with_witnesses(self, rng):
        formulas = [
            parse_formula(corpus.bipartite_equal()),
            substitute_params(parse_formula(corpus.independent_dominating()), {"k": 1}),
        ]
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 5))
            for f in formulas:
                got = check(g, f)
                assert got.holds == oracle.brute_check(g, f)
                if got.holds:
                    assert_witness_valid(g, f, got)

    @pytest.mark.parametrize("mode", ["vertex-cover", "neighborhood-diversity"])
    def test_brute_oracle_agrees_where_reduction_shrinks_a_type(self, rng, mode):
        # small thresholds of 1 and 2 cut big twin classes down to a few
        # vertices, where a subtype count at the threshold may still grow
        bodies = [
            "exists X. [|X| = $K]",
            "exists X. (forall a. forall b. ((a in X & b in X) -> !adj(a, b)))"
            " & [|X| = $K]",
            "exists X. exists Y. (forall v. (v in X -> !(v in Y)))"
            " & [|X| = |Y| + $K]",
        ]
        for _ in range(11):
            g = twin_class_graph(rng)
            for body in bodies:
                for k in (1, 2, 4):
                    f = substitute_params(parse_formula(body), {"K": k})
                    got = check(g, f, mode=mode)
                    assert got.holds == oracle.brute_check(g, f), (body, k, g.edges)
                    if got.holds:
                        assert_witness_valid(g, f, got)

    def test_isolated_triple_has_a_singleton(self):
        g = edgeless(3)
        f = parse_formula("exists X. [|X| = 1]")
        for mode in ("vertex-cover", "neighborhood-diversity"):
            v = check(g, f, mode=mode)
            assert v.stats.reduced_vertices == 2
            assert v.holds
            assert_witness_valid(g, f, v)

    def test_pre_evaluations_count_those_with_work_pairs(self):
        f = parse_formula(corpus.bipartite_equal())
        # P3's colourings have sizes 2 and 1, which comply only with
        # pre-evaluations whose folded body is false: no work pair at all
        assert check(path_graph(3), f).stats.pre_evaluations == 0
        # C4 holds at its first pair, under the all-true pre-evaluation
        assert check(cycle_graph(4), f).stats.pre_evaluations == 1
        # every pair of the 40-leaf star has that same pre-evaluation
        assert check(star_graph(40), f).stats.pre_evaluations == 1
        # at most one vertex in X: [2 <= |X|] guessed true is refuted, and
        # the empty X holds with it guessed false
        f = parse_formula(
            "exists X. ([2 <= |X|] | forall v. !(v in X))"
            " & forall a. forall b. ((a in X & b in X) -> a = b)"
        )
        v = check(edgeless(8), f)
        assert v.holds and v.alpha == (False,)
        assert v.stats.pre_evaluations == 2

    def test_cover_budget_propagates(self):
        with pytest.raises(CoverBudgetExceeded):
            check(complete_graph(6), parse_formula(corpus.bipartite_equal()), k_max=1)

    def test_unbound_parameter_rejected(self):
        with pytest.raises(ValueError):
            check(path_graph(2), parse_formula(corpus.independent_dominating()))

    def test_oracle_agreement_sample(self, rng):
        formulas = [
            parse_formula(corpus.bipartite_equal()),
            parse_formula(corpus.equitable_coloring(3)),
            substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2}),
        ]
        for _ in range(15):
            g = random_graph(rng, rng.randint(0, 6))
            for f in formulas:
                want = oracle.brute_check(g, f)
                got = check(g, f)
                assert got.holds == want
                if got.holds:
                    assert_witness_valid(g, f, got)

    def test_empty_graph(self):
        assert not check(edgeless(0), parse_formula("exists Z. [1 <= |Z|]")).holds
        assert check(edgeless(0), parse_formula("exists Z. [|Z| <= 0]")).holds


class TestReductionGrowth:
    def test_witness_grows_large_subtypes_back(self):
        # all 99 leaves of a star form the only independent dominating set of
        # size 99; the reduced graph keeps 4 leaves, so the extension program
        # must grow the in-set subtype from 4 back to 99
        f = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 99})
        g = star_graph(99)
        v = check(g, f)
        assert v.holds
        assert v.witness.sets[0] == frozenset(range(1, 100))
        assert v.stats.reduced_vertices == 5
        assert_witness_valid(g, f, v)

    def test_no_intermediate_size_exists(self):
        f = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 50})
        assert not check(star_graph(99), f).holds


def wide_piece_formula():
    """An independent Z of size 2, the size bounds in one piece of 25
    constraint leaves."""
    bounds = " & ".join([f"[|Z| <= {2 + i}]" for i in range(24)] + ["[2 <= |Z|]"])
    return parse_formula(
        f"exists Z. (forall x. forall y. ((x in Z & y in Z) -> !adj(x, y))) & ({bounds})"
    )


def test_wide_piece_answers_like_the_oracle(monkeypatch):
    # pieces are folded per pre-evaluation, never tabled over their 2^25 leaf
    # patterns; with the cap at 1 every pipeline with slack takes the fallback
    f = wide_piece_formula()
    assert len(solver._split_pieces(f.body)[1]) == 1
    graphs = [path_graph(2), path_graph(4), star_graph(6), edgeless(7)]
    for cap in (solver._CANDIDATE_BOX_CAP, 1):
        monkeypatch.setattr(solver, "_CANDIDATE_BOX_CAP", cap)
        for g in graphs:
            pipeline = _Pipeline(g, f)
            assert (pipeline._offsets is None) == (cap == 1 and pipeline.slack > 0)
            verdict = pipeline.run_decision()
            assert verdict.holds == oracle.brute_check(g, f), (cap, g.edges)
            if verdict.holds:
                assert_witness_valid(g, f, verdict)


def test_fallback_charges_pre_evaluations_while_listing(monkeypatch):
    # a disjunction of 30 leaves is true under all but one of its 2^30
    # patterns; the fallback refuses before it lists them
    monkeypatch.setattr(solver, "_CANDIDATE_BOX_CAP", 1)
    piece = " | ".join(f"[|Z| <= {i}]" for i in range(30))
    f = parse_formula(f"exists Z. ({piece})")
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        check(edgeless(5), f)
    assert time.perf_counter() - start < 5
    assert (err.value.kind, err.value.limit) == ("pre-evaluations", solver.MAX_FALLBACK_ALPHAS)
    assert err.value.used > err.value.limit


def test_offsets_gate_on_what_the_growth_builds(monkeypatch):
    # cbalance c=2 on a 1000-vertex planted cover with k=1: the box
    # [0, slack]^2 has about 10^6 cells, but each growth step of the
    # candidate offsets builds a few thousand elements, so no unit is tried
    # under a pre-evaluation its offsets cannot reach
    g = planted_cover(random.Random(1), 1, 1000)
    got = cbalanced(g, 2)
    assert got.stats.ilp_solves == 150
    monkeypatch.setattr(solver, "_CANDIDATE_BOX_CAP", 1)
    fallback = cbalanced(g, 2)
    assert fallback.stats.ilp_solves > got.stats.ilp_solves
    assert fallback.cut_value == got.cut_value


_FOLD_LEAVES = 4
_fold_leaf = st.one_of(
    st.integers(0, _FOLD_LEAVES - 1).map(ConstraintRef), st.sampled_from([TrueLit(), FalseLit()])
)


def _fold_extend(children):
    return st.one_of(
        children.map(Not),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([And, Or, Implies, Iff]), children, children),
        st.builds(
            lambda q, sort, child: Quant(q, "x" if sort == "vertex" else "X", sort, child),
            st.sampled_from(["exists", "forall"]), st.sampled_from(["vertex", "set"]), children,
        ),
    )


def direct_truth(node, truths, n: int) -> bool:
    """A constraint-only tree under leaf truths (None leaves not allowed);
    its quantifiers bind nothing, so only an empty vertex domain matters."""
    if isinstance(node, ConstraintRef):
        return truths[node.index]
    if isinstance(node, (TrueLit, FalseLit)):
        return isinstance(node, TrueLit)
    if isinstance(node, Not):
        return not direct_truth(node.child, truths, n)
    if isinstance(node, Quant):
        if node.sort == "vertex" and n == 0:
            return node.quantifier == "forall"
        return direct_truth(node.child, truths, n)
    a, b = direct_truth(node.left, truths, n), direct_truth(node.right, truths, n)
    return {And: a and b, Or: a or b, Implies: not a or b, Iff: a == b}[type(node)]


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(_fold_leaf, _fold_extend, max_leaves=12),
    st.sampled_from([0, 3]),
    st.lists(st.sampled_from([None, False, True]), min_size=_FOLD_LEAVES, max_size=_FOLD_LEAVES),
)
def test_fold_agrees_with_direct_evaluation(piece, n, partial):
    """A full pre-evaluation folds to the literal of the direct truth; a
    partial one folds to a tree with the same truth under every completion,
    so to a literal only when all completions agree."""
    folded = solver._fold(piece, partial, n)
    for full in itertools.product((False, True), repeat=_FOLD_LEAVES):
        want = direct_truth(piece, full, n)
        assert solver._fold(piece, full, n) == (TrueLit() if want else FalseLit())
        if all(p is None or p == t for p, t in zip(partial, full)):
            assert direct_truth(folded, full, n) == want


def test_constant_piece_has_one_profile():
    # the piece folds to true with no leaf known, so the skeleton is never
    # enumerated as plain `true` for a false profile no pre-evaluation reaches
    f = parse_formula("exists Z. ([|Z| <= 1] | true) -> exists x. x in Z")
    pipeline = _Pipeline(path_graph(3), f)
    assert list(pipeline._profiles()) == [(True,)]
    verdict = pipeline.run_decision()
    assert verdict.holds and verdict.stats.prefix_assignments == 7


def test_preevaluation_piece_guard():
    # each constraint sits beside an MSO atom, so each is its own piece
    pieces = " & ".join(f"([|Z| <= {i}] | exists x. x in Z)" for i in range(17))
    with pytest.raises(BudgetExceeded) as err:
        check(path_graph(2), parse_formula(f"exists Z. ({pieces})"))
    assert (err.value.kind, err.value.limit, err.value.used) == ("pre-evaluation-pieces", 16, 17)


def test_pre_evaluation_index_past_63_bits():
    # 66 constraints in three pieces: alpha indices outgrow int64
    pieces = []
    for p in range(3):
        bounds = " & ".join(f"[{(p * 22 + i) % 4} <= |Z|]" for i in range(22))
        pieces.append(f"(({bounds}) | (forall v. v in Z))")
    f = parse_formula("exists Z. (" + " & ".join(pieces) + ")")
    for n in (3, 5):
        g = Graph.from_edges(n, [(0, 1)])
        verdict = check(g, f)
        assert verdict.holds == oracle.brute_check(g, f)
        if verdict.holds:
            assert_witness_valid(g, f, verdict)


def test_stream_looping_over_every_subset_is_not_used(monkeypatch):
    # the stream runs only while the whole prefix fits one table: two prefix
    # variables on the 4 vertices of C4 need (2^4)^2 = 256 cells
    real_stream = _Pipeline._table_rows
    f = parse_formula(corpus.bipartite_equal())
    for budget, streamed in ((255, False), (256, True)):
        calls = []

        def stream(*args, **kwargs):
            if not streamed:
                raise AssertionError("raw stream used for a prefix past one table")
            calls.append(1)
            return real_stream(*args, **kwargs)

        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", budget)
        monkeypatch.setattr(_Pipeline, "_table_rows", stream)
        verdict = check(cycle_graph(4), f)
        assert verdict.holds
        assert_witness_valid(cycle_graph(4), f, verdict)
        assert bool(calls) == streamed
        assert (verdict.stats.count_states == 0) == streamed


def collapse_by_hand(pipe: _Pipeline, body) -> tuple[list[tuple[int, ...]], int]:
    """The raw stream's count rows in first-seen order, and the number of
    assignments streamed, counted member by member."""
    rg = pipe.rg
    type_of = rg.types.type_of(rg.graph.n)
    rows: dict[tuple[int, ...], None] = {}
    streamed = 0
    for chi in satisfying_prefix_assignments(rg.graph, body, pipe.f.prefix):
        row = [0] * (len(rg.types.types) << pipe.m)
        for v in range(rg.graph.n):
            sig = sum(1 << i for i, s in enumerate(chi.sets) if v in s)
            row[(type_of[v] << pipe.m) | sig] += 1
        rows.setdefault(tuple(row), None)
        streamed += 1
    return list(rows), streamed


# K2,4's four leaves and the star's five are twins, so their rows collapse;
# at m = 3 the star's twins take several signatures each
@pytest.mark.parametrize("text", [corpus.bipartite_equal(), corpus.equitable_partition(3)])
@pytest.mark.parametrize(
    "g", [cycle_graph(4), path_graph(5), complete_bipartite(2, 4), star_graph(5)],
    ids=["C4", "P5", "K2,4", "star5"],
)
def test_stream_rows_match_a_collapse_by_hand(g, text):
    pipe = _Pipeline(g, parse_formula(text))
    for values in pipe._profiles():
        body = solver._fold(pipe.skeleton, values, pipe.rg.graph.n)
        if isinstance(body, FalseLit):
            continue
        before = pipe.stats.prefix_assignments
        rows = pipe._enumerate_states(body)
        want, streamed = collapse_by_hand(pipe, body)
        assert rows.tolist() == [list(row) for row in want]
        assert pipe.stats.prefix_assignments - before == streamed
    assert pipe.stats.count_states == 0


def test_stream_counters_of_cbalance_on_singleton_types():
    # the twin classes of P8 are all singletons: each of the 3^8 raw
    # assignments is its own row, and no count state is evaluated
    result = cbalanced(path_graph(8), 3)
    assert result.stats.reduced_vertices == 8
    assert result.stats.prefix_assignments == 6561
    assert result.stats.count_states == 0


def cover_with_leaves(leaves: int, isolated: int) -> Graph:
    """Cover vertex 0 joined to vertices 1..leaves, then isolated vertices."""
    return Graph.from_edges(1 + leaves + isolated, [(0, i) for i in range(1, leaves + 1)])


def test_sixteen_reduced_vertices_take_count_states(monkeypatch):
    # types of 1, 7 and 32 vertices reduce to 16: with two prefix variables
    # the stream would build 2^16 truth-table engines, one per subset
    def no_stream(*args, **kwargs):
        raise AssertionError("raw stream used for a prefix past one table")

    monkeypatch.setattr(_Pipeline, "_table_rows", no_stream)
    g = cover_with_leaves(7, 32)
    f = parse_formula(corpus.bipartite_equal())
    verdict = check(g, f)
    assert verdict.stats.reduced_vertices == 16
    assert verdict.holds
    assert_witness_valid(g, f, verdict)


def test_count_states_counts_filtered_leaves():
    # the exactly-one conjunct leaves signatures X1-only and X2-only, so the
    # classes of 1, 8 and 8 reduced vertices split 2 * 9 * 9 ways
    g = cover_with_leaves(20, 40)
    verdict = check(g, parse_formula(corpus.bipartite_equal()))
    assert verdict.stats.reduced_vertices == 17
    assert verdict.stats.count_states == 162


# m -> bodies with that many prefix sets; $K is drawn per graph
PAIR_BODIES = {
    0: ["[2 <= $K] | forall a. forall b. (adj(a, b) | a = b)"],
    1: [
        "exists X. [|X| = $K]",
        "exists X. (forall a. forall b. ((a in X & b in X) -> !adj(a, b))) & [|X| = $K]",
    ],
    2: [
        "exists X. exists Y. (forall v. (v in X -> !(v in Y))) & [|X| = |Y| + $K]",
        corpus.bipartite_equal(),
    ],
    3: [
        "exists X. exists Y. exists Z. (forall v. ((v in X -> v in Y) & (v in Y -> v in Z)))"
        " & [|X| + |Y| <= |Z| + $K] & ([|Z| <= |X| + 1] | forall v. (v in X <-> v in Y))",
    ],
}


def per_unit_pairs(pipeline: _Pipeline) -> list:
    """Work pairs by the per-unit definition: a unit with set sizes s
    complies at most with the pre-evaluations of the sizes in
    [s, s + slack]^m (slack = vertices reduction removed), read through
    constraint_truths, and only with those of its own profile."""
    f = pipeline.f
    slack = pipeline.g.n - pipeline.rg.graph.n
    reached: dict[tuple[int, ...], set[int]] = {}
    pairs = []
    for values in pipeline._profiles():
        for pos, row in enumerate(map(tuple, pipeline._units_for_profile(values).tolist())):
            sizes = tuple(
                sum(c for col, c in enumerate(row) if (col >> i) & 1) for i in range(f.m)
            )
            if sizes not in reached:
                reached[sizes] = set()
                for offset in itertools.product(range(slack + 1), repeat=f.m):
                    grown = {name: s + o for name, s, o in zip(f.prefix, sizes, offset)}
                    truths = constraint_truths(f, grown)
                    reached[sizes].add(sum((not t) << j for j, t in enumerate(truths)))
            pairs += [
                (alpha, pos, row) for alpha in reached[sizes]
                if pipeline._alpha_member(alpha, values)
            ]
    return sorted(pairs)


def test_collect_pairs_match_the_per_unit_sweep(rng, monkeypatch):
    # m = 3 reduces only types past 8 vertices, where the raw stream would
    # decode every assignment; count states are cheaper there
    monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 1 << 12)
    seen = set()
    for _ in range(6):
        for m, bodies in PAIR_BODIES.items():
            if m < 3:
                graphs = [
                    twin_class_graph(rng),
                    planted_cover(rng, rng.randint(1, 2), rng.randint(3, 8)),
                ]
            else:
                graphs = [edgeless(rng.randint(6, 11)), star_graph(rng.randint(5, 10))]
            for g in graphs:
                for body in bodies:
                    f = parse_formula(body)
                    if f.free_params:
                        f = substitute_params(f, {"K": rng.randint(0, 3)})
                    pipeline = _Pipeline(g, f)
                    assert pipeline._offsets is not None
                    assert pipeline._collect_pairs() == per_unit_pairs(pipeline), (body, g.edges)
                    seen.add((m, pipeline.slack > 0))
    assert seen == {(m, reduced) for m in PAIR_BODIES for reduced in (False, True)}


def test_profile_fallback_past_the_box_cap(rng, monkeypatch):
    # with the cap at one cell, every pipeline with slack tries each unit
    # under every pre-evaluation of its profile
    monkeypatch.setattr(solver, "_CANDIDATE_BOX_CAP", 1)
    calls = []
    profile_alphas = _Pipeline._profile_alphas

    def spy(self, values):
        calls.append(values)
        return profile_alphas(self, values)

    monkeypatch.setattr(_Pipeline, "_profile_alphas", spy)
    bodies = [
        "exists X. [|X| = $K]",
        "exists X. exists Y. (forall v. (v in X -> !(v in Y))) & [|X| = |Y| + $K]",
    ]
    for _ in range(8):
        g = twin_class_graph(rng)
        for body in bodies:
            for k in (1, 2, 4):
                f = substitute_params(parse_formula(body), {"K": k})
                got = check(g, f)
                assert got.holds == oracle.brute_check(g, f), (body, k, g.edges)
                if got.holds:
                    assert_witness_valid(g, f, got)
        for c in (2, 3):
            assert cbalanced(g, c).cut_value == oracle.brute_cbalanced(g, c), (c, g.edges)
    for leaves in (6, 7):
        g = star_graph(leaves)
        assert cbalanced(g, 2).cut_value == oracle.brute_cbalanced(g, 2)
    assert calls


def decided_units(monkeypatch) -> list:
    """Record every _decide_unit call as (pipeline, arguments, result)."""
    calls = []
    decide = _Pipeline._decide_unit

    def spy(self, counts, alpha_index, objective, below=None):
        got = decide(self, counts, alpha_index, objective, below)
        calls.append((self, (counts, alpha_index, objective, below), got))
        return got

    monkeypatch.setattr(_Pipeline, "_decide_unit", spy)
    return calls


def test_decided_units_match_solving_the_built_instance(monkeypatch):
    # each work pair re-solves its pre-evaluation's compiled program under
    # the unit's bounds and objective; that must be what solving the pair's
    # own instance gives
    calls = decided_units(monkeypatch)
    # the cover vertex has 57 neighbours, so the minimum cut is positive
    assert cbalanced(planted_cover(random.Random(8), 1, 100), 2).cut_value == 8
    # joined cover vertices: the cut's constant part is 1 when they are split
    joined = [(0, 1)] + [(u, v) for u in (0, 1) for v in range(2, 40) if (u + v) % 3]
    cbalanced(Graph.from_edges(40, joined), 2)
    ids = parse_formula(corpus.independent_dominating())
    g = planted_cover(random.Random(1), 2, 40)
    answers = set()
    for k in (17, 18, 19, 20, 38, 39):
        answers.add(check(g, substitute_params(ids, {"k": k})).holds)
    assert answers == {True, False}
    nodes = {}
    for pipeline, (counts, alpha, objective, below), got in calls:
        assert pipeline.slack > 0
        inst = solver._build_instance(pipeline.cols, counts, alpha, objective)
        if objective is None:
            res = ilp.solve_feasibility(inst)
        else:
            # the instance minimises the cut less its constant part
            const0 = objective.augment(counts)[0]
            res = ilp.solve_min(inst, below=None if below is None else below - const0)
        want = (False, None, None)
        if res.status != "infeasible":
            value = None if objective is None else const0 + res.objective_value
            want = (True, tuple(res.assignment[v] for v in pipeline.cols.names), value)
        assert got == want
        nodes[pipeline] = nodes.get(pipeline, 0) + res.nodes
    assert all(p.stats.ilp_nodes == count for p, count in nodes.items())
    assert {args[2] is None for _, args, _ in calls} == {True, False}
    # the programs are shared: fewer compiled than solved
    assert sum(len(p._programs) for p in nodes) < len(calls)


def dominated_cover(rng: random.Random, n: int, joined: bool) -> Graph:
    """A 2-vertex cover {0, 1}, adjacent iff joined, whose every other vertex
    has one or two cover neighbours. With no edge 0-1 the cover is an
    independent dominating set; with it, no two vertices are (each cover
    vertex misses many others, and every other vertex dominates only the
    cover and itself)."""
    edges = [(0, 1)] if joined else []
    for v in range(2, n):
        edges += [(u, v) for u in rng.choice([(0,), (1,), (0, 1)])]
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("n", [40, 400])
def test_check_survives_relabelling_and_modes_agree(n):
    # past brute force: renaming the vertices moves the cover away from
    # 0..k-1, and the nd partition groups the twins without a cover; neither
    # may change an answer, and both sentences have a reference answer here
    rng = random.Random(n)
    bip = parse_formula(corpus.bipartite_equal())
    ids = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2})
    for trial in range(4):
        # n is even: cover vertex 0 on one side and its neighbours on the
        # other, the isolated vertices filling both up
        g = planted_cover(rng, 1, n)
        cases = [(bip, g, len(g.adj[0]) <= n // 2)]
        cases.append((ids, dominated_cover(rng, n, trial % 2 == 1), trial % 2 == 0))
        for f, g, want in cases:
            perm = list(range(n))
            rng.shuffle(perm)
            verdict = check(g, f)
            assert verdict.holds == want
            assert check(g.relabel(perm), f).holds == want
            assert check(g, f, mode="nd").holds == want
            if want:
                assert_witness_valid(g, f, verdict)
