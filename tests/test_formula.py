from pathlib import Path

import pytest

from cardmso import corpus
from cardmso.errors import FormulaStructureError, FormulaSyntaxError
from cardmso.formula import (
    ConstraintRef, Rho, analyze, constraint_truths, format_formula,
    parse_formula, pre_evaluate, substitute_params, walk,
)


class TestParse:
    def test_bipartite_equal_shape(self):
        f = parse_formula(corpus.bipartite_equal())
        assert f.m == 2
        assert len(f.constraints) == 2
        # the equality desugars into the two <= halves
        assert f.constraints[0].lhs == Rho(0, ("X1",), ())
        assert f.constraints[0].rhs == Rho(0, ("X2",), ())
        assert f.constraints[1].lhs == Rho(0, ("X2",), ())

    def test_trivial_zero(self):
        f = parse_formula("exists Z. [|Z| = 0]")
        st = analyze(f)
        assert (f.m, st.q_S, st.q_v, len(f.constraints)) == (1, 0, 0, 2)

    def test_ids_has_parameter(self):
        f = parse_formula(corpus.independent_dominating())
        assert f.free_params == frozenset({"k"})

    def test_less_than_desugars_with_negation(self):
        f = parse_formula("exists Z. [1 < |Z|]")
        assert len(f.constraints) == 2
        kinds = [type(n).__name__ for n in walk(f.body)]
        assert "Not" in kinds

    def test_non_prefix_variable_in_constraint_rejected(self):
        with pytest.raises(FormulaStructureError, match="non-prefix"):
            parse_formula("exists Z. (forall x. exists Y. (x in Y & [|Y| <= 1]))")

    def test_nested_leading_existentials_join_prefix(self):
        f = parse_formula("exists Z. (exists Y. [|Y| <= 1])")
        assert f.prefix == ("Z", "Y")

    def test_unbound_variable_rejected(self):
        with pytest.raises(FormulaStructureError, match="unbound"):
            parse_formula("exists Z. (x in Z)")

    def test_shadowing_rejected(self):
        with pytest.raises(FormulaStructureError, match="shadows"):
            parse_formula("forall x. exists x. (x = x)")

    def test_syntax_error_reports_position(self):
        with pytest.raises(FormulaSyntaxError, match="position"):
            parse_formula("exists Z. [|Z| ? 3]")

    def test_sort_mismatches_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("forall x. adj(x, X)")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("forall x. exists Z. (x = Z)")


class TestAnalyze:
    def test_bipartite_counts(self):
        st = analyze(parse_formula(corpus.bipartite_equal()))
        assert (st.m, st.q_S, st.q_v) == (2, 0, 2)
        assert st.small_threshold == 2
        assert st.reduce_threshold == 8

    def test_equitable_coloring_counts(self):
        st = analyze(parse_formula(corpus.equitable_coloring(3)))
        assert (st.m, st.q_S, st.q_v) == (3, 0, 2)

    def test_equitable_connected_counts(self):
        st = analyze(parse_formula(corpus.equitable_connected(3)))
        assert (st.m, st.q_S, st.q_v) == (3, 1, 3)
        assert st.small_threshold == 6
        assert st.reduce_threshold == 48

    def test_qv_zero_clamps_thresholds(self):
        st = analyze(parse_formula("exists Z. [|Z| = 0]"))
        assert st.q_v == 0
        assert st.small_threshold == 1
        assert st.reduce_threshold == 2

    def test_renaming_invariance(self):
        a = analyze(parse_formula("exists Z. (forall x. forall y. (x in Z | adj(x, y)))"))
        b = analyze(parse_formula("exists W. (forall u. forall w. (u in W | adj(u, w)))"))
        assert a == b


class TestSubstitute:
    def test_ids_binding(self):
        f = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2})
        assert f.free_params == frozenset()
        assert f.constraints[0].rhs.const == 2
        assert f.constraints[1].lhs.const == 2

    def test_identity_without_params(self):
        f = parse_formula(corpus.bipartite_equal())
        assert substitute_params(f, {}) == f

    def test_constant_folding(self):
        f = substitute_params(parse_formula("exists Z. [|Z| = $k + 1]"), {"k": 3})
        assert f.constraints[0].rhs.const == 4
        assert f.constraints[1].lhs.const == 4

    def test_missing_binding_errors(self):
        with pytest.raises(FormulaStructureError, match="missing"):
            substitute_params(parse_formula(corpus.independent_dominating()), {})

    def test_unknown_binding_warns(self):
        f = parse_formula(corpus.bipartite_equal())
        with pytest.warns(UserWarning, match="unknown"):
            substitute_params(f, {"zz": 1})


class TestPreEvaluate:
    def test_replaces_all_leaves(self):
        f = parse_formula(corpus.bipartite_equal())
        for alpha in [(True, True), (True, False), (False, False)]:
            out = pre_evaluate(f, alpha)
            assert out.constraints == ()
            assert not any(isinstance(n, ConstraintRef) for n in walk(out.body))

    def test_zero_constraints_identity(self):
        f = parse_formula("exists Z. (forall x. x in Z)")
        assert pre_evaluate(f, ()) == f

    def test_substitution_example(self):
        f = parse_formula("exists Z. [|Z| <= 3] & !([5 <= |Z|])")
        out = pre_evaluate(f, (True, False))
        text = format_formula(out)
        assert "true" in text and "false" in text

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pre_evaluate(parse_formula("exists Z. [|Z| = 0]"), (True,))


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        corpus.bipartite_equal(),
        corpus.equitable_coloring(1),
        corpus.equitable_coloring(3),
        corpus.equitable_connected(3),
        corpus.equitable_partition(2),
        corpus.independent_dominating(),
        corpus.independence_body(),
        corpus.clique_body(),
        "exists Z. [|Z| + 2 <= |Z| + $k]",
        "forall x. (x = x <-> true)",
        "exists A. exists B. (A = B | !(exists y. y in A))",
    ])
    def test_parse_print_parse(self, text):
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_shipped_formulas_match_their_builders():
    # the benchmark parses the builders and CLI users read the files, so
    # the two must be the same text (regenerate with scripts/make_formulas.py)
    shipped = Path(__file__).resolve().parents[1] / "formulas"
    files = {path.name: path.read_text() for path in shipped.glob("*.cms")}
    assert sorted(files) == sorted(corpus.CORPUS_FILES)
    for name, builder in corpus.CORPUS_FILES.items():
        assert files[name] == builder(), name


def test_compliance_consistency_on_small_graphs(rng):
    # the numeric truth vector is the unique complying pre-evaluation:
    # body truth equals the pre-evaluated body truth under the same sets
    from cardmso import oracle
    from conftest import random_graph

    f = parse_formula(corpus.bipartite_equal())
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 5))
        for _ in range(10):
            sets = tuple(
                frozenset(v for v in range(g.n) if rng.random() < 0.5)
                for _ in range(f.m)
            )
            sizes = {name: len(s) for name, s in zip(f.prefix, sets)}
            alpha = constraint_truths(f, sizes)
            ev = oracle._LoopEval(g, f.constraints)
            masks = {name: sum(1 << v for v in s) for name, s in zip(f.prefix, sets)}
            direct = ev.eval(pre_evaluate(f, alpha).body, dict(masks), {})
            # flipping any guessed value must change compliance, so evaluating
            # under the flipped pre-evaluation cannot agree with direct
            # semantics when a constraint leaf is actually reachable
            truth = ev.eval(f.body, dict(masks), {})
            assert truth == direct


def test_multi_binder_sugar():
    f = parse_formula("forall a, b. (a = b | !adj(a, b)) & exists X, Y. (X = Y)")
    g = parse_formula("forall a. forall b. ((a = b | !adj(a, b)) & exists X. exists Y. (X = Y))")
    assert f == g
