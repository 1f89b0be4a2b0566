import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardmso.errors import BudgetExceeded
from cardmso.ilp import (
    EQ, GE, LE, ILPInstance, Row, _Search, check_assignment, format_instance,
    solve_feasibility, solve_min,
)


def grid_solve(inst: ILPInstance):
    """Exhaustive reference: returns (feasible, min objective or None)."""
    names = [v for v, _, _ in inst.variables]
    ranges = [range(lo, hi + 1) for _, lo, hi in inst.variables]
    best = None
    feasible = False
    for values in itertools.product(*ranges):
        assignment = dict(zip(names, values))
        if check_assignment(inst, assignment):
            feasible = True
            if inst.objective is not None:
                score = sum(c * assignment[v] for v, c in inst.objective)
                if best is None or score < best:
                    best = score
    return feasible, best


def random_instance(
    rng: random.Random, with_objective: bool, max_vars: int = 4
) -> ILPInstance:
    nvars = rng.randint(1, max_vars)
    names = [f"v{i}" for i in range(nvars)]
    variables = []
    for name in names:
        lo = rng.randint(0, 3)
        hi = lo + rng.randint(0, 6 - lo)
        variables.append((name, lo, hi))
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = {n: rng.randint(-3, 3) for n in rng.sample(names, rng.randint(1, nvars))}
        rows.append(Row.of(coeffs, rng.choice([LE, EQ, GE]), rng.randint(-6, 12)))
    objective = None
    if with_objective:
        objective = {n: rng.randint(-3, 3) for n in names}
    return ILPInstance.build(variables, rows, objective)


class TestExamples:
    def test_pinned_variable_infeasible(self):
        inst = ILPInstance.build([("x", 3, 3)], [Row.of({"x": 1}, GE, 5)])
        assert solve_feasibility(inst).status == "infeasible"

    def test_unique_solution(self):
        inst = ILPInstance.build(
            [("x", 0, 10), ("y", 0, 10)],
            [Row.of({"x": 1, "y": 1}, EQ, 4), Row.of({"x": 1, "y": -1}, EQ, 0)],
        )
        res = solve_feasibility(inst)
        assert res.status == "feasible"
        assert res.assignment == {"x": 2, "y": 2}

    def test_min_simple(self):
        inst = ILPInstance.build([("x", 2, 9)], [], {"x": 1})
        res = solve_min(inst)
        assert res.status == "optimal" and res.objective_value == 2

    def test_min_with_row(self):
        inst = ILPInstance.build(
            [("x", 0, 5), ("y", 0, 5)],
            [Row.of({"x": 1, "y": 1}, GE, 3)],
            {"x": 1, "y": 1},
        )
        assert solve_min(inst).objective_value == 3

    def test_empty_instance_feasible(self):
        assert solve_feasibility(ILPInstance.build([], [])).status == "feasible"

    def test_budget_error(self):
        inst = ILPInstance.build(
            [(f"v{i}", 0, 6) for i in range(6)],
            [Row.of({f"v{i}": 1 for i in range(6)}, EQ, 17)],
        )
        with pytest.raises(BudgetExceeded) as err:
            solve_min(
                ILPInstance(inst.variables, inst.rows, tuple({"v0": 1}.items())),
                node_budget=3,
            )
        # the node past the budget is the one refused
        assert (err.value.kind, err.value.limit, err.value.used) == ("ilp-nodes", 3, 4)


class TestAgainstGrid:
    def test_random_feasibility(self):
        rng = random.Random(42)
        for _ in range(300):
            inst = random_instance(rng, with_objective=False)
            want, _ = grid_solve(inst)
            got = solve_feasibility(inst)
            assert (got.status == "feasible") == want

    def test_random_minimum(self):
        rng = random.Random(43)
        for _ in range(300):
            inst = random_instance(rng, with_objective=True)
            want_feasible, want_min = grid_solve(inst)
            got = solve_min(inst)
            if want_feasible:
                assert got.status == "optimal" and got.objective_value == want_min
            else:
                assert got.status == "infeasible"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_row_scaling_invariance(seed, scale):
    rng = random.Random(seed)
    inst = random_instance(rng, with_objective=True)
    scaled = ILPInstance(
        inst.variables,
        tuple(
            Row(tuple((v, c * scale) for v, c in row.coeffs), row.relation, row.rhs * scale)
            for row in inst.rows
        ),
        inst.objective,
    )
    a = solve_min(inst)
    b = solve_min(scaled)
    assert a.status == b.status
    if a.status == "optimal":
        assert a.objective_value == b.objective_value


def test_dump_format():
    inst = ILPInstance.build(
        [("x", 0, 3), ("y", 1, 2)],
        [Row.of({"x": 2, "y": -1}, LE, 4)],
        {"x": 1},
    )
    text = format_instance(inst)
    assert "2*x + -1*y <= 4" in text
    assert "# minimize 1*x" in text


# ------------------------------------------------- references for the search


def sweep_fixpoint(inst: ILPInstance, lo: list[int], hi: list[int]) -> bool:
    """Reference propagation: sweep every row, in row order, until no bound
    changes. Tightens lo/hi in place; False on wipeout."""
    index = {name: i for i, (name, _, _) in enumerate(inst.variables)}
    changed = True
    while changed:
        changed = False
        for row in inst.rows:
            terms = [(index[v], c) for v, c in row.coeffs]
            row_lo = sum(c * (lo[i] if c > 0 else hi[i]) for i, c in terms)
            row_hi = sum(c * (hi[i] if c > 0 else lo[i]) for i, c in terms)
            if row.relation in (LE, EQ) and row_lo > row.rhs:
                return False
            if row.relation in (GE, EQ) and row_hi < row.rhs:
                return False
            for i, c in terms:
                rest_lo = row_lo - c * (lo[i] if c > 0 else hi[i])
                rest_hi = row_hi - c * (hi[i] if c > 0 else lo[i])
                new_lo, new_hi = lo[i], hi[i]
                if row.relation in (LE, EQ):
                    cap = row.rhs - rest_lo  # c * x <= cap
                    if c > 0:
                        new_hi = min(new_hi, cap // c)
                    else:
                        new_lo = max(new_lo, -(cap // -c))
                if row.relation in (GE, EQ):
                    need = row.rhs - rest_hi  # c * x >= need
                    if c > 0:
                        new_lo = max(new_lo, -(-need // c))
                    else:
                        new_hi = min(new_hi, need // c)
                if (new_lo, new_hi) != (lo[i], hi[i]):
                    lo[i], hi[i] = new_lo, new_hi
                    changed = True
                if lo[i] > hi[i]:
                    return False
    return True


def recursive_search(inst: ILPInstance):
    """Reference feasibility search: recursive depth-first search that sweeps
    to fixpoint at every node, branches on the smallest open domain (lowest
    index on ties) and tries values lowest-first. Returns (assignment or
    None, nodes)."""
    nodes = 0

    def visit(lo, hi):
        nonlocal nodes
        nodes += 1
        lo, hi = lo[:], hi[:]
        if not sweep_fixpoint(inst, lo, hi):
            return None
        open_vars = [i for i in range(len(lo)) if lo[i] < hi[i]]
        if not open_vars:
            return lo
        pick = min(open_vars, key=lambda i: (hi[i] - lo[i], i))
        for value in range(lo[pick], hi[pick] + 1):
            child_lo, child_hi = lo[:], hi[:]
            child_lo[pick] = child_hi[pick] = value
            found = visit(child_lo, child_hi)
            if found is not None:
                return found
        return None

    found = visit([lo for _, lo, _ in inst.variables], [hi for _, _, hi in inst.variables])
    if found is None:
        return None, nodes
    return {name: found[i] for i, (name, _, _) in enumerate(inst.variables)}, nodes


def planted_instance(rng: random.Random) -> ILPInstance:
    """Rows through a random point, some shifted by one: mostly feasible,
    with coefficients that leave propagation enough slack to branch."""
    names = [f"v{i}" for i in range(rng.randint(3, 8))]
    variables = [(name, 0, rng.randint(1, 4)) for name in names]
    point = {name: rng.randint(0, hi) for name, _, hi in variables}
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = {
            name: rng.choice([-7, -5, -3, -2, 2, 3, 5, 7])
            for name in rng.sample(names, rng.randint(2, len(names)))
        }
        value = sum(c * point[name] for name, c in coeffs.items())
        rows.append(Row.of(coeffs, rng.choice([LE, EQ, EQ, GE]), value + rng.choice([0, 0, 1])))
    return ILPInstance.build(variables, rows)


class TestSearchCore:
    def test_deep_search_needs_no_recursion(self):
        # 1,200 zeros are tried before the equality forces the rest to one:
        # deeper than the interpreter's recursion limit
        names = [f"b{i}" for i in range(2400)]
        inst = ILPInstance.build(
            [(v, 0, 1) for v in names], [Row.of({v: 1 for v in names}, EQ, 1200)]
        )
        res = solve_feasibility(inst)
        assert res.status == "feasible"
        assert check_assignment(inst, res.assignment)
        assert res.nodes == 1201

    def test_same_witness_and_nodes_as_recursive_reference(self):
        rng = random.Random(7)
        for _ in range(300):
            inst = planted_instance(rng)
            want, want_nodes = recursive_search(inst)
            got = solve_feasibility(inst)
            assert got.status == ("infeasible" if want is None else "feasible")
            assert got.assignment == want
            assert got.nodes == want_nodes

    def test_below_cutoff_against_grid(self):
        rng = random.Random(44)
        for _ in range(300):
            inst = random_instance(rng, with_objective=True)
            feasible, minimum = grid_solve(inst)
            below = rng.randint(-12, 12)
            got = solve_min(inst, below=below)
            if not feasible or minimum >= below:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal" and got.objective_value == minimum
                assert check_assignment(inst, got.assignment)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_queue_propagation_reaches_sweep_fixpoint(seed):
    rng = random.Random(seed)
    inst = planted_instance(rng) if seed % 2 else random_instance(rng, False, max_vars=6)
    want_lo, want_hi = [lo for _, lo, _ in inst.variables], [hi for _, _, hi in inst.variables]
    want = sweep_fixpoint(inst, want_lo, want_hi)
    search = _Search(inst, node_budget=1)
    lo, hi = search.lo[:], search.hi[:]
    got = search.propagate(lo, hi, deque(range(len(search.rows))))
    assert got == want
    if want:
        assert (lo, hi) == (want_lo, want_hi)
