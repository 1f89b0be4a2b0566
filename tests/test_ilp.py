import itertools
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardmso.errors import BudgetExceeded
from cardmso.ilp import (
    EQ, GE, LE, ILPInstance, Program, Row, _Search, farkas_multipliers,
    format_instance, refutes, solve_feasibility, solve_min,
)


def check_assignment(inst: ILPInstance, assignment) -> bool:
    """Reference check: every bound and every row, read off the instance."""
    for name, lo, hi in inst.variables:
        if not (lo <= assignment[name] <= hi):
            return False
    for row in inst.rows:
        total = sum(c * assignment[v] for v, c in row.coeffs)
        if row.relation == LE and not total <= row.rhs:
            return False
        if row.relation == EQ and total != row.rhs:
            return False
        if row.relation == GE and not total >= row.rhs:
            return False
    return True


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


def opposed_instance(rng: random.Random) -> ILPInstance:
    """A row a.x <= cap and a tilted copy a'.x >= cap + 1 or + 2: each row
    alone leaves propagation slack, and together they often leave no real
    point in the box, so the root LP certificate fires on many of these."""
    names = [f"v{i}" for i in range(rng.randint(2, 5))]
    variables = [(name, 0, rng.randint(1, 4)) for name in names]
    coeffs = {name: rng.randint(-3, 3) for name in names}
    low = sum(min(0, c * hi) for (_, _, hi), c in zip(variables, coeffs.values()))
    high = sum(max(0, c * hi) for (_, _, hi), c in zip(variables, coeffs.values()))
    cap = rng.randint(low, high)
    tilted = dict(coeffs)
    tilted[rng.choice(names)] += rng.choice([-1, 1])
    rows = [Row.of(coeffs, LE, cap), Row.of(tilted, GE, cap + rng.randint(1, 2))]
    return ILPInstance.build(variables, rows, {name: rng.randint(-3, 3) for name in names})


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
        refuted = 0
        for make in (planted_instance, opposed_instance):
            rng = random.Random(7)
            for _ in range(300):
                inst = make(rng)
                want, want_nodes = recursive_search(inst)
                got = solve_feasibility(inst)
                assert got.status == ("infeasible" if want is None else "feasible")
                assert got.assignment == want
                if got.lp_refuted:
                    # a root certificate closes the program at node 1
                    assert want is None and got.nodes == 1
                    refuted += 1
                else:
                    assert got.nodes == want_nodes
        assert refuted > 0

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
    search = _Search(Program.of(inst), node_budget=1)
    lo, hi = search.lo[:], search.hi[:]
    got = search.propagate(lo, hi, deque(range(len(search.rows))))
    assert got == want
    if want:
        assert (lo, hi) == (want_lo, want_hi)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(-12, 12))
def test_root_refutation_only_without_grid_points(seed, below):
    # a root certificate fires only on programs without an integer point
    # (under the cut-off too), and optima are those of the grid
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        inst = random_instance(rng, with_objective=True)
    elif kind == 1:
        inst = opposed_instance(rng)
    else:
        plain = planted_instance(rng)
        assume(len(plain.variables) <= 6)  # keeps the grid small
        inst = ILPInstance.build(
            plain.variables, plain.rows, {v: rng.randint(-3, 3) for v, _, _ in plain.variables},
        )
    feasible, minimum = grid_solve(inst)
    got = solve_feasibility(inst)
    assert got.status == ("feasible" if feasible else "infeasible")
    assert not (got.lp_refuted and feasible)
    got = solve_min(inst)
    assert (got.status, got.objective_value) == (
        ("optimal", minimum) if feasible else ("infeasible", None)
    )
    got = solve_min(inst, below=below)
    if feasible and minimum < below:
        assert (got.status, got.objective_value, got.lp_refuted) == ("optimal", minimum, False)
    else:
        assert got.status == "infeasible"


class TestCertificateCheck:
    # x in [0, 5] with x <= 1 and x >= 2, stored as x <= 1 and -x <= -2
    ROWS = [[[(0, 1)], [], 1], [[], [(0, -1)], -2]]

    def test_tight_certificate_accepted(self):
        # 1 * (x <= 1) + 1 * (-x <= -2) is 0 <= -1
        assert refutes(self.ROWS, [1, 1], [0], [5])

    @pytest.mark.parametrize("y", [[2, 1], [1, 2], [0, 1], [1, 0], [-1, 1], [1, -1]])
    def test_perturbed_or_sign_flipped_multiplier_rejected(self, y):
        assert not refutes(self.ROWS, y, [0], [5])

    def test_negative_multipliers_rejected_on_a_feasible_program(self):
        # x <= 3 and x >= 2 hold at x = 2; with both multipliers -1 the
        # surrogate 0 <= -1 would "refute" it
        rows = [[[(0, 1)], [], 3], [[], [(0, -1)], -2]]
        assert not refutes(rows, [-1, -1], [0], [5])

    def test_proposals_with_a_flipped_sign_are_rejected(self):
        search = _Search(Program.of(ILPInstance.build(
            [("x", 0, 4), ("y", 0, 4)],
            [Row.of({"x": 2, "y": 2}, EQ, 5)],
        )), node_budget=1)
        # 2x + 2y = 5 has real points, so no certificate is proposed
        assert farkas_multipliers(search.rows, search.lo, search.hi) is None
        rng = random.Random(3)
        checked = 0
        for _ in range(200):
            search = _Search(Program.of(opposed_instance(rng)), node_budget=1)
            y = farkas_multipliers(search.rows, search.lo, search.hi)
            if y is None or not refutes(search.rows, y, search.lo, search.hi):
                continue
            checked += 1
            for r, v in enumerate(y):
                if v:
                    flipped = y[:r] + [-v] + y[r + 1:]
                    assert not refutes(search.rows, flipped, search.lo, search.hi)
        assert checked > 0


def test_root_refutation_imports_no_scipy():
    # scipy would add about 40 MB of resident memory to every run
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from cardmso import corpus, partitioning, parse_formula, Graph\n"
        "g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        "inst = partitioning.PartitionInstance(parse_formula(corpus.independence_body()), 2)\n"
        "v = partitioning.mso_partition(g, inst)\n"
        "assert not v.holds and v.stats.ilp_lp_refutations == 1, v.stats\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# ------------------------------------------------- compiled programs


def sub_box(rng: random.Random, inst: ILPInstance) -> tuple[list[int], list[int]]:
    """Random bounds inside the instance's own."""
    lo, hi = [], []
    for _, a, b in inst.variables:
        x, y = rng.randint(a, b), rng.randint(a, b)
        lo.append(min(x, y))
        hi.append(max(x, y))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(-12, 12))
def test_rebounded_program_solves_like_a_rebuilt_instance(seed, below):
    # re-solving one compiled program under new bounds is solving the
    # instance rebuilt with those bounds: same status, witness, optimum,
    # node count and root certificate
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        inst = random_instance(rng, with_objective=True)
    elif kind == 1:
        inst = opposed_instance(rng)
    else:
        plain = planted_instance(rng)
        inst = ILPInstance.build(
            plain.variables, plain.rows, {v: rng.randint(-3, 3) for v, _, _ in plain.variables},
        )
    program = Program.of(inst)
    for _ in range(3):
        lo, hi = sub_box(rng, inst)
        rebuilt = ILPInstance(
            tuple((name, a, b) for (name, _, _), a, b in zip(inst.variables, lo, hi)),
            inst.rows, inst.objective,
        )
        rebounded = program.with_bounds(lo, hi)
        assert solve_feasibility(rebounded) == solve_feasibility(rebuilt)
        assert solve_min(rebounded) == solve_min(rebuilt)
        assert solve_min(rebounded, below=below) == solve_min(rebuilt, below=below)
    # the rows are shared, and re-solving left them as compiled
    assert program.rows is rebounded.rows and program.rows == Program.of(inst).rows


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_compiled_rows_accept_what_check_assignment_accepts(seed):
    # random points around the box, plus a solved point and its neighbours
    # one step away, which sit on or next to the rows (an equality is two
    # compiled rows and must hold as both)
    rng = random.Random(seed)
    inst = planted_instance(rng) if seed % 2 else random_instance(rng, False, max_vars=6)
    program = Program.of(inst)
    points = [[rng.randint(lo - 1, hi + 1) for _, lo, hi in inst.variables] for _ in range(30)]
    got = solve_feasibility(inst)
    if got.status == "feasible":
        x = [got.assignment[name] for name in program.names]
        points.append(x)
        for i in range(len(x)):
            points += [x[:i] + [x[i] + step] + x[i + 1:] for step in (-1, 1)]
    for x in points:
        assert program.holds(x) == check_assignment(inst, dict(zip(program.names, x)))
