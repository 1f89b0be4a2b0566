import itertools
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardmso import table_eval
from cardmso.errors import BudgetExceeded
from cardmso.ilp import (
    EQ, GE, LE, Program, _Search, farkas_multipliers, refutes, solve_feasibility, solve_min,
)


def row(coeffs: dict[int, int], relation: str, rhs: int) -> tuple:
    return tuple(sorted(coeffs.items())), relation, rhs


class Spec(NamedTuple):
    """An integer program as a test writes it: per variable (lo, hi), rows
    (((index, coefficient), ...), LE | EQ | GE, rhs) and an optional
    objective ((index, coefficient), ...) to minimise. The references below
    read these uncompiled rows, so they stay independent of Program.build."""

    bounds: list[tuple[int, int]]
    rows: list[tuple]
    objective: Optional[tuple[tuple[int, int], ...]] = None

    def program(self) -> Program:
        return Program.build(
            [f"v{i}" for i in range(len(self.bounds))],
            [lo for lo, _ in self.bounds], [hi for _, hi in self.bounds],
            self.rows, self.objective,
        )


def check_assignment(spec: Spec, x) -> bool:
    """Reference check: every bound and every row, read off the spec."""
    if not all(lo <= v <= hi for (lo, hi), v in zip(spec.bounds, x)):
        return False
    for terms, relation, rhs in spec.rows:
        total = sum(c * x[i] for i, c in terms)
        if relation == LE and not total <= rhs:
            return False
        if relation == EQ and total != rhs:
            return False
        if relation == GE and not total >= rhs:
            return False
    return True


def grid_solve(spec: Spec):
    """Exhaustive reference: returns (feasible, min objective or None)."""
    best = None
    feasible = False
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in spec.bounds)):
        if check_assignment(spec, x):
            feasible = True
            if spec.objective is not None:
                score = sum(c * x[i] for i, c in spec.objective)
                if best is None or score < best:
                    best = score
    return feasible, best


def random_instance(rng: random.Random, with_objective: bool, max_vars: int = 4) -> Spec:
    nvars = rng.randint(1, max_vars)
    bounds = []
    for _ in range(nvars):
        lo = rng.randint(0, 3)
        bounds.append((lo, lo + rng.randint(0, 6 - lo)))
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = {i: rng.randint(-3, 3) for i in rng.sample(range(nvars), rng.randint(1, nvars))}
        rows.append(row(coeffs, rng.choice([LE, EQ, GE]), rng.randint(-6, 12)))
    objective = None
    if with_objective:
        objective = tuple((i, rng.randint(-3, 3)) for i in range(nvars))
    return Spec(bounds, rows, objective)


class TestBuild:
    def test_equality_is_two_rows_and_ge_is_negated(self):
        program = Program.build(
            ["x", "y"], [0, 0], [5, 5],
            [row({0: 1, 1: -2}, EQ, 3), row({0: 2, 1: 1}, GE, 4), row({1: 1}, LE, 4)],
        )
        assert program.rows == (
            (((0, 1),), ((1, -2),), 3),  # x - 2y <= 3
            (((1, 2),), ((0, -1),), -3),  # -x + 2y <= -3
            ((), ((0, -2), (1, -1)), -4),  # -2x - y <= -4
            (((1, 1),), (), 4),
        )
        # the one-variable row is applied at the root only
        assert program.var_rows == ((0, 1, 2), (0, 1, 2))

    def test_zero_coefficients_are_dropped(self):
        program = Program.build(
            ["x", "y", "z"], [0, 0, 0], [3, 3, 3],
            [row({0: 0, 1: 3}, LE, 6), row({0: 1, 1: 0, 2: -1}, GE, 0)],
            objective=((0, 0), (2, 4)),
        )
        assert program.rows == ((((1, 3),), (), 6), (((2, 1),), ((0, -1),), 0))
        assert program.var_rows == ((1,), (), (1,))
        assert program.objective == ((2, 4),)

    def test_empty_domain_is_refused(self):
        with pytest.raises(ValueError, match="'y' has empty domain"):
            Program.build(["x", "y"], [0, 3], [1, 2], [])

    def test_unknown_relation_is_refused(self):
        with pytest.raises(ValueError):
            Program.build(["x"], [0], [1], [row({0: 1}, "<", 1)])


class TestExamples:
    def test_pinned_variable_infeasible(self):
        spec = Spec([(3, 3)], [row({0: 1}, GE, 5)])
        assert solve_feasibility(spec.program()).status == "infeasible"

    def test_unique_solution(self):
        spec = Spec([(0, 10), (0, 10)], [row({0: 1, 1: 1}, EQ, 4), row({0: 1, 1: -1}, EQ, 0)])
        res = solve_feasibility(spec.program())
        assert res.status == "feasible"
        assert res.assignment == (2, 2)

    def test_min_simple(self):
        res = solve_min(Spec([(2, 9)], [], ((0, 1),)).program())
        assert res.status == "optimal" and res.objective_value == 2

    def test_min_with_row(self):
        spec = Spec([(0, 5), (0, 5)], [row({0: 1, 1: 1}, GE, 3)], ((0, 1), (1, 1)))
        assert solve_min(spec.program()).objective_value == 3

    def test_empty_instance_feasible(self):
        assert solve_feasibility(Spec([], []).program()).status == "feasible"

    def test_budget_error(self):
        spec = Spec([(0, 6)] * 6, [row(dict.fromkeys(range(6), 1), EQ, 17)], ((0, 1),))
        with pytest.raises(BudgetExceeded) as err:
            solve_min(spec.program(), node_budget=3)
        # the node past the budget is the one refused
        assert (err.value.kind, err.value.limit, err.value.used) == ("ilp-nodes", 3, 4)


class TestAgainstGrid:
    def test_random_feasibility(self):
        rng = random.Random(42)
        for _ in range(300):
            spec = random_instance(rng, with_objective=False)
            want, _ = grid_solve(spec)
            got = solve_feasibility(spec.program())
            assert (got.status == "feasible") == want

    def test_random_minimum(self):
        rng = random.Random(43)
        for _ in range(300):
            spec = random_instance(rng, with_objective=True)
            want_feasible, want_min = grid_solve(spec)
            got = solve_min(spec.program())
            if want_feasible:
                assert got.status == "optimal" and got.objective_value == want_min
            else:
                assert got.status == "infeasible"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_row_scaling_invariance(seed, scale):
    rng = random.Random(seed)
    spec = random_instance(rng, with_objective=True)
    scaled = spec._replace(rows=[
        (tuple((i, c * scale) for i, c in terms), relation, rhs * scale)
        for terms, relation, rhs in spec.rows
    ])
    a = solve_min(spec.program())
    b = solve_min(scaled.program())
    assert a.status == b.status
    if a.status == "optimal":
        assert a.objective_value == b.objective_value


def test_dump_format():
    # rows as the search runs them: the equality as two <= rows
    text = Program.build(
        ["x", "y"], [0, 1], [3, 2], [row({0: 2, 1: -1}, LE, 4), row({0: 1, 1: 1}, EQ, 3)],
        objective=((0, 1),),
    ).format()
    assert text.splitlines() == [
        "# var x in [0, 3]",
        "# var y in [1, 2]",
        "# minimize 1*x",
        "2*x + -1*y <= 4",
        "1*x + 1*y <= 3",
        "-1*x + -1*y <= -3",
    ]


# ------------------------------------------------- references for the search


def sweep_fixpoint(spec: Spec, lo: list[int], hi: list[int]) -> bool:
    """Reference propagation: sweep every row, in row order, until no bound
    changes. Tightens lo/hi in place; False on wipeout."""
    changed = True
    while changed:
        changed = False
        for terms, relation, rhs in spec.rows:
            row_lo = sum(c * (lo[i] if c > 0 else hi[i]) for i, c in terms)
            row_hi = sum(c * (hi[i] if c > 0 else lo[i]) for i, c in terms)
            if relation in (LE, EQ) and row_lo > rhs:
                return False
            if relation in (GE, EQ) and row_hi < rhs:
                return False
            for i, c in terms:
                if not c:
                    continue
                rest_lo = row_lo - c * (lo[i] if c > 0 else hi[i])
                rest_hi = row_hi - c * (hi[i] if c > 0 else lo[i])
                new_lo, new_hi = lo[i], hi[i]
                if relation in (LE, EQ):
                    cap = rhs - rest_lo  # c * x <= cap
                    if c > 0:
                        new_hi = min(new_hi, cap // c)
                    else:
                        new_lo = max(new_lo, -(cap // -c))
                if relation in (GE, EQ):
                    need = rhs - rest_hi  # c * x >= need
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


def recursive_search(spec: Spec):
    """Reference feasibility search: recursive depth-first search that sweeps
    to fixpoint at every node, branches on the smallest open domain (lowest
    index on ties) and tries values lowest-first. Returns (assignment or
    None, nodes)."""
    nodes = 0

    def visit(lo, hi):
        nonlocal nodes
        nodes += 1
        lo, hi = lo[:], hi[:]
        if not sweep_fixpoint(spec, lo, hi):
            return None
        open_vars = [i for i in range(len(lo)) if lo[i] < hi[i]]
        if not open_vars:
            return tuple(lo)
        pick = min(open_vars, key=lambda i: (hi[i] - lo[i], i))
        for value in range(lo[pick], hi[pick] + 1):
            child_lo, child_hi = lo[:], hi[:]
            child_lo[pick] = child_hi[pick] = value
            found = visit(child_lo, child_hi)
            if found is not None:
                return found
        return None

    found = visit([lo for lo, _ in spec.bounds], [hi for _, hi in spec.bounds])
    return found, nodes


def planted_instance(rng: random.Random) -> Spec:
    """Rows through a random point, some shifted by one: mostly feasible,
    with coefficients that leave propagation enough slack to branch."""
    nvars = rng.randint(3, 8)
    bounds = [(0, rng.randint(1, 4)) for _ in range(nvars)]
    point = [rng.randint(0, hi) for _, hi in bounds]
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = {
            i: rng.choice([-7, -5, -3, -2, 2, 3, 5, 7])
            for i in rng.sample(range(nvars), rng.randint(2, nvars))
        }
        value = sum(c * point[i] for i, c in coeffs.items())
        rows.append(row(coeffs, rng.choice([LE, EQ, EQ, GE]), value + rng.choice([0, 0, 1])))
    return Spec(bounds, rows)


def opposed_instance(rng: random.Random) -> Spec:
    """A row a.x <= cap and a tilted copy a'.x >= cap + 1 or + 2: each row
    alone leaves propagation slack, and together they often leave no real
    point in the box, so the root LP certificate fires on many of these."""
    nvars = rng.randint(2, 5)
    bounds = [(0, rng.randint(1, 4)) for _ in range(nvars)]
    coeffs = {i: rng.randint(-3, 3) for i in range(nvars)}
    low = sum(min(0, c * hi) for (_, hi), c in zip(bounds, coeffs.values()))
    high = sum(max(0, c * hi) for (_, hi), c in zip(bounds, coeffs.values()))
    cap = rng.randint(low, high)
    tilted = dict(coeffs)
    tilted[rng.choice(range(nvars))] += rng.choice([-1, 1])
    rows = [row(coeffs, LE, cap), row(tilted, GE, cap + rng.randint(1, 2))]
    return Spec(bounds, rows, tuple((i, rng.randint(-3, 3)) for i in range(nvars)))


def with_objective(rng: random.Random, spec: Spec) -> Spec:
    return spec._replace(objective=tuple((i, rng.randint(-3, 3)) for i in range(len(spec.bounds))))


class TestSearchCore:
    def test_deep_search_needs_no_recursion(self):
        # 1,200 zeros are tried before the equality forces the rest to one:
        # deeper than the interpreter's recursion limit
        spec = Spec([(0, 1)] * 2400, [row(dict.fromkeys(range(2400), 1), EQ, 1200)])
        res = solve_feasibility(spec.program())
        assert res.status == "feasible"
        assert check_assignment(spec, res.assignment)
        assert res.nodes == 1201

    def test_same_witness_and_nodes_as_recursive_reference(self):
        refuted = 0
        for make in (planted_instance, opposed_instance):
            rng = random.Random(7)
            for _ in range(300):
                spec = make(rng)
                want, want_nodes = recursive_search(spec)
                got = solve_feasibility(spec.program())
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
            spec = random_instance(rng, with_objective=True)
            feasible, minimum = grid_solve(spec)
            below = rng.randint(-12, 12)
            got = solve_min(spec.program(), below=below)
            if not feasible or minimum >= below:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal" and got.objective_value == minimum
                assert check_assignment(spec, got.assignment)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_queue_propagation_reaches_sweep_fixpoint(seed):
    rng = random.Random(seed)
    spec = planted_instance(rng) if seed % 2 else random_instance(rng, False, max_vars=6)
    want_lo, want_hi = [lo for lo, _ in spec.bounds], [hi for _, hi in spec.bounds]
    want = sweep_fixpoint(spec, want_lo, want_hi)
    search = _Search(spec.program(), node_budget=1)
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
        spec = random_instance(rng, with_objective=True)
    elif kind == 1:
        spec = opposed_instance(rng)
    else:
        plain = planted_instance(rng)
        assume(len(plain.bounds) <= 6)  # keeps the grid small
        spec = with_objective(rng, plain)
    feasible, minimum = grid_solve(spec)
    program = spec.program()
    got = solve_feasibility(program)
    assert got.status == ("feasible" if feasible else "infeasible")
    assert not (got.lp_refuted and feasible)
    got = solve_min(program)
    assert (got.status, got.objective_value) == (
        ("optimal", minimum) if feasible else ("infeasible", None)
    )
    got = solve_min(program, below=below)
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

    def test_no_proposal_past_the_cell_budget(self, monkeypatch):
        # two rows over one open column: 2 * (1 + 3 * 2) cells of 64 bits
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 14 * 64)
        assert refutes(self.ROWS, farkas_multipliers(self.ROWS, [0], [5]), [0], [5])
        monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", 14 * 64 - 1)
        assert farkas_multipliers(self.ROWS, [0], [5]) is None

    def test_proposals_with_a_flipped_sign_are_rejected(self):
        spec = Spec([(0, 4), (0, 4)], [row({0: 2, 1: 2}, EQ, 5)])
        search = _Search(spec.program(), node_budget=1)
        # 2x + 2y = 5 has real points, so no certificate is proposed
        assert farkas_multipliers(search.rows, search.lo, search.hi) is None
        rng = random.Random(3)
        checked = 0
        for _ in range(200):
            search = _Search(opposed_instance(rng).program(), node_budget=1)
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


def sub_box(rng: random.Random, spec: Spec) -> list[tuple[int, int]]:
    """Random bounds inside the spec's own."""
    return [tuple(sorted((rng.randint(a, b), rng.randint(a, b)))) for a, b in spec.bounds]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(-12, 12))
def test_rebounded_program_solves_like_a_rebuilt_instance(seed, below):
    # re-solving one compiled program under new bounds is solving the
    # program rebuilt with those bounds: same status, witness, optimum,
    # node count and root certificate
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        spec = random_instance(rng, with_objective=True)
    elif kind == 1:
        spec = opposed_instance(rng)
    else:
        spec = with_objective(rng, planted_instance(rng))
    program = spec.program()
    for _ in range(3):
        bounds = sub_box(rng, spec)
        rebuilt = spec._replace(bounds=bounds).program()
        rebounded = program._replace(lo=[a for a, _ in bounds], hi=[b for _, b in bounds])
        assert solve_feasibility(rebounded) == solve_feasibility(rebuilt)
        assert solve_min(rebounded) == solve_min(rebuilt)
        assert solve_min(rebounded, below=below) == solve_min(rebuilt, below=below)
    # the rows are shared, and re-solving left them as compiled
    assert program.rows is rebounded.rows and program.rows == spec.program().rows


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_compiled_rows_accept_what_check_assignment_accepts(seed):
    # random points around the box, plus a solved point and its neighbours
    # one step away, which sit on or next to the rows (an equality is two
    # compiled rows and must hold as both)
    rng = random.Random(seed)
    spec = planted_instance(rng) if seed % 2 else random_instance(rng, False, max_vars=6)
    program = spec.program()
    points = [[rng.randint(lo - 1, hi + 1) for lo, hi in spec.bounds] for _ in range(30)]
    got = solve_feasibility(program)
    if got.status == "feasible":
        x = list(got.assignment)
        points.append(x)
        for i in range(len(x)):
            points += [x[:i] + [x[i] + step] + x[i + 1:] for step in (-1, 1)]
    for x in points:
        assert program.holds(x) == check_assignment(spec, x)
