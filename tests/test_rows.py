"""The rows path: sentences whose body sorts into two-variable universal
conjuncts, forall-exists conjuncts and one-interval constraint pieces are
decided by one integer program over the count columns x and indicators
z = [x >= 1], with no state enumeration. Its answers are held to the
brute-force oracle, to the enumeration path and, past brute force, to
references written here for graphs whose cover is 0..k-1."""

import itertools
import random
import time

import pytest

from cardmso import corpus, oracle, solver, table_eval
from cardmso.errors import BudgetExceeded, WitnessError
from cardmso.formula import parse_formula, substitute_params
from cardmso.graph import Graph
from cardmso.solver import _Pipeline, check
from conftest import (
    assert_witness_valid, planted_cover, random_graph, rows_path, rows_verdict, star_graph,
    twin_class_graph,
)

BIP = parse_formula(corpus.bipartite_equal())
EQ3 = parse_formula(corpus.equitable_coloring(3))
IDS = parse_formula(corpus.independent_dominating())
MODES = ("vertex-cover", "neighborhood-diversity")


def enumeration_verdict(g: Graph, f, mode: str = "vertex-cover"):
    """check forced onto the enumeration path."""
    return _Pipeline(g, f, mode).run_decision()


# ------------------------------------------------- references, cover 0..k-1

def cover_colourings(g: Graph, k: int, colours: int):
    """Colourings of the cover 0..k-1 that no cover edge breaks."""
    for col in itertools.product(range(colours), repeat=k):
        if all(col[u] != col[v] for u, v in g.edges if v < k):
            yield col


def bipartite_equal_reference(g: Graph, k: int) -> bool:
    """Guess the cover's colours: each other vertex then takes the colour
    its neighbours lack (none if they have both), and the vertices with no
    neighbour settle the sizes by a count."""
    for col in cover_colourings(g, k, 2):
        sizes, free = [col.count(0), col.count(1)], 0
        for v in range(k, g.n):
            seen = {col[u] for u in g.adj[v]}
            if len(seen) == 2:
                break
            if seen:
                sizes[1 - seen.pop()] += 1
            else:
                free += 1
        else:
            if abs(sizes[0] - sizes[1]) <= free and (sum(sizes) + free) % 2 == 0:
                return True
    return False


def ids_reference(g: Graph, k: int) -> set[int]:
    """The sizes of independent dominating sets: one per independent part A
    of the cover, which forces in every other vertex with no neighbour in A
    and must dominate the rest of the cover."""
    sizes = set()
    for mask in range(1 << k):
        a = {u for u in range(k) if mask >> u & 1}
        if any(u in a and v in a for u, v in g.edges):
            continue
        x = a | {v for v in range(k, g.n) if not g.adj[v] & a}
        if all(g.adj[u] & x for u in range(k) if u not in x):
            sizes.add(len(x))
    return sizes


def equitable_reference(g: Graph, k: int, c: int = 3) -> bool:
    """Guess the cover's colours and the colour sizes; the other vertices
    fill the colours their neighbours leave them, which by Hall's theorem
    works iff no set S of colours is asked for more vertices (those allowed
    only colours of S) than S has room."""
    q, r = divmod(g.n, c)
    targets = set(itertools.permutations([q + 1] * r + [q] * (c - r)))
    for col in cover_colourings(g, k, c):
        allowed = [set(range(c)) - {col[u] for u in g.adj[v]} for v in range(k, g.n)]
        if not all(allowed):
            continue
        for target in targets:
            room = [t - col.count(i) for i, t in enumerate(target)]
            if min(room) >= 0 and all(
                sum(a <= set(s) for a in allowed) <= sum(room[i] for i in s)
                for size in range(1, c + 1) for s in itertools.combinations(range(c), size)
            ):
                return True
    return False


def valid_bipartite_equal(g: Graph, sets) -> bool:
    x1, x2 = sets
    return (
        not x1 & x2 and len(x1 | x2) == g.n and len(x1) == len(x2)
        and all((u in x1) != (v in x1) for u, v in g.edges)
    )


def valid_ids(g: Graph, sets, size: int) -> bool:
    (x,) = sets
    return (
        len(x) == size and not any(u in x and v in x for u, v in g.edges)
        and all(v in x or g.adj[v] & x for v in range(g.n))
    )


def valid_equitable(g: Graph, sets) -> bool:
    sizes = [len(p) for p in sets]
    return (
        sum(sizes) == len(set().union(*sets)) == g.n and max(sizes) - min(sizes) <= 1
        and not any(u in p and v in p for p in sets for u, v in g.edges)
    )


# -------------------------------------------------------------- the fragment

@pytest.mark.parametrize("text, fragment", [
    (corpus.bipartite_equal(), True),
    (corpus.equitable_coloring(3), True),
    (corpus.independent_dominating(), True),
    # negated existentials are universal, and -> flips its left side
    ("exists X. !(exists a. exists b. (a in X & b in X & adj(a, b))) & [|X| = 2]", True),
    ("exists X. forall b. ((forall a. !(a in X & adj(a, b))) -> b in X)", True),
    # two intervals, two directions, a set quantifier, an exists-forall
    # conjunct, three vertex variables, a quantifier under <->, X = Y
    ("exists X. ([|X| <= 1] | [3 <= |X|])", False),
    ("exists X. exists Y. ([|X| <= 1] | [|Y| <= 1])", False),
    (corpus.equitable_connected(3), False),
    ("exists X. exists a. forall b. (b in X -> a = b)", False),
    ("exists X. forall a. forall b. forall c. (adj(a, b) & adj(b, c) -> a in X)", False),
    ("exists X. forall a. (a in X <-> exists b. adj(a, b))", False),
    ("exists X. exists Y. X = Y", False),
])
def test_fragment_test_sorts_the_conjuncts(text, fragment):
    f = substitute_params(parse_formula(text), {"k": 1}) if "$" in text else parse_formula(text)
    g = planted_cover(random.Random(3), 2, 12)
    assert (rows_path(g, f).program is not None) == fragment


def test_check_routes_by_fragment_and_pinned_table():
    # the 39 leaves of a star outgrow the reduction, so check takes the rows
    # path (one program, nothing enumerated); a star with three leaves keeps
    # every vertex and fits one table, so it takes the enumeration path
    ids = substitute_params(IDS, {"k": 1})
    for leaves, rows in ((39, True), (3, False)):
        g = Graph.from_edges(40 if rows else 4, [(0, i) for i in range(1, leaves + 1)])
        stats = check(g, ids).stats
        assert (stats.ilp_solves == 1 and stats.prefix_assignments == stats.count_states == 0) == rows
        assert (stats.reduced_vertices == 0) == rows


def test_rows_grids_are_charged_to_the_cell_budget(monkeypatch):
    g = planted_cover(random.Random(1), 3, 40)
    cells = 2 * len(rows_path(g, BIP).cols.names) ** 2
    monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", cells)
    assert check(g, BIP).stats.ilp_solves == 1
    monkeypatch.setattr(table_eval, "DEFAULT_CELL_BUDGET", cells - 1)
    with pytest.raises(BudgetExceeded) as refused:
        check(g, BIP)
    assert (refused.value.kind, refused.value.limit, refused.value.used) == ("mso-cells", cells - 1, cells)


@pytest.mark.parametrize("seed", [1, 2])
def test_a_grouped_constraint_piece_takes_the_rows_path(seed):
    # ([1 <= |X1|] & [1 <= |X2|]) is one constraint-only piece over two
    # directions: each conjunct gets an interval of its own, where the
    # whole piece used to send the body to 20,412 count states (1.5 s)
    universal = (
        "exists X1. exists X2. (forall v. (v in X1 <-> !(v in X2)))"
        " & (forall u. forall v. (adj(u, v) -> ((u in X1 & v in X2) | (u in X2 & v in X1))))"
    )
    grouped = parse_formula(universal + " & ([1 <= |X1|] & [1 <= |X2|])")
    spine = parse_formula(universal + " & [1 <= |X1|] & [1 <= |X2|]")
    g = planted_cover(random.Random(seed), 2, 40)
    got, want = check(g, grouped), check(g, spine)
    assert (got.stats.count_states, got.stats.ilp_solves) == (0, 1)
    assert got.holds == want.holds == bipartite_equal_reference_nonempty(g)
    if got.holds:
        assert_witness_valid(g, grouped, got)


def bipartite_equal_reference_nonempty(g: Graph) -> bool:
    """Is g bipartite with both sides non-empty? (BFS 2-colouring; with
    two or more vertices and no edge, any split works.)"""
    colour: dict[int, int] = {}
    for start in range(g.n):
        if start in colour:
            continue
        colour[start], queue = 0, [start]
        for u in queue:
            for v in g.adj[u]:
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return g.n >= 2


def test_witness_is_checked_against_the_constraint_pieces(monkeypatch):
    # with every piece read as unbounded the program drops |X| = |Y|, and the
    # star's only colourings (1 against 39) fail the piece the body asks for
    g = Graph.from_edges(40, [(0, i) for i in range(1, 40)])
    assert not check(g, BIP).holds
    monkeypatch.setattr(solver._Rows, "_interval", lambda self, piece: (0, None, None))
    with pytest.raises(WitnessError):
        check(g, BIP)


# ---------------------------------------------------------- the encoding

# every vertex of X has a non-neighbour in X: a vertex's column witnesses
# itself through a twin, so the row for a column b reads 2 z_b <= ... + x_b
PAIRED = parse_formula(
    "exists X. [1 <= |X|] & (forall u. (u in X -> exists v. (v in X & !(u = v) & !adj(u, v))))"
)
# X is a clique: two false twins (or two of an independent nd class) fail
# it as a pair, so their column's count is capped at 1
CLIQUE = parse_formula(
    "exists X. [$k <= |X|] & (forall u. forall v. (u in X & v in X & !(u = v) -> adj(u, v)))"
)


@pytest.mark.parametrize("size", [1, 2, 3, 40])
@pytest.mark.parametrize("mode", ["vc", "nd"])
def test_twins_witness_each_other_and_cap_a_failing_pair(size, mode):
    """Edgeless graphs and stars whose leaves are one twin class of `size`
    vertices. Both families are triangle-free, so a clique has at most 2
    vertices, 1 with no edge; X with a non-neighbour for each member exists
    iff two vertices are not adjacent. Held to the oracle up to 8 vertices."""
    cases = [(PAIRED, lambda g: g.n * (g.n - 1) // 2 > len(g.edges))]
    cases += [
        (substitute_params(CLIQUE, {"k": k}), lambda g, k=k: k <= (2 if len(g.edges) else 1))
        for k in (1, 2, 3)
    ]
    for g in (Graph.from_edges(size, []), star_graph(size)):
        for f, defined in cases:
            want = defined(g)
            if g.n <= 8:
                assert oracle.brute_check(g, f) == want
            got = rows_verdict(g, f, mode)
            assert got.holds == want, (g.n, len(g.edges), f.body)
            if want:
                assert_witness_valid(g, f, got)


# ------------------------------------------------------------- correctness

FORMULAS = [BIP, EQ3] + [substitute_params(IDS, {"k": k}) for k in (1, 2, 3)]


@pytest.mark.acceptance
def test_rows_path_matches_the_oracle_in_both_modes():
    """Random graphs of 8 vertices and graphs with twin classes that
    reduction shrinks; the cardMSO oracle-equivalence criterion
    (test_acceptance.py) holds the rows path to the oracle on its connected
    graphs up to 6 vertices and random ones of 7."""
    rng = random.Random(2203)
    family = [random_graph(rng, 8, rng.uniform(0.2, 0.8)) for _ in range(4)]
    family += [twin_class_graph(rng, 7) for _ in range(60)]
    for g in family:
        for f in FORMULAS:
            want = oracle.brute_check(g, f)
            for mode in MODES:
                got = rows_verdict(g, f, mode)
                assert got.holds == want, (mode, f.prefix, g.edges)
                if want:
                    assert_witness_valid(g, f, got)


def test_rows_and_enumeration_paths_agree_up_to_twelve_vertices():
    """Planted covers with k <= 2 and random graphs of 9 vertices. The
    enumeration path lists equitable_coloring_3's count states on 11 or 12
    vertices in more than 20M typed evaluations once k = 3 or the graph is
    random, and takes seconds once k = 2, so that sentence runs on k = 1
    there."""
    rng = random.Random(1207)
    answers = set()
    for n in range(9, 13):
        cases = [(planted_cover(rng, 1, n), FORMULAS) for _ in range(2)]
        cases += [(planted_cover(rng, 2, n), FORMULAS if n == 9 else [BIP] + FORMULAS[2:]) for _ in range(2)]
        if n == 9:
            cases.append((random_graph(rng, n, rng.uniform(0.2, 0.5)), FORMULAS))
        for g, formulas in cases:
            for f in formulas:
                for mode in MODES:
                    rows, enumerated = rows_verdict(g, f, mode), enumeration_verdict(g, f, mode)
                    assert rows.holds == enumerated.holds, (mode, f.prefix, g.edges)
                    answers.add(rows.holds)
                    if rows.holds:
                        assert_witness_valid(g, f, rows)
                        assert_witness_valid(g, f, enumerated)
    assert answers == {True, False}


def twinned(g: Graph) -> Graph:
    """g with vertex 1 given vertex 0's neighbours and joined to it: in nd
    mode the two form one clique class, whose twin pairs break a proper
    colouring as soon as one colour takes both."""
    edges = [(u, v) for u, v in g.edges if 1 not in (u, v)]
    edges += [(0, 1)] + [(1, v) for v in g.adj[0] if v != 1]
    return Graph.from_edges(g.n, edges)


def sparse_cover(rng: random.Random, k: int, n: int) -> Graph:
    """Vertices 0..k-1 cover every edge, each cover/non-cover pair an edge
    with probability 0.15: many such graphs are bipartite with equal sides."""
    return Graph.from_edges(n, [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.15])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [100, 400])
def test_bipartite_equal_past_brute_force(k, n):
    """Planted covers answer as the reference does, after a relabelling and
    in both modes, and every witness is a bipartition with equal sides."""
    rng = random.Random(100 * k + n)
    answers = set()
    for _ in range(3):
        for g in (planted_cover(rng, k, n), sparse_cover(rng, k, n)):
            for h in (g, twinned(g)):
                want = bipartite_equal_reference(h, k)
                answers.add(want)
                perm = list(range(n))
                rng.shuffle(perm)
                for graph, mode in itertools.product((h, h.relabel(perm)), ("vc", "nd")):
                    verdict = check(graph, BIP, mode=mode)
                    assert verdict.holds == want, (mode, h.edges)
                    assert verdict.stats.ilp_solves == 1
                    if want:
                        assert valid_bipartite_equal(graph, verdict.witness.sets)
    assert answers == {True, False}


# ---------------------------------------------------------------- frontier

@pytest.mark.parametrize("k, n", [(3, 40), (3, 400), (4, 60)])
def test_frontier_bipartite_equal_and_ids_every_size(k, n):
    rng = random.Random(k * n)
    for g in (planted_cover(rng, k, n), sparse_cover(rng, k, n)):
        start = time.perf_counter()
        verdict = check(g, BIP)
        assert time.perf_counter() - start < 1
        assert verdict.holds == bipartite_equal_reference(g, k)
        if verdict.holds:
            assert valid_bipartite_equal(g, verdict.witness.sets)
        sizes = ids_reference(g, k)
        for size in range(n + 1):
            start = time.perf_counter()
            verdict = check(g, substitute_params(IDS, {"k": size}))
            assert time.perf_counter() - start < 1
            assert verdict.holds == (size in sizes), size
            if verdict.holds:
                assert valid_ids(g, verdict.witness.sets, size)


@pytest.mark.parametrize("k", [2, 3])
def test_frontier_equitable_coloring(k):
    answers = set()
    for seed in (1, 2, 3):
        g = planted_cover(random.Random(seed), k, 40)
        start = time.perf_counter()
        verdict = check(g, EQ3)
        assert time.perf_counter() - start < 1
        assert verdict.holds == equitable_reference(g, k)
        answers.add(verdict.holds)
        if verdict.holds:
            assert valid_equitable(g, verdict.witness.sets)
    assert True in answers


def test_references_agree_with_the_oracle():
    rng = random.Random(77)
    for _ in range(40):
        k = rng.randint(1, 3)
        g = planted_cover(rng, k, rng.randint(k, 7))
        assert bipartite_equal_reference(g, k) == oracle.brute_check(g, BIP)
        assert ids_reference(g, k) == {
            s for s in range(g.n + 1) if oracle.brute_check(g, substitute_params(IDS, {"k": s}))
        }
        if g.n <= 6:
            assert equitable_reference(g, k) == oracle.brute_check(g, EQ3)
