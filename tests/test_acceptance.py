"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Graph families:
  - all non-isomorphic connected graphs with <= 6 vertices (143, includes the
    112 six-vertex ones) from the networkx atlas,
  - all connected graphs with <= 7 vertices (996) for the balanced criterion,
  - seeded random graphs of 7 and 8 vertices,
  - padded stars and complete bipartite graphs up to 30 vertices for the
    shrinking property (capped at 14 for the two three-prefix-variable bodies,
    where exact checking beyond that is out of reach; their deletion threshold
    is far exceeded either way).

Witness integrity is asserted throughout and reported as its own criterion.
"""

import random
import time

from cardmso import corpus, oracle
from cardmso.formula import analyze, parse_formula, pre_evaluate, substitute_params
from cardmso.graph import Graph, nd_partition
from cardmso.ilp import solve_feasibility, solve_min
from cardmso.mso_eval import mso_check
from cardmso.partitioning import PartitionInstance, mso_partition
from cardmso.balanced import cbalanced
from cardmso.solver import check
from conftest import (
    assert_witness_valid, atlas_connected, complete_bipartite, complete_graph,
    cycle_graph, path_graph, planted_cover, random_graph, rows_verdict, star_graph,
)

WITNESS_CHECKS = {"count": 0}


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_family(seed: int, n: int, count: int) -> list[Graph]:
    rng = random.Random(seed)
    return [random_graph(rng, n, rng.uniform(0.2, 0.8)) for _ in range(count)]


def _checked(g, f, **kw):
    verdict = check(g, f, **kw)
    if verdict.holds:
        assert_witness_valid(g, f, verdict)
        WITNESS_CHECKS["count"] += 1
    return verdict


class TestAcceptance:
    def test_criterion_cardmso_oracle_equivalence(self):
        start = time.time()
        family = list(atlas_connected(6)) + _random_family(7101, 7, 200)
        formulas = {
            "bipartite-equal": parse_formula(corpus.bipartite_equal()),
            "equitable-3-coloring": parse_formula(corpus.equitable_coloring(3)),
            "equitable-connected-3": parse_formula(corpus.equitable_connected(3)),
        }
        ids = parse_formula(corpus.independent_dominating())
        for k in (1, 2, 3):
            formulas[f"ids-k{k}"] = substitute_params(ids, {"k": k})
        total = mismatches = 0
        for g in family:
            for name, f in formulas.items():
                want = oracle.brute_check(g, f)
                got = [_checked(g, f)]
                # these graphs fit one truth table, so check takes the
                # enumeration path; the rows path is forced, in both modes
                if name != "equitable-connected-3":
                    got += [rows_verdict(g, f, mode) for mode in ("vc", "nd")]
                    for verdict in got[1:]:
                        if verdict.holds:
                            assert_witness_valid(g, f, verdict)
                total += 1
                if any(verdict.holds != want for verdict in got):
                    mismatches += 1
                    print(f"  mismatch: {name} on n={g.n} edges={g.edges}")
        _report(
            "cardMSO oracle equivalence",
            mismatches == 0,
            f"{total} instances, {len(family)} graphs, {time.time() - start:.0f}s",
        )

    def test_criterion_partitioning_oracle_equivalence(self):
        start = time.time()
        family = atlas_connected(6)
        indep = parse_formula(corpus.independence_body())
        clique = parse_formula(corpus.clique_body())
        total = mismatches = chromatic_bad = 0
        for g in family:
            min_r = None
            for r in range(1, g.n + 1):
                for phi in (indep, clique):
                    want = oracle.brute_partition(g, phi, r)
                    got = mso_partition(g, PartitionInstance(phi, r))
                    total += 1
                    if got.holds != want:
                        mismatches += 1
                    if got.holds and phi is indep and min_r is None:
                        min_r = r
            brute_chi = next(
                r for r in range(1, g.n + 1) if oracle.brute_partition(g, indep, r)
            )
            if min_r != brute_chi:
                chromatic_bad += 1
        _report(
            "MSO partitioning oracle equivalence",
            mismatches == 0 and chromatic_bad == 0,
            f"{total} instances; chromatic check on {len(family)} graphs, "
            f"{time.time() - start:.0f}s",
        )

    def test_criterion_cbalanced_oracle_equivalence(self):
        start = time.time()
        family = list(atlas_connected(7)) + _random_family(8202, 8, 100)
        spot = [
            (path_graph(4), 2, 1),
            (complete_graph(4), 2, 4),
            (cycle_graph(6), 2, 2),
        ]
        for g, c, want in spot:
            got = cbalanced(g, c)
            assert got.cut_value == want, f"spot value failed: c={c} want={want}"
        total = mismatches = 0
        for g in family:
            for c in (2, 3):
                want = oracle.brute_cbalanced(g, c)
                got = cbalanced(g, c)
                total += 1
                if got.cut_value != want:
                    mismatches += 1
                    print(f"  mismatch: c={c} n={g.n} edges={g.edges} "
                          f"want={want} got={got.cut_value}")
                WITNESS_CHECKS["count"] += 1  # recount + equitability asserted inside
        _report(
            "c-balanced oracle equivalence",
            mismatches == 0,
            f"{total} instances, {len(family)} graphs, {time.time() - start:.0f}s",
        )

    def test_criterion_shrinking_property(self):
        # the deletion threshold counts every set variable of the checked
        # sentence, prefix included: K3 -> K2 under bipartite-equal flips the
        # verdict at type size 3, so the body-only count 2 is not licensed
        start = time.time()
        bodies = {
            "bipartite-equal": pre_evaluate(
                parse_formula(corpus.bipartite_equal()), (True, True)
            ),
            "equitable-3-coloring": pre_evaluate(
                parse_formula(corpus.equitable_coloring(3)), (True,) * 6
            ),
            "equitable-connected-3": pre_evaluate(
                parse_formula(corpus.equitable_connected(3)), (True,) * 6
            ),
            "ids-k2": pre_evaluate(
                substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2}),
                (True, True),
            ),
        }
        total = violations = 0
        per_body = {}
        for name, body in bodies.items():
            st = analyze(body)
            threshold = (1 << (st.m + st.q_S)) * max(st.q_v, 1)
            graphs = list(atlas_connected(6))
            for n in (10, 16, 22, 30):
                graphs.append(star_graph(n - 1))
                graphs.append(complete_bipartite(2, n - 2))
                graphs.append(complete_bipartite(n // 2, n - n // 2))
            if threshold >= 30:
                # nothing at the stated 30-vertex cap clears this threshold;
                # exercise the body on wider stars so the run is not vacuous
                graphs.append(star_graph(threshold + 1))
                graphs.append(complete_bipartite(2, threshold + 1))
            deletions = 0
            for g in graphs:
                types = nd_partition(g).types
                fat = [members for members in types if len(members) > threshold]
                if not fat:
                    continue
                base = mso_check(g, body)
                for members in fat:
                    # same-type vertices are interchangeable: deleting any one
                    # of them yields isomorphic graphs, so one deletion decides
                    shrunk, _ = g.induced([v for v in range(g.n) if v != members[-1]])
                    total += 1
                    deletions += 1
                    if mso_check(shrunk, body) != base:
                        violations += 1
                        print(f"  violation: {name} n={g.n} edges={g.edges}")
            per_body[name] = deletions
        _report(
            "shrinking preserves verdicts",
            violations == 0 and all(per_body.values()),
            f"{total} deletions {per_body}, {time.time() - start:.0f}s",
        )

    def test_criterion_ilp_exactness(self):
        from test_ilp import grid_solve, random_instance

        start = time.time()
        rng = random.Random(0xACCE97)
        bad = 0
        for i in range(1000):
            spec = random_instance(rng, with_objective=(i % 2 == 0))
            want_feasible, want_min = grid_solve(spec)
            if spec.objective is not None:
                got = solve_min(spec.program())
                ok = (
                    (got.status == "optimal") == want_feasible
                    and (not want_feasible or got.objective_value == want_min)
                )
            else:
                got = solve_feasibility(spec.program())
                ok = (got.status == "feasible") == want_feasible
            if not ok:
                bad += 1
        _report("ILP solver exactness", bad == 0, f"1000 instances, {time.time() - start:.0f}s")

    def test_criterion_scaling_sanity(self):
        f = parse_formula(corpus.bipartite_equal())
        timings = {}
        for n in (8, 16, 32, 64, 128):
            g = star_graph(n)
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                verdict = check(g, f)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
                assert verdict.holds is False  # parts 1 and n can never match
            timings[n] = best
        ratio = timings[128] / timings[8]
        _report(
            "fixed-parameter scaling",
            ratio <= 64,
            "ratio %.2f; " % ratio
            + ", ".join(f"n={n}: {t * 1000:.1f}ms" for n, t in timings.items()),
        )

    def test_criterion_relabel_invariance_past_brute_force(self):
        # planted covers with k = 2 and n in {100, 400}, far past the brute
        # oracles: a random renaming of the vertices keeps every answer
        start = time.time()
        indep = parse_formula(corpus.independence_body())
        clique = parse_formula(corpus.clique_body())
        rng = random.Random(0x5EED)
        bad = checked = 0
        for n in (100, 400):
            g = planted_cover(rng, 2, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            pairs = [(cbalanced(g, 2).cut_value, cbalanced(h, 2).cut_value)]
            for phi in (indep, clique):
                for r in (2, 3):
                    inst = PartitionInstance(phi, r)
                    pairs.append((mso_partition(g, inst).holds, mso_partition(h, inst).holds))
            bad += sum(a != b for a, b in pairs)
            checked += len(pairs)
        _report(
            "relabel invariance past brute force", bad == 0,
            f"{checked} answers, {time.time() - start:.0f}s",
        )

    def test_criterion_witness_integrity(self):
        # populated by the equivalence criteria above (pytest runs this class
        # in declaration order); re-validate a fresh sample here so the
        # criterion also stands alone
        rng = random.Random(31337)
        f = parse_formula(corpus.bipartite_equal())
        ids2 = substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2})
        fresh = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 6))
            for formula in (f, ids2):
                verdict = check(g, formula)
                if verdict.holds:
                    assert_witness_valid(g, formula, verdict)
                    fresh += 1
        total = WITNESS_CHECKS["count"] + fresh
        _report("witness integrity", fresh > 0, f"{total} witnesses re-validated")
