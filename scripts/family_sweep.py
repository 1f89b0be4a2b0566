#!/usr/bin/env python3
"""Sweep a random graph family and compare the solvers with the brute-force
references. Handy for shaking out regressions at sizes beyond the unit tests.
Every other graph is a planted vertex cover of size at most 2, whose large
twin classes the solvers shrink; the rest are dense random graphs.

Examples:
  python scripts/family_sweep.py --problem check --max-n 7 --count 50
  python scripts/family_sweep.py --problem cbalance --max-n 8 --count 30 -c 2 3
"""

import argparse
import random
import sys
import time

from cardmso import corpus, oracle
from cardmso.balanced import cbalanced
from cardmso.formula import parse_formula, substitute_params
from cardmso.graph import Graph
from cardmso.partitioning import PartitionInstance, mso_partition
from cardmso.solver import check


def random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.uniform(0.2, 0.8)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def planted_cover(rng: random.Random, n: int) -> Graph:
    """Vertices 0..k-1 (k <= 2) cover every edge; each pair touching them is
    an edge with probability 1/2."""
    k = rng.randint(0, min(2, n))
    edges = [(u, v) for u in range(k) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", choices=["check", "partition", "cbalance"], default="check")
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-c", type=int, nargs="*", default=[2, 3])
    args = parser.parse_args()
    rng = random.Random(args.seed)

    formulas = {
        "bipartite-equal": parse_formula(corpus.bipartite_equal()),
        "equitable-3-coloring": parse_formula(corpus.equitable_coloring(3)),
        "ids-k2": substitute_params(parse_formula(corpus.independent_dominating()), {"k": 2}),
    }
    indep = parse_formula(corpus.independence_body())

    start = time.time()
    mismatches = instances = 0
    for i in range(args.count):
        draw = planted_cover if i % 2 else random_graph
        g = draw(rng, rng.randint(1, args.max_n))
        if args.problem == "check":
            for name, f in formulas.items():
                want = oracle.brute_check(g, f)
                got = check(g, f).holds
                instances += 1
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH {name} n={g.n} edges={g.edges}")
        elif args.problem == "partition":
            for r in range(1, g.n + 1):
                want = oracle.brute_partition(g, indep, r)
                got = mso_partition(g, PartitionInstance(indep, r)).holds
                instances += 1
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH r={r} n={g.n} edges={g.edges}")
        else:
            for c in args.c:
                want = oracle.brute_cbalanced(g, c)
                got = cbalanced(g, c).cut_value
                instances += 1
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH c={c} n={g.n} edges={g.edges}")
    print(f"{instances} instances, {mismatches} mismatches, {time.time() - start:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
