"""Builders for the shipped formula corpus.

All builders return formula text in the package grammar; parse with
formula.parse_formula. Part variables are generated as P1, P2, ... so any c
works uniformly.
"""

from __future__ import annotations

from .formula import Formula, parse_formula


def _part_names(c: int) -> list[str]:
    return [f"P{i + 1}" for i in range(c)]


def _exactly_one(x: str, parts: list[str]) -> str:
    """x belongs to exactly one of the parts."""
    some = " | ".join(f"{x} in {p}" for p in parts)
    no_two = " & ".join(
        f"!({x} in {parts[i]} & {x} in {parts[j]})"
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
    )
    if not no_two:
        return f"({some})"
    return f"(({some}) & {no_two})"


def _equi(a: str, b: str) -> str:
    """Sizes of a and b differ by at most one."""
    return f"([|{a}| <= |{b}| + 1] & [|{b}| <= |{a}| + 1])"


def _equi_all(parts: list[str]) -> str:
    pairs = [
        _equi(parts[i], parts[j])
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
    ]
    return " & ".join(pairs)


def bipartite_equal() -> str:
    """Graph is bipartite with both colour classes of the same size."""
    return (
        "exists X1. exists X2.\n"
        "  (forall v. (v in X1 <-> !(v in X2)))\n"
        "  & [|X1| = |X2|]\n"
        "  & (forall u. forall v. (adj(u, v) ->\n"
        "      ((u in X1 & v in X2) | (u in X2 & v in X1))))\n"
    )


def equitable_coloring(c: int) -> str:
    """Proper c-colouring with colour classes of sizes differing by <= 1."""
    if c < 1:
        raise ValueError("c must be >= 1")
    parts = _part_names(c)
    quants = " ".join(f"exists {p}." for p in parts)
    partition = f"(forall x. {_exactly_one('x', parts)})"
    same_part = " | ".join(f"(x in {p} & y in {p})" for p in parts)
    independent = f"(forall x. forall y. (({same_part}) -> !adj(x, y)))"
    pieces = [partition, independent]
    if c >= 2:
        pieces.append(_equi_all(parts))
    return f"{quants}\n  " + "\n  & ".join(pieces) + "\n"


def connected_predicate(set_name: str) -> str:
    """Every nonempty proper subset of set_name has an edge to the rest of it."""
    u = set_name
    return (
        f"(forall T. ((forall x. (x in T -> x in {u})) ->\n"
        f"     (T = {u} | !(exists a. a in T)\n"
        f"      | (exists a. exists b. (a in {u} & !(a in T) & b in T & adj(a, b))))))"
    )


def equitable_partition(c: int) -> str:
    """Partition into c parts of sizes differing by <= 1 (no other demands);
    the base sentence for balanced partitioning."""
    if c < 1:
        raise ValueError("c must be >= 1")
    parts = _part_names(c)
    quants = " ".join(f"exists {p}." for p in parts)
    partition = f"(forall x. {_exactly_one('x', parts)})"
    pieces = [partition]
    if c >= 2:
        pieces.append(_equi_all(parts))
    return f"{quants}\n  " + "\n  & ".join(pieces) + "\n"


def equitable_connected(c: int) -> str:
    """Partition into c connected parts of sizes differing by <= 1."""
    if c < 1:
        raise ValueError("c must be >= 1")
    parts = _part_names(c)
    quants = " ".join(f"exists {p}." for p in parts)
    partition = f"(forall x. {_exactly_one('x', parts)})"
    pieces = [partition] + [connected_predicate(p) for p in parts]
    if c >= 2:
        pieces.append(_equi_all(parts))
    return f"{quants}\n  " + "\n  & ".join(pieces) + "\n"


def independent_dominating() -> str:
    """Independent dominating set of size $k (bind k before solving)."""
    return (
        "exists X.\n"
        "  (forall a. forall b. ((a in X & b in X) -> !adj(a, b)))\n"
        "  & (forall b. (b in X | (exists a. (a in X & adj(a, b)))))\n"
        "  & [|X| = $k]\n"
    )


def independence_body() -> str:
    """No edge inside the carrier; used as an MSO partitioning target."""
    return "forall u. forall v. !adj(u, v)\n"


def clique_body() -> str:
    """All distinct vertices adjacent; used as an MSO partitioning target."""
    return "forall u. forall v. (u = v | adj(u, v))\n"


CORPUS_FILES = {
    "bipartite_equal.cms": bipartite_equal,
    "equitable_coloring_3.cms": lambda: equitable_coloring(3),
    "equitable_connected_3.cms": lambda: equitable_connected(3),
    "ids_k.cms": independent_dominating,
    "independence.cms": independence_body,
    "clique.cms": clique_body,
}


def write_corpus(directory) -> list[str]:
    """Write every corpus file into directory; returns the file names."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in CORPUS_FILES.items():
        (directory / name).write_text(builder())
        written.append(name)
    return written


def load(name_or_builder: str, **params) -> Formula:
    """Parse a corpus formula by short name, e.g. load("equitable_coloring", c=3)."""
    table = {
        "bipartite_equal": bipartite_equal,
        "equitable_coloring": lambda: equitable_coloring(params.pop("c")),
        "equitable_connected": lambda: equitable_connected(params.pop("c")),
        "ids": independent_dominating,
        "independence": independence_body,
        "clique": clique_body,
    }
    return parse_formula(table[name_or_builder]())
