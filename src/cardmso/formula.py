"""Abstract syntax, parser and static analysis for MSO sentences with linear
cardinality constraints.

A sentence is `exists Z1 ... exists Zm. body` where the Zi (the prefix) are
the only variables allowed inside cardinality constraints. Constraints are
desugared at parse time so the constraint list holds <=-rows only:
[a = b] becomes [a <= b] and [b <= a], [a < b] becomes [a <= b] and not [b <= a].

Grammar (text form):
    set variables      identifiers starting uppercase
    vertex variables   identifiers starting lowercase
    parameters         $name (integers bound later)
    atoms              x in X | adj(x, y) | x = y | X = Y | true | false
    constraints        [ rho <= rho ] | [ rho = rho ] | [ rho < rho ]
    rho                int | $param | |X| | rho + rho
    connectives        not/!  and/&  or/|  ->  <->   (loosest to the right)
    quantifiers        exists a, B. expr   forall x. expr
    comments           # to end of line
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import FormulaStructureError, FormulaSyntaxError

# --------------------------------------------------------------------------- AST

@dataclass(frozen=True)
class TrueLit:
    pass


@dataclass(frozen=True)
class FalseLit:
    pass


@dataclass(frozen=True)
class Member:
    vertex: str
    set: str


@dataclass(frozen=True)
class Adjacent:
    a: str
    b: str


@dataclass(frozen=True)
class VertexEq:
    a: str
    b: str


@dataclass(frozen=True)
class SetEq:
    a: str
    b: str


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Implies:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Iff:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Quant:
    quantifier: str  # "exists" | "forall"
    var: str
    sort: str  # "vertex" | "set"
    child: "Node"


@dataclass(frozen=True)
class ConstraintRef:
    """Leaf standing for constraint index i of the owning Formula."""

    index: int


Node = Union[
    TrueLit, FalseLit, Member, Adjacent, VertexEq, SetEq,
    Not, And, Or, Implies, Iff, Quant, ConstraintRef,
]

# each binary connective on bit masks: bit i of the result is the connective
# of bit i of a and of b, where full has every bit in play set
CONNECTIVES = {
    And: lambda a, b, full: a & b,
    Or: lambda a, b, full: a | b,
    Implies: lambda a, b, full: (full ^ a) | b,
    Iff: lambda a, b, full: full ^ a ^ b,
}
_BINARY = tuple(CONNECTIVES)


@dataclass(frozen=True)
class Rho:
    """Linear side expression: an integer constant plus |Z| atoms plus named
    parameters (each tuple sorted, with multiplicity)."""

    const: int = 0
    sets: tuple[str, ...] = ()
    params: tuple[str, ...] = ()

    def value(self, sizes: Mapping[str, int]) -> int:
        if self.params:
            raise FormulaStructureError(
                f"unbound parameters {sorted(set(self.params))} in constraint"
            )
        return self.const + sum(sizes[s] for s in self.sets)

    def substitute(self, bindings: Mapping[str, int]) -> "Rho":
        extra = sum(bindings[p] for p in self.params)
        return Rho(self.const + extra, self.sets, ())


@dataclass(frozen=True)
class LinearConstraint:
    """lhs <= rhs; the only stored relation."""

    lhs: Rho
    rhs: Rho

    def holds(self, sizes: Mapping[str, int]) -> bool:
        return self.lhs.value(sizes) <= self.rhs.value(sizes)

    @property
    def param_names(self) -> frozenset[str]:
        return frozenset(self.lhs.params) | frozenset(self.rhs.params)

    @property
    def set_names(self) -> frozenset[str]:
        return frozenset(self.lhs.sets) | frozenset(self.rhs.sets)


@dataclass(frozen=True)
class Formula:
    """Prefix of existential set variables + body + constraint table."""

    prefix: tuple[str, ...]
    body: Node
    constraints: tuple[LinearConstraint, ...]

    @property
    def m(self) -> int:
        return len(self.prefix)

    @property
    def free_params(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.constraints:
            out |= c.param_names
        return frozenset(out)


@dataclass(frozen=True)
class FormulaStats:
    m: int
    q_S: int
    q_v: int

    @property
    def small_threshold(self) -> int:
        return (1 << self.q_S) * max(self.q_v, 1)

    @property
    def reduce_threshold(self) -> int:
        return (1 << (self.q_S + self.m)) * max(self.q_v, 1)


PreEvaluation = tuple[bool, ...]


def walk(node: Node) -> Iterator[Node]:
    yield node
    if isinstance(node, Not):
        yield from walk(node.child)
    elif isinstance(node, _BINARY):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Quant):
        yield from walk(node.child)


def sentence(f: Formula) -> Node:
    """The body under its prefix: `exists Z1 ... exists Zm. body`."""
    node = f.body
    for var in reversed(f.prefix):
        node = Quant("exists", var, "set", node)
    return node


def set_vars(node: Node, first: tuple[str, ...] = ()) -> list[str]:
    """The set-variable names of node in first-occurrence order, after first."""
    names = dict.fromkeys(first)
    for sub in walk(node):
        if isinstance(sub, Quant) and sub.sort == "set":
            names.setdefault(sub.var)
        elif isinstance(sub, Member):
            names.setdefault(sub.set)
        elif isinstance(sub, SetEq):
            names.setdefault(sub.a)
            names.setdefault(sub.b)
    return list(names)


def free_vars(node: Node, memo: dict) -> tuple[frozenset[str], frozenset[str]]:
    """(set names, vertex names) free in node. memo maps id(node) to
    (node, answer); holding the node keeps its id from being reused while
    the memo lives."""
    got = memo.get(id(node))
    if got is not None:
        return got[1]
    if isinstance(node, Member):
        out = (frozenset([node.set]), frozenset([node.vertex]))
    elif isinstance(node, (Adjacent, VertexEq)):
        out = (frozenset(), frozenset([node.a, node.b]))
    elif isinstance(node, SetEq):
        out = (frozenset([node.a, node.b]), frozenset())
    elif isinstance(node, Not):
        out = free_vars(node.child, memo)
    elif isinstance(node, _BINARY):
        ls, lv = free_vars(node.left, memo)
        rs, rv = free_vars(node.right, memo)
        out = (ls | rs, lv | rv)
    elif isinstance(node, Quant):
        cs, cv = free_vars(node.child, memo)
        out = (cs - {node.var}, cv) if node.sort == "set" else (cs, cv - {node.var})
    else:
        out = (frozenset(), frozenset())
    memo[id(node)] = (node, out)
    return out


# --------------------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<int>-?\d+)
    | (?P<arrow><->|->|<=|<|=)
    | (?P<punct>[().,\[\]|&!+$])
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"exists", "forall", "in", "adj", "true", "false", "and", "or", "not"}


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(0), pos))
        pos = m.end()
    out.append(_Token("eof", "", pos))
    return out


def _is_set_name(name: str) -> bool:
    return name[0].isupper()


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.constraints: list[LinearConstraint] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.pos)
        return tok

    # expr := iff; iff := imp ('<->' imp)*; imp := or ('->' imp)?
    def parse_expr(self) -> Node:
        node = self.parse_implies()
        while self.peek().text == "<->":
            self.next()
            node = Iff(node, self.parse_implies())
        return node

    def parse_implies(self) -> Node:
        node = self.parse_or()
        if self.peek().text == "->":
            self.next()
            return Implies(node, self.parse_implies())
        return node

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.peek().text in ("or", "|"):
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_unary()
        while self.peek().text in ("and", "&"):
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.text in ("not", "!"):
            self.next()
            return Not(self.parse_unary())
        if tok.text in ("exists", "forall"):
            return self.parse_quant()
        return self.parse_atom()

    def parse_quant(self) -> Node:
        # the dot scopes maximally: `forall x. a & b` binds x in both conjuncts
        q = self.next().text
        names = [self.parse_name()]
        while self.peek().text == ",":
            self.next()
            names.append(self.parse_name())
        self.expect(".")
        node = self.parse_expr()
        for name in reversed(names):
            sort = "set" if _is_set_name(name) else "vertex"
            node = Quant(q, name, sort, node)
        return node

    def parse_name(self) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            raise FormulaSyntaxError(f"expected variable name, got {tok.text!r}", tok.pos)
        return tok.text

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.text == "[":
            return self.parse_constraint()
        if tok.text == "true":
            self.next()
            return TrueLit()
        if tok.text == "false":
            self.next()
            return FalseLit()
        if tok.text == "adj":
            self.next()
            self.expect("(")
            a = self.parse_name()
            self.expect(",")
            b = self.parse_name()
            self.expect(")")
            for v in (a, b):
                if _is_set_name(v):
                    raise FormulaSyntaxError(f"adj argument {v!r} must be a vertex", tok.pos)
            return Adjacent(a, b)
        if tok.kind == "name":
            left = self.parse_name()
            op = self.peek()
            if op.text == "in":
                self.next()
                right = self.parse_name()
                if _is_set_name(left) or not _is_set_name(right):
                    raise FormulaSyntaxError("membership is `vertex in Set`", op.pos)
                return Member(left, right)
            if op.text == "=":
                self.next()
                right = self.parse_name()
                if _is_set_name(left) != _is_set_name(right):
                    raise FormulaSyntaxError("equality needs matching sorts", op.pos)
                if _is_set_name(left):
                    return SetEq(left, right)
                return VertexEq(left, right)
            raise FormulaSyntaxError(f"dangling name {left!r}", op.pos)
        raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def parse_constraint(self) -> Node:
        self.expect("[")
        lhs = self.parse_rho()
        rel = self.next()
        if rel.text not in ("<=", "=", "<"):
            raise FormulaSyntaxError(f"expected <=, = or < in constraint, got {rel.text!r}", rel.pos)
        rhs = self.parse_rho()
        self.expect("]")
        i = len(self.constraints)
        if rel.text == "<=":
            self.constraints.append(LinearConstraint(lhs, rhs))
            return ConstraintRef(i)
        self.constraints.append(LinearConstraint(lhs, rhs))
        self.constraints.append(LinearConstraint(rhs, lhs))
        if rel.text == "=":
            return And(ConstraintRef(i), ConstraintRef(i + 1))
        return And(ConstraintRef(i), Not(ConstraintRef(i + 1)))

    def parse_rho(self) -> Rho:
        const = 0
        sets: list[str] = []
        params: list[str] = []
        while True:
            tok = self.next()
            if tok.kind == "int":
                const += int(tok.text)
            elif tok.text == "$":
                params.append(self.parse_name())
            elif tok.text == "|":
                name = self.parse_name()
                if not _is_set_name(name):
                    raise FormulaSyntaxError(f"cardinality of non-set {name!r}", tok.pos)
                self.expect("|")
                sets.append(name)
            else:
                raise FormulaSyntaxError(f"bad term {tok.text!r} in constraint", tok.pos)
            if self.peek().text != "+":
                break
            self.next()
        return Rho(const, tuple(sorted(sets)), tuple(sorted(params)))


def _check_bindings(node: Node, bound_sets: set[str], bound_vertices: set[str]) -> None:
    if isinstance(node, Quant):
        pool = bound_sets if node.sort == "set" else bound_vertices
        if node.var in bound_sets or node.var in bound_vertices:
            raise FormulaStructureError(f"variable {node.var!r} shadows an outer binding")
        pool.add(node.var)
        _check_bindings(node.child, bound_sets, bound_vertices)
        pool.discard(node.var)
    elif isinstance(node, Not):
        _check_bindings(node.child, bound_sets, bound_vertices)
    elif isinstance(node, _BINARY):
        _check_bindings(node.left, bound_sets, bound_vertices)
        _check_bindings(node.right, bound_sets, bound_vertices)
    elif isinstance(node, Member):
        if node.vertex not in bound_vertices:
            raise FormulaStructureError(f"unbound vertex variable {node.vertex!r}")
        if node.set not in bound_sets:
            raise FormulaStructureError(f"unbound set variable {node.set!r}")
    elif isinstance(node, Adjacent):
        for v in (node.a, node.b):
            if v not in bound_vertices:
                raise FormulaStructureError(f"unbound vertex variable {v!r}")
    elif isinstance(node, VertexEq):
        for v in (node.a, node.b):
            if v not in bound_vertices:
                raise FormulaStructureError(f"unbound vertex variable {v!r}")
    elif isinstance(node, SetEq):
        for s in (node.a, node.b):
            if s not in bound_sets:
                raise FormulaStructureError(f"unbound set variable {s!r}")


def parse_formula(text: str) -> Formula:
    """Parse and validate a sentence; the prefix is the maximal leading block
    of existential set quantifiers."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)

    prefix: list[str] = []
    while isinstance(node, Quant) and node.quantifier == "exists" and node.sort == "set":
        if node.var in prefix:
            raise FormulaStructureError(f"variable {node.var!r} shadows an outer binding")
        prefix.append(node.var)
        node = node.child

    f = Formula(tuple(prefix), node, tuple(parser.constraints))
    _check_bindings(node, set(prefix), set())
    allowed = set(prefix)
    for c in f.constraints:
        bad = c.set_names - allowed
        if bad:
            raise FormulaStructureError(
                f"constraint mentions non-prefix variables {sorted(bad)}"
            )
    return f


# --------------------------------------------------------------------------- printing

def _format_rho(r: Rho) -> str:
    parts = [f"|{s}|" for s in r.sets] + [f"${p}" for p in r.params]
    if r.const or not parts:
        parts.append(str(r.const))
    return " + ".join(parts)


def format_node(node: Node, constraints: tuple[LinearConstraint, ...]) -> str:
    if isinstance(node, TrueLit):
        return "true"
    if isinstance(node, FalseLit):
        return "false"
    if isinstance(node, Member):
        return f"{node.vertex} in {node.set}"
    if isinstance(node, Adjacent):
        return f"adj({node.a}, {node.b})"
    if isinstance(node, (VertexEq, SetEq)):
        return f"{node.a} = {node.b}"
    if isinstance(node, Not):
        return f"!({format_node(node.child, constraints)})"
    if isinstance(node, And):
        return f"({format_node(node.left, constraints)} & {format_node(node.right, constraints)})"
    if isinstance(node, Or):
        return f"({format_node(node.left, constraints)} | {format_node(node.right, constraints)})"
    if isinstance(node, Implies):
        return f"({format_node(node.left, constraints)} -> {format_node(node.right, constraints)})"
    if isinstance(node, Iff):
        return f"({format_node(node.left, constraints)} <-> {format_node(node.right, constraints)})"
    if isinstance(node, Quant):
        # parenthesised so the maximal dot scope survives a round trip
        return f"({node.quantifier} {node.var}. {format_node(node.child, constraints)})"
    if isinstance(node, ConstraintRef):
        c = constraints[node.index]
        return f"[{_format_rho(c.lhs)} <= {_format_rho(c.rhs)}]"
    raise TypeError(f"unknown node {node!r}")


def format_formula(f: Formula) -> str:
    body = format_node(f.body, f.constraints)
    for var in reversed(f.prefix):
        body = f"exists {var}. ({body})"
    return body


# --------------------------------------------------------------------------- analysis

def analyze(f: Formula) -> FormulaStats:
    """Exact variable counts: m from the prefix, q_S and q_v from distinct
    quantified names in the body."""
    set_names: set[str] = set()
    vertex_names: set[str] = set()
    for node in walk(f.body):
        if isinstance(node, Quant):
            (set_names if node.sort == "set" else vertex_names).add(node.var)
    return FormulaStats(f.m, len(set_names), len(vertex_names))


def substitute_params(f: Formula, bindings: Mapping[str, int]) -> Formula:
    """Replace every parameter by its integer; result is parameter-free."""
    free = f.free_params
    missing = free - set(bindings)
    if missing:
        raise FormulaStructureError(f"missing parameter bindings: {sorted(missing)}")
    unknown = set(bindings) - free
    if unknown:
        warnings.warn(f"bindings for unknown parameters ignored: {sorted(unknown)}")
    new = tuple(
        LinearConstraint(c.lhs.substitute(bindings), c.rhs.substitute(bindings))
        for c in f.constraints
    )
    return Formula(f.prefix, f.body, new)


def pre_evaluate(f: Formula, alpha: PreEvaluation) -> Formula:
    """Replace constraint leaf i by the boolean alpha[i]; the result is a pure
    MSO sentence with the same prefix."""
    if len(alpha) != len(f.constraints):
        raise ValueError(
            f"pre-evaluation has {len(alpha)} entries, formula has {len(f.constraints)} constraints"
        )

    def rewrite(node: Node) -> Node:
        if isinstance(node, ConstraintRef):
            return TrueLit() if alpha[node.index] else FalseLit()
        if isinstance(node, Not):
            return Not(rewrite(node.child))
        if isinstance(node, _BINARY):
            return type(node)(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Quant):
            return Quant(node.quantifier, node.var, node.sort, rewrite(node.child))
        return node

    return Formula(f.prefix, rewrite(f.body), ())


def constraint_truths(f: Formula, sizes: Mapping[str, int]) -> PreEvaluation:
    """Numeric truth of every constraint under the given |Z| sizes; the unique
    pre-evaluation the assignment complies with."""
    return tuple(c.holds(sizes) for c in f.constraints)
