"""Exception types shared across the package."""


class CardMSOError(Exception):
    """Base class for all solver errors."""


class GraphFormatError(CardMSOError):
    """Malformed graph file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormulaSyntaxError(CardMSOError):
    """Malformed formula text. Carries the 0-based character position."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"at position {pos}: {message}"
        super().__init__(message)


class FormulaStructureError(CardMSOError):
    """Well-formed syntax but illegal structure (unbound/shadowed variables,
    non-prefix variable in a cardinality constraint, missing parameter)."""


class InvalidCoverError(CardMSOError):
    """The supplied vertex set leaves some edge uncovered."""


class BudgetExceeded(CardMSOError):
    """A configurable work cap was hit (search nodes, table cells, shapes,
    pre-evaluations). Never a wrong answer, always an explicit refusal.
    used is how far the run got: the amount that passed the limit."""

    def __init__(self, kind: str, limit: int, used: int):
        self.kind = kind
        self.limit = limit
        self.used = used
        super().__init__(f"{kind} budget exceeded (limit {limit}, reached {used})")


class CoverBudgetExceeded(BudgetExceeded):
    """Minimum vertex cover is larger than the k_max budget. The search has
    ruled out every cover of at most k_max vertices, so used is k_max + 1."""

    def __init__(self, k_max: int):
        self.k_max = k_max
        super().__init__("vertex-cover", k_max, k_max + 1)


class WitnessError(CardMSOError):
    """Internal inconsistency while reconstructing a witness; indicates a bug."""
