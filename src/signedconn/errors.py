"""Exception hierarchy shared by all modules."""


class SignedGraphError(Exception):
    """Base class for all errors raised by this package."""


class VertexOutOfRange(SignedGraphError):
    """A vertex id is not in range 0..n-1."""


class EdgeOutOfRange(SignedGraphError):
    """An edge id is not in range 0..m-1."""


class InvalidWalk(SignedGraphError):
    """A walk is not incidence-consistent or references a bad edge id."""


class PreconditionError(SignedGraphError):
    """An operation was called on a graph outside its stated domain."""


class NotSignConnected(PreconditionError):
    """The requested witness pair does not exist."""


class NotABlock(SignedGraphError):
    """The given edge set is not a block of the graph."""


class CycleBudgetExceeded(SignedGraphError):
    """A cycle enumeration passed its cap, `matroid.DEFAULT_CYCLE_BUDGET`."""


class GraphSyntaxError(SignedGraphError):
    """A graph file could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        # the default would call __init__ with the formatted text alone
        return type(self), (self.line, self.message)
