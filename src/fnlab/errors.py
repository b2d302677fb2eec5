"""Exception types shared across the package.

Every refused argument is an ``InvalidArgument`` whose message names the
fault and its witness. A class of its own, or data beyond the message, is
kept only where a caller reads it: the CLI maps ``SizeExceeded`` to exit 3
and prints its ``partial`` frontier, prints ``TransportDefect.verdict`` and
exits 4, and sends ``ParseError`` to exit 2 with the line and column in the
message; the benchmark harness tells ``BudgetExceeded`` apart from other
failures, and the search tests log ``BudgetExceeded.nodes`` as a witness.
"""


class FnLabError(Exception):
    """Base class for all fnlab errors."""


class InvalidArgument(FnLabError, ValueError):
    """An argument outside the hypotheses of a library function: a size,
    count, capacity or budget that is not a plain int or is below its least
    value, a generator outside the algebra, a map that is not total, a pair
    that is not valid or not on the cofactor's order, a cover list with a
    cycle, a map that is not order-preserving, a map that is not a
    retraction, a degenerate cofactor, an index (of an element, a cover-edge
    end or a cofactor) that is not a plain int or lies outside its bound, a
    cofactor, base or ambient that is not a plain algebra, or an empty
    view."""


class SizeExceeded(FnLabError):
    """A construction or search would exceed its configured size cap.

    A frontier walk cut short this way attaches the boundary points it had
    already confirmed as ``partial``.
    """

    partial = None


class BudgetExceeded(SizeExceeded):
    """Search node budget ran out before the search space was exhausted.

    Distinct from a ``None`` search result: the question is left undecided.
    """

    def __init__(self, nodes: int, budget: int):
        self.nodes, self.budget = nodes, budget
        super().__init__(f"node budget exhausted ({nodes} nodes, budget {budget})")


class TransportDefect(FnLabError):
    """A transport construction produced an invalid pair.

    This cannot happen for valid inputs; it is surfaced as a distinguished
    internal-error class rather than an ordinary invalid verdict.
    """

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"transport output failed verification: {verdict.violation}")


class ParseError(FnLabError):
    """Malformed input file; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line, self.column = line, column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
