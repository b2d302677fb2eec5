"""Exception types shared across the package.

Every refused argument is an ``InvalidArgument`` whose message names the
fault, except an index outside the poset, which is an ``IndexOutOfRange``
(also an ``IndexError``). The classes that carry witness data as attributes,
so callers can render diagnostics without parsing messages, are the
order-axiom failures ``NotReflexive``, ``NotAntisymmetric`` and
``NotTransitive``, and ``NotMonotone``, ``BudgetExceeded``,
``TransportDefect`` and ``ParseError``.
"""


class FnLabError(Exception):
    """Base class for all fnlab errors."""


class InvalidArgument(FnLabError, ValueError):
    """An argument outside the hypotheses of a library function: a size,
    count, capacity or budget that is not a plain int or is below its least
    value, a generator outside the algebra, a map that is not total, a pair
    that is not valid or not on the cofactor's order, a map that is not a
    retraction, a degenerate cofactor, an element index that is not a plain
    int, a cofactor, base or ambient that is not a plain algebra, or an
    empty view."""


class NotReflexive(FnLabError):
    def __init__(self, x: int):
        self.x = x
        super().__init__(f"relation is not reflexive at element {x}")


class NotAntisymmetric(FnLabError):
    def __init__(self, x: int, y: int):
        self.x, self.y = x, y
        super().__init__(f"relation is not antisymmetric: {x} <= {y} and {y} <= {x}")


class NotTransitive(FnLabError):
    def __init__(self, x: int, y: int, z: int):
        self.x, self.y, self.z = x, y, z
        super().__init__(f"relation is not transitive: {x} <= {y} <= {z} but not {x} <= {z}")


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


class IndexOutOfRange(FnLabError, IndexError):
    pass


class NotMonotone(FnLabError):
    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        super().__init__(f"map is not order-preserving at {p} <= {q}")


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
