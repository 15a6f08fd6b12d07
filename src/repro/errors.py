"""Exception hierarchy for the vPBN reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Parsing errors carry enough position
information to point at the offending character.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlParseError(ReproError):
    """Raised when the XML parser encounters malformed input.

    :param message: human-readable description of the problem.
    :param position: character offset into the source string.
    :param line: 1-based line number of the problem.
    :param column: 1-based column number of the problem.
    """

    def __init__(self, message: str, position: int = 0, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class SpecParseError(ReproError):
    """Raised when a vDataGuide specification string is malformed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SpecResolutionError(ReproError):
    """Raised when a vDataGuide label cannot be resolved against the
    original DataGuide (unknown label, ambiguous unqualified label, ...)."""


class QueryParseError(ReproError):
    """Raised when a query string is malformed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class QueryEvaluationError(ReproError):
    """Raised when a well-formed query cannot be evaluated
    (unknown function, type error, unbound variable, ...)."""


class QueryBudgetExceeded(QueryEvaluationError):
    """Raised by the cost meter when a query exceeds its per-query cost
    budget (:mod:`repro.query.budget`).

    This is a *planner-enforced* rejection, not a timeout: the evaluator
    aborts the plan the moment the metered work crosses the limit, and
    the error is structured so serving tiers can return it to clients as
    machine-readable JSON.

    :ivar dimension: which limit was crossed (``"node_visits"`` or
        ``"step_rows"``).
    :ivar limit: the configured limit for that dimension.
    :ivar spent: the metered amount that crossed it.
    """

    def __init__(self, dimension: str, limit: int, spent: int, budget=None):
        super().__init__(
            f"query exceeded its cost budget: {spent} {dimension} > "
            f"limit {limit} (rejected by the cost meter, not a timeout)"
        )
        self.dimension = dimension
        self.limit = limit
        self.spent = spent
        self.budget = budget

    def to_json(self) -> dict:
        """The structured payload serving tiers return to clients."""
        report = {
            "code": "budget_exceeded",
            "dimension": self.dimension,
            "limit": self.limit,
            "spent": self.spent,
        }
        if self.budget is not None:
            report["budget"] = self.budget.to_json()
        return report


class StorageError(ReproError):
    """Raised on misuse of the storage engine (unknown page, full record,
    lookup of a number that was never indexed, ...)."""


class LineageError(StorageError):
    """Raised when an engine is asked to hold two versions of one document
    (two stores of one update lineage) under different uris.  Versions
    share their untouched nodes, so the engine could not tell which of
    the two documents such a node is in.

    :ivar uri: the uri the second version was to be attached under.
    :ivar attached_uri: the uri the engine holds the lineage under.
    """

    def __init__(self, uri: str, attached_uri: str):
        super().__init__(
            f"cannot attach {uri!r}: another version of the same document "
            f"is attached as {attached_uri!r} (one engine holds one version "
            "of a document; attach the new version under that uri)"
        )
        self.uri = uri
        self.attached_uri = attached_uri


class NumberingError(ReproError):
    """Raised on invalid PBN/vPBN construction or comparison
    (empty number, non-positive component, mismatched documents, ...)."""


class UpdateError(ReproError):
    """Raised when an update operation is invalid against the current
    store version (unknown target, deleting a root, inserting before an
    attribute, replacing text of an element, ...)."""
