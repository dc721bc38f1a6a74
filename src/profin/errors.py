"""Shared exception types."""


class CapExhausted(RuntimeError):
    """A bounded search ran out of budget before deciding the question.

    Distinct from a proven-negative result: callers that receive ``None``
    from a search know no witness exists, while this exception means the
    answer is unknown at the given cap.  ``stats`` says how far the search
    got; the map search fills ``nodes`` (assignment attempts made) and
    ``deepest`` (the most domain vertices assigned at once).
    """

    def __init__(self, message: str, budget: int | None = None,
                 stats: dict[str, int] | None = None):
        super().__init__(message)
        self.budget = budget
        self.stats = dict(stats) if stats else {}


class VerificationError(RuntimeError):
    """A certified construction failed re-verification.

    The message names the first violated precondition or invariant.
    """
