"""Exception types shared across the package.

Negative search outcomes (no witness found, target not reached) are ordinary
return values, not exceptions.  Exceptions are reserved for malformed inputs
and for operations that cannot produce a meaningful partial result.
"""


class InvalidArgumentError(ValueError):
    """Input violates a documented precondition."""


class SchemaError(InvalidArgumentError):
    """JSON payload failed validation.

    ``path`` points at the offending field, e.g. ``$.parts[1].k``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NoFrontFoundError(RuntimeError):
    """Fuel ran out before an initial segment landed in the family.

    Usually means the generator does not produce a subset of the barrier's
    ground set.
    """

    def __init__(self, fuel: int, detail: str = ""):
        self.fuel = fuel
        msg = f"no initial segment found within fuel={fuel}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotInSumError(ValueError):
    """A finite set does not decompose as a concatenation over the family.

    ``consumed`` holds the parts recovered before the failure and
    ``leftover`` the undecomposable remainder; nothing is repaired.
    """

    def __init__(self, consumed, leftover, message: str):
        self.consumed = consumed
        self.leftover = leftover
        super().__init__(message)


class InsufficientBlocksError(ValueError):
    """Fewer than two blocks fit inside the universe; no gap is defined."""


class NotStabilizedError(RuntimeError):
    """Model probes disagree, so a derived quantity would be unreliable."""


class InternalCheckError(RuntimeError):
    """A self-check of a computed result failed: a fault in this package.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps it.
    """
