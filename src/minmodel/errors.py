"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(EngineError):
    """Input data failed structural validation.

    A workspace sets `section` and `line` (its header's) when the fault is
    in the contents of one of its sections.
    """

    section: str | None = None
    line: int | None = None


class AssociativityViolation(ValidationError):
    """A composition table disagrees with itself on some composable triple."""


class IdentityViolation(ValidationError):
    """A composition table breaks an identity law."""


class IncompleteTable(ValidationError):
    """A composition table misses a composable pair or is not closed."""


class FunctorialityViolation(ValidationError):
    """Presheaf actions do not respect composition or identities."""


class MissingAction(ValidationError):
    """A presheaf omits the action of a base morphism it needs."""


class NaturalityViolation(ValidationError):
    """A map's components do not commute with some base morphism."""


class SizeLimitExceeded(ValidationError):
    """A carrier or base exceeds the configured size limits."""


class DuplicateName(ValidationError):
    """Two entities of the same kind share a name."""


class NonComposable(EngineError):
    """Maps were combined whose endpoints do not match."""


class BaseMismatch(EngineError):
    """Objects over different base categories were mixed."""


class NonCommutingSquare(EngineError):
    """A lifting problem or cocone was posed with non-commuting data."""


class IncompatibleOnRelativePart(EngineError):
    """Two maps disagree where a homotopy would need them to agree."""


class ImplementationInvariantBroken(EngineError):
    """An internal consistency check failed; this is an engine bug."""


class ReplayMismatch(EngineError):
    """A factorization log does not replay against the given start object."""


class FuelExhausted(EngineError):
    """A guarded construction stopped before completing: it ran out of fuel
    or its next apex would pass the carrier limit."""


class ParseError(EngineError):
    """A workspace file or base description could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownName(EngineError):
    """A command referenced a workspace entity that does not exist."""
