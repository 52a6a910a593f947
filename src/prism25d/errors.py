"""Exception hierarchy shared across the package."""


class PrismError(Exception):
    """Base for all validation / contract failures raised by this package.

    Carries the 1-based line number of the offending input line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PrismError):
    """Input violates a documented precondition or invariant."""


class ParseError(PrismError):
    """Malformed input file."""


class RegistryError(PrismError):
    """Reference to a class id missing from the class registry."""


class FormatError(PrismError):
    """File has the wrong format marker or an unsupported version."""
