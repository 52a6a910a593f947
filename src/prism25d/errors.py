"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class PrismError(Exception):
    """Base for all validation / contract failures raised by this package.

    Carries the 1-based line number of the offending input line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@contextmanager
def located(where: str):
    """Prefix `where: ` to the message of a PrismError raised inside, keeping its class."""
    try:
        yield
    except PrismError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


class ValidationError(PrismError):
    """Input violates a documented precondition or invariant."""


class ParseError(PrismError):
    """Malformed input file."""


class RegistryError(PrismError):
    """Reference to a class id missing from the class registry."""


class FormatError(PrismError):
    """File has the wrong format marker or an unsupported version."""
