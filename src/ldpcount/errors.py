"""Exception types shared across the toolkit."""


class ParseError(ValueError):
    """Malformed input text (carries a 1-based line number when known)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """Semantically invalid argument or state (bad budget, bad graph, ...)."""


class ResourceLimitError(RuntimeError):
    """Instance is too large for desk scale: exact enumeration or dense matrices."""
