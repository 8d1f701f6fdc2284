"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TsclsError(Exception):
    """Base class for every error raised by this package."""


class WellFormednessError(TsclsError):
    """A term value violates a structural constraint (e.g. a loop with an
    empty membrane wrapping non-empty content)."""


class ParseError(TsclsError):
    """Syntax error with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ModelError(TsclsError):
    """Model validation failure; carries every diagnostic found."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class SubstitutionError(TsclsError):
    """Instantiation does not bind a variable the pattern uses."""


class RateEvalError(TsclsError):
    """Rate expression evaluation failure (division by zero outside the
    guarded idiom, an undeclared name, a NaN or infinite rate, or one too
    large for a float)."""
