"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "OrthoQLError",
    "DimensionMismatch",
    "AmbientMismatch",
    "SingularGram",
    "NotInDomain",
    "ParseError",
]


class OrthoQLError(Exception):
    """Base class for errors raised by orthoql."""


class DimensionMismatch(OrthoQLError):
    """Vector or matrix shapes do not line up."""


class AmbientMismatch(OrthoQLError):
    """Operands live in different ambient spaces (dimension or field)."""


class SingularGram(OrthoQLError):
    """A Gram matrix was singular: the supplied columns are dependent."""


class NotInDomain(OrthoQLError):
    """A vector lies outside the domain of a partial map."""


class ParseError(OrthoQLError):
    """Malformed textual input (scalar, vector, expression, or file)."""
