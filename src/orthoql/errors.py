"""Exception types shared across the package, and the base of its records."""

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


class _Record:
    """A record with the fields named in its ``__slots__``: equal to a
    record of its own class whose fields are all equal, written as
    ``Name(field=value, ...)``, and unhashable, since its fields can
    change.  The records of ``laws`` and ``cli`` share it, so importing
    either costs no class generator, and the command line's
    ``InstanceFile`` needs no ``laws``."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
