"""Exception types and the report-record base shared by all holopoisson
modules."""


class Record:
    """Base of the small result records (reports, truncations): the
    fields are the subclass's __slots__, set positionally by __init__,
    with value equality, hashing and repr over them.  They are plain
    slotted classes so that importing the package, which every command
    pays for, generates and compiles no code."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self.__slots__)} values, not {len(values)}")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class HoloPoissonError(Exception):
    """Base class for all library errors."""


class ChartError(HoloPoissonError):
    """Chart mismatch, unknown variable, or wrong chart kind."""


class DegreeError(HoloPoissonError):
    """Operand has the wrong (bi)degree for an operation."""


class ShapeError(HoloPoissonError):
    """Matrix / tensor shape mismatch."""


class StructureError(HoloPoissonError):
    """A structural precondition fails (Jacobi, flatness, torsion, ...)."""


class SingularError(HoloPoissonError):
    """A matrix that must be invertible is degenerate."""


class TruncationError(HoloPoissonError):
    """The requested truncation is incompatible with the differential."""


class ParseError(HoloPoissonError):
    """Malformed polynomial literal or input document."""
