"""Exception types and the record base shared by all holopoisson modules.

Every report is a Record and renders itself: as_dict gives its fields in
__slots__ order, then, on a record that names a VERDICT key, that key with
all_ok, the conjunction of the fields."""


class Record:
    """Base of the small result records (reports, truncations): the
    fields are the subclass's __slots__, set positionally by __init__,
    with value equality, hashing and repr over them.  They are plain
    slotted classes so that importing the package, which every command
    pays for, generates and compiles no code."""

    __slots__ = ()
    VERDICT = None

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self.__slots__)} values, not {len(values)}")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    @property
    def all_ok(self) -> bool:
        """The conjunction of the fields."""
        return all(self._values())

    def as_dict(self):
        """The fields in __slots__ order (a nested record as its dict, a
        tuple as a list), then the VERDICT key with all_ok, if named."""
        out = {name: _plain(getattr(self, name)) for name in self.__slots__}
        if self.VERDICT is not None:
            out[self.VERDICT] = self.all_ok
        return out

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


def _plain(value):
    """value as a JSON value: a record as its dict, a tuple as a list."""
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


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
