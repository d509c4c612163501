"""Plain value classes: the package's records, without dataclasses, and
the records that both halves of the package share.

A subclass names in _fields the attributes that its repr shows and that
== compares, in constructor order; a FrozenRecord's __init__ passes
their values to _init, which stores them and runs the class's checks,
__post_init__, if it has any.  == holds only between instances of the
same class, as for a dataclass.  A Record is mutable and unhashable; a
FrozenRecord refuses assignment and hashes the tuple of its _fields, so
it can key a cache.  Importing dataclasses would pull inspect, ast, dis
and tokenize into every CLI process, and each decorator compiles its
generated methods at import.

CohomologyDims, UdrClass and VerificationReport are results of the
dihedral and the abelian routes alike.  They live here so that the
abelian route and the CLI's writers need neither cohomology nor
deformation.  LimitExceeded, which every route raises and the CLI
catches, lives here too, so that the CLI's parser loads no other
package module; ffield binds it as its own.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter


class LimitExceeded(RuntimeError):
    """A computation was refused because it exceeds a built-in size guard."""


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            names = cls._fields
            get = attrgetter(*names)
            # attrgetter of one name returns the bare value, not a 1-tuple
            cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in values)})"


class FrozenRecord(Record):
    __slots__ = ()

    def _init(self, *values) -> None:
        """Store values under _fields, in order, then run __post_init__
        if the class has one; ValueError if the counts differ."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CohomologyDims(FrozenRecord):
    __slots__ = _fields = ("d1", "d2")

    def __init__(self, d1: int, d2: int) -> None:
        self._init(d1, d2)


class UdrClass(Enum):
    """Symbolic deformation ring classes; values are the comma-free tags
    used in CSV output, .label the pretty form used in JSON."""

    ZP = "Zp"
    ZP_T_TORSION = "ZpTtorsion"
    ZP_CP = "ZpCp"
    ZP_CP_SQUARED = "ZpCpSquared"

    @property
    def label(self) -> str:
        return _UDR_LABELS[self]


_UDR_LABELS = {
    UdrClass.ZP: "Zp",
    UdrClass.ZP_T_TORSION: "Zp[[t]]/(t^2,pt)",
    UdrClass.ZP_CP: "Zp[Z/p]",
    UdrClass.ZP_CP_SQUARED: "Zp[Z/pxZ/p]",
}


class VerificationReport(FrozenRecord):
    __slots__ = _fields = ("check_name", "parameters", "passed", "witness")

    def __init__(self, check_name: str, parameters: tuple, passed: bool, witness=None) -> None:
        self._init(check_name, parameters, passed, witness)
