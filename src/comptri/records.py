"""The base class of the package's immutable records.

The records are plain classes with ``__slots__`` rather than dataclasses:
importing ``dataclasses`` pulls in ``inspect``, ``ast`` and ``tokenize``, and
decorating a class compiles its methods, which together cost every fresh
interpreter a few milliseconds of startup.  A record's constructor sets each
field in a straight line, so building one is no slower than a frozen
dataclass.
"""

from __future__ import annotations

# a record's constructor sets each field with this, past Record.__setattr__;
# a module-level name is found faster than object.__setattr__ on each call
set_field = object.__setattr__


class Record:
    """An immutable, hashable record whose fields are its ``__slots__``.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` sets each one with :data:`set_field`.  Afterwards,
    assigning or deleting any attribute raises AttributeError.  Two records
    are equal when they are of the same class with equal fields, and equal
    records hash alike.  The repr names each field, as a dataclass's does.
    Pickling and copying rebuild a record by calling its class with the
    fields in order, so a slotted record round-trips like any other.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()
