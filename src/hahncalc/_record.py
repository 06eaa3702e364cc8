"""Slotted value records: the base of the package's parameter and result types.

A record lists its fields, in order, as its __slots__ and writes its own
__init__.  The base derives from that list what a dataclass would generate:
the repr Name(field=value, ...), equality of same-class records field by
field, and, for a FrozenRecord, a hash of the field values and an
AttributeError on assignment.  A plain Record is mutable and unhashable.
Records copy and pickle by their field values.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Mutable record whose fields are its __slots__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class FrozenRecord(Record):
    """Immutable, hashable record; __init__ sets its fields by object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
