"""Value semantics over ``__slots__``: the one base of the package's records.

A record lists its constructor fields in ``_fields``, in order, and its
``__slots__`` are those fields followed by any derived ones (a count or an
index built from the fields). Equality, hashing, repr and pickling read the
fields only, so derived slots take no part. Records are frozen: a
constructor passes every slot's value to ``_setslots``, and any later
assignment raises. A plain record has no constructor of its own:
``Record.__init__`` takes its fields in ``_fields`` order, by position
first and then by name. A record that validates its arguments, derives
slots or has defaults writes its own. The two records that a parsed
instance builds per agent, ``MarkedMatroid`` and ``BivaluedValuation``,
call ``object.__setattr__`` once per slot instead, at half the cost.
Pickling and copying call the constructor again, so they validate and
rebuild the derived slots.
"""

from __future__ import annotations

from itertools import repeat

from .errors import FrozenInstanceError


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named) -> None:
        """Fill ``_fields`` in order: by position first, then by name."""
        fields = self._fields
        if named or len(values) != len(fields):  # the common call skips the name checks
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__qualname__} takes its fields ({', '.join(fields)}) in "
                    f"order, by position or by name; got {len(values)} by position and "
                    f"{sorted(named)} by name"
                )
            values += tuple(map(named.__getitem__, rest))
        self._setslots(*values)

    def _setslots(self, *values) -> None:
        """Set the slots in ``__slots__`` order, past the frozen ``__setattr__``.

        ``map`` makes the calls from C, at half the cost of a Python loop.
        """
        for _ in map(object.__setattr__, repeat(self), self.__slots__, values):
            pass

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class MutableRecord(Record):
    """A record whose attributes may change: unhashable, pickled slot by slot."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __reduce__ = object.__reduce__
