"""Immutable records with value semantics, the base of the package's
channel, region and solution types.

A subclass names its fields in ``__slots__`` and stores them from its
``__init__`` with ``setfield``.  Equality, hashing and ``repr`` go by the
fields in slot order, as for a frozen dataclass: records are equal only to
records of the same class, and ``repr`` reads ``Name(field=value, ...)``.
Assigning or deleting an attribute raises AttributeError.  Defining such a
class takes microseconds, where the ``dataclasses`` import and a frozen
dataclass's generated methods cost milliseconds at every start.
"""


#: ``setfield(record, name, value)`` stores a field from ``__init__``,
#: past ``Record.__setattr__``.  One call per field is faster than a loop.
setfield = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()
