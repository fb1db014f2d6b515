"""The package's one record idiom.  An immutable value is a Record, or an
OrderedRecord if it orders.  It names its fields in `__slots__` (after its
bases', in `_fields`), and its __init__ checks them and stores them with
`_set`, past __setattr__.  It compares, hashes, prints, copies and pickles
as a frozen dataclass would, by methods written here once, not generated in
each process; one compared or hashed per event writes out its own.  Mutable
run state is a plain class with `__slots__`."""

import operator


def _compare(op):
    def method(self, other):  # as a frozen dataclass: with records of its own class only
        if other.__class__ is self.__class__:
            return op(self._values(), other._values())
        return NotImplemented

    return method


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(vars(cls).get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _set(self, *values) -> None:
        """Store the fields' values, in `_fields` order."""
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    __eq__ = _compare(operator.eq)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    # dataclasses is imported only when one of these raises: it loads inspect
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return self.__class__, self._values()


class OrderedRecord(Record):
    __slots__ = ()
    __lt__, __le__ = _compare(operator.lt), _compare(operator.le)
    __gt__, __ge__ = _compare(operator.gt), _compare(operator.ge)
