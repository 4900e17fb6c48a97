"""The base class of the package's frozen records.

A record is a small immutable value with a fixed list of fields: its
`__slots__`, or `_fields` where it has slots that are not fields.  Two
records are equal when they are of the same class with equal fields; a
record hashes as the tuple of its fields, prints as `Name(field=value, ...)`,
refuses assignment and deletion with `AttributeError`, and pickles as its
class called on its fields.  That is what a frozen dataclass gives, without
importing `dataclasses` (which imports `inspect`) or generating methods
with `exec` when the package is imported: every `aqci` command starts a
fresh interpreter and would pay both.

The base `__init__` takes the fields in order, by position or keyword, and
sets them with `object.__setattr__`.  A call with one positional value per
field and no keywords (every hot caller, and unpickling) sets them straight
away; any other call is bound by name, with the defaults of the class
attribute `_defaults` (field -> value, not a slot).  Too many values, an
unknown or repeated keyword and a missing field raise `TypeError`, as a
written-out signature would.  A record that normalizes or checks its input
(`Member`, `SpecialDatum`, `MonomialIdeal`) writes out its own `__init__`.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]
    _defaults: dict = {}

    def __init_subclass__(cls):
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        # _values(record) is the tuple of its fields; attrgetter of one name
        # returns the bare value.
        cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = type(self).__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
            values = {**self._defaults, **dict(zip(fields, args))}
            for key, value in kwargs.items():
                if key not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
                if key in fields[: len(args)]:
                    raise TypeError(f"{name}() got multiple values for argument {key!r}")
                values[key] = value
            try:
                args = [values[f] for f in fields]
            except KeyError as missing:
                raise TypeError(f"{name}() missing required argument {missing}") from None
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
