"""Frozen records: the values the stages build and return.

They are not dataclasses.  Every CLI run is a fresh interpreter, and there
`import dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
each frozen `@dataclass` compiles generated methods when its class is made.
`Record` reads each class's fields from its annotations once instead.
"""

from __future__ import annotations


class Record:
    """A frozen record whose fields are its class annotations, in order.

    A class attribute gives a field's default.  The fields a subclass names
    in its tuple `_uncompared` record how a value was reached, not what it
    is: `==`, `hash` and `repr` leave them out.
    """

    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # its own, not its bases'
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        name = cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
            if field in values:
                raise TypeError(f"{name} got field {field!r} twice")
            values[field] = value
        missing = [f for f in fields if f not in values and f not in cls.__dict__]
        if missing:
            raise TypeError(f"{name} is missing {', '.join(missing)}")
        self.__dict__.update(values)

    def _frozen(self, field, *_value):
        raise AttributeError(f"cannot change field {field!r} of a frozen record")

    __setattr__ = __delattr__ = _frozen

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({shown})"
