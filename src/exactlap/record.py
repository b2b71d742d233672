"""`Record`, the read-only base of the package's value types."""

from __future__ import annotations


class Record:
    """Read-only value over the fields its class annotates, in order.

    Fields are given by position or keyword; a missing, unknown or repeated
    one is a TypeError, and a ``__post_init__`` hook may check them.  Two
    records are equal, and hash alike, when their classes and field values
    are; the repr is ``Name(field=value, ...)``; assignment raises
    AttributeError.  Annotations stay unevaluated strings, so a record
    class costs no import and generates no code.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, {len(args)} given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                kind = "repeated" if field in values else "unknown"
                raise TypeError(f"{name} got {kind} field {field!r}")
            values[field] = value
        if len(values) < len(fields):
            missing = next(field for field in fields if field not in values)
            raise TypeError(f"{name} is missing field {missing!r}")
        for field in fields:
            object.__setattr__(self, field, values[field])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")
