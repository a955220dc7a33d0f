"""Plain value classes: equality, hash and repr read from a tuple of field
names.  They stand in for ``dataclasses``, whose decorator generates and
compiles each class's methods when the module is imported and whose import
loads ``inspect``, a cost every one-shot CLI call would pay."""

from operator import attrgetter


class Value:
    """A record of the attributes named in ``_fields`` (at least two, so
    that their getter returns a tuple), which a subclass's ``__init__``
    sets.  It equals only an instance of its own class with equal fields,
    has the ``repr`` ``Name(field=value, ...)`` and is not hashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls.__match_args__ = cls._fields
            cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"


class FrozenValue(Value):
    """A :class:`Value` fixed by its ``__init__``: assigning or deleting an
    attribute raises ``AttributeError``, and its hash is the hash of its
    field tuple."""

    def _assign(self, *values) -> None:
        """Set the fields to ``values``, in order, in ``__init__``.  Setting
        them one by one, not through ``__dict__``, keeps attribute reads on
        the interpreter's fast path for plain instance attributes."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
