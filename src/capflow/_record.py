"""The shared base of capflow's immutable value records.

A record is a slotted class whose fields are its ``__slots__`` (a subclass
adds its own after its base's).  It behaves as a frozen dataclass with
``eq=True`` would: it equals only a record of the same class with equal
fields, it hashes as the tuple of its fields, its repr is
``Name(field=value, ...)``, and assigning or deleting a field raises
AttributeError.  Each record's ``__init__`` validates its arguments and
stores them through its class's ``_setters``; pickling and copying rebuild
a record through that ``__init__``.
"""

from __future__ import annotations


class _Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())
        # Each field's slot setter, in _fields order, bound once per class.  It
        # stores past the record's own __setattr__, which refuses every write,
        # at about half the cost of object.__setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
