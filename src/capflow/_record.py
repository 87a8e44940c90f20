"""The shared base of capflow's immutable value records.

A record is a slotted class whose fields are its public ``__slots__`` (a
subclass adds its own after its base's).  A private slot (a name starting
with ``_``) is derived: ``__init__`` computes it from the fields, and it
takes no part in equality, hashing, repr or pickling.  A record behaves
as a frozen dataclass with ``eq=True`` would: it equals only a record of
the same class with equal fields, it hashes as the tuple of its fields,
its repr is ``Name(field=value, ...)``, and assigning or deleting a field
raises AttributeError.  A record that checks its arguments writes its own
``__init__``, which validates them and stores them through its class's
``_setters``; a record that validates nothing declares no ``__init__`` and
gets one generated from its fields, taking them positionally or by name
and storing each through its setter, compiled once per class as
``collections.namedtuple`` compiles its ``__new__``.  Pickling and copying
rebuild a record, derived slots included, through its ``__init__``.
"""

from __future__ import annotations


class _Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in slots if not name.startswith("_"))
        # Each field's slot setter, in _fields order, bound once per class.  It
        # stores past the record's own __setattr__, which refuses every write,
        # at about half the cost of object.__setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        # A record that inherits only object's __init__ validates nothing, so it
        # gets a generated one; Series and Parallel keep _Composite's checks.
        if cls.__init__ is object.__init__:
            stores = "".join(f"\n    _set_{name}(self, {name})" for name in cls._fields)
            namespace = {f"_set_{name}": setter for name, setter in zip(cls._fields, cls._setters)}
            exec(f"def __init__(self, {', '.join(cls._fields)}):{stores}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
