"""The one base of the package's value classes.

Polytopes, spheres, fans and the records the layers return are immutable
values.  Two are equal when they are of one class and their fields are
equal, and an instance hashes as the tuple of its fields.  A class names
its fields as class annotations, in order, and its ``__init__`` stores
them in ``self.__dict__``, where a ``cached_property`` keeps its values
too; those are not fields, so equality, hashing and ``repr`` leave them
out.  Defining a class generates no code, so importing a layer stays
cheap.
"""

from __future__ import annotations


class _Value:
    """Field-wise ``__eq__``, ``__hash__`` and ``__repr__`` (the text
    ``Name(field=value, ...)``, without the fields a class lists in
    ``_hidden``); assigning or deleting an attribute raises
    AttributeError."""

    __slots__ = ()
    _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)

    def _astuple(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        d = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{f}={d[f]!r}' for f in self._shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
