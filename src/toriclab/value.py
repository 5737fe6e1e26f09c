"""The one base of the package's value classes.

Polytopes, spheres, fans and the records the layers return are immutable
values.  Two are equal when they are of one class and their fields are
equal, and an instance hashes as the tuple of its fields.  A class names
its fields as class annotations, in order, none with a default;
``__init__`` binds its arguments to them as Python binds a signature and
stores them in ``self.__dict__``, where a ``cached_property`` keeps its
values too; those are not fields, so equality, hashing and ``repr``
leave them out.  Defining a class generates no code, so importing a
layer stays cheap.
"""

from __future__ import annotations


class _Value:
    """Field-wise ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__``
    (the text ``Name(field=value, ...)``); assigning or deleting an
    attribute raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of any other call, bound as Python binds the
        signature ``(field, ..., field)``, else TypeError."""
        fields = cls._fields
        given = dict(zip(fields, args))
        faults = [f"unexpected keyword argument {f!r}" for f in kwargs if f not in fields]
        faults += [f"multiple values for argument {f!r}" for f in kwargs if f in given]
        if len(args) > len(fields):
            faults.append(f"{len(args)} positional arguments for {len(fields)} fields")
        given.update(kwargs)
        faults += [f"missing argument {f!r}" for f in fields if f not in given]
        if faults:
            raise TypeError(f"{cls.__qualname__}(): {'; '.join(faults)}")
        return [given[f] for f in fields]

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
        return f"{type(self).__qualname__}({', '.join(f'{f}={d[f]!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
