"""Exact computation with oriented walled tangles, their skein-normal forms,
and their matrix action on mixed tensor space over the quantum group of gl_n.

Modules build on each other in this order: laurent (exact scalars), tangle
(diagram combinatorics), skein (normal forms and the algebra product), rep
(matrices on mixed tensor space), qgroup (quantum-group operators), duality
(commutant and rank checks), cli (command-line front end).
"""

from __future__ import annotations

__version__ = "0.1.0"

_setattr = object.__setattr__


def _record(frozen: bool):
    """Class decorator in the place of ``dataclasses.dataclass``, whose import
    outweighs the package's.  The annotated names are the fields, in order; a
    record keeps their tuple as ``_key`` (a constructor of its own sets it too)
    and gets ``_fill`` as ``__init__``, ``__eq__``, ``__hash__``, ``__repr__`` and, if
    frozen, a raising ``__setattr__`` and ``__delattr__``, unless its body has one."""

    def decorate(cls):
        names = cls._fields = tuple(cls.__annotations__)

        def refuse(self, name, *value):
            raise AttributeError(f"cannot set or delete {name!r}: {cls.__name__} is frozen")

        methods = {
            "__init__": _fill,
            "__eq__": lambda self, other: self._key == other._key if other.__class__ is cls else NotImplemented,
            "__hash__": lambda self: hash(self._key),
            "__repr__": lambda self: f"{cls.__name__}({', '.join(map('{}={!r}'.format, names, self._key))})",
        }
        for name, method in {**methods, **({"__setattr__": refuse, "__delattr__": refuse} if frozen else {})}.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        return cls

    return decorate


def _fill(record, *values, **named) -> None:
    """Set a record's fields and ``_key``, by position, keyword or class-attribute default."""
    names = record._fields
    if named or len(values) != len(names):
        rest, defaults = names[len(values) :], {**vars(type(record)), **named}
        if len(values) > len(names) or named.keys() - set(rest) or not defaults.keys() >= set(rest):
            raise TypeError(f"{type(record).__name__} takes each of the fields {', '.join(names)} once")
        values += tuple(map(defaults.__getitem__, rest))
    for name, value in zip(names, values):
        _setattr(record, name, value)
    _setattr(record, "_key", values)
