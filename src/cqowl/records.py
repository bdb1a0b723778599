"""The record base shared by the AST nodes and the analysis results.

A subclass lists its fields as class annotations, in order, with optional
defaults; ``Factory(list)`` gives each instance a fresh mutable default.
The base supplies positional and keyword construction, a call to the
subclass's ``__post_init__`` (if it defines one, to check the fields), a
``repr`` naming every field, and equality on the exact type plus the field
values.  ``cls._fields`` names the fields and
``record._astuple()`` gives their values.  Records are frozen unless the
class is declared ``frozen=False``: a frozen record raises
``AttributeError`` on assigning or deleting an attribute and hashes on its
type and values; a mutable one is unhashable.

The base generates no code, so defining a record costs about as much as
defining a plain class.  It is set up by ``__init_subclass__`` rather than
a metaclass, which would take ``isinstance`` off the interpreter's fast
path, and it stores fields with ``object.__setattr__`` rather than through
``__dict__``, which would make every later field read slower.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Factory:
    """A field default made fresh for each instance by calling ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class Record:
    """Base of a record class; its annotations name its fields, in order."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._astuple = _values_getter(cls._fields)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields
                         if name in vars(cls)}
        cls._has_post_init = hasattr(cls, "__post_init__")
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if self._has_post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in field order from a call's arguments and defaults."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                default = cls._defaults[name]
                values.append(default.make() if isinstance(default, Factory)
                              else default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {name!r}")
        return values

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash((type(self), *self._astuple()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _values_getter(names: tuple[str, ...]):
    """The ``_astuple`` method of a record class with fields ``names``: its
    field values in field order (nested records stay records)."""
    if len(names) > 1:
        get = attrgetter(*names)
        return lambda record: get(record)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()
