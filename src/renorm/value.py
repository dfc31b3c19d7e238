"""Value classes: records declared by their annotations, with no code
generated at class creation.

A subclass's fields are its own annotations, in order, and a field's
default is the class attribute of its name, one object every instance
shares, so every default is immutable.  Every subclass gets dataclass's
__init__ (positional or keyword arguments, then __post_init__ where the
class has one), which raises TypeError exactly where dataclass's would,
with a message of its own naming the class, its fields and the arguments
given; and __repr__ and __eq__.  A frozen subclass, `class C(Value,
frozen=True)`, also gets a field-tuple __hash__ and refuses assignment and
deletion with FrozenInstanceError; a mutable one is unhashable.  Fields
are set with object.__setattr__, as a frozen dataclass sets them, which
keeps the instance's attribute reads on the interpreter's fast path, and
cached_property works on both kinds.  The dataclasses module compiles each
of these methods with exec for every class, in every process; these are
written once, here.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr

_set = object.__setattr__  # sets a field past a frozen class's refusal


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of an attribute of a frozen value."""


def _bind(cls, args, kwargs) -> list:
    """The field values of cls(*args, **kwargs): the arguments, then each
    later field's keyword argument or default; a TypeError where an
    argument is left over or a field unset."""
    names, defaults = cls._fields, cls._defaults
    values, used = list(args), 0
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs[name])
            used += 1
        elif name in defaults:
            values.append(defaults[name])
        else:
            break
    if used == len(kwargs) and len(values) == len(names):
        return values
    raise TypeError(
        f"{cls.__qualname__}({', '.join(names)}) cannot bind "
        f"{len(args)} positional argument(s) and the keywords {list(kwargs)}")


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _hash(self):
    return hash(self._key(self))


class Value:
    _fields: tuple = ()  # the field names, in order
    _defaults: dict = {}  # the default of each field that has one

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        for before, name in zip(names, names[1:]):
            if before in defaults and name not in defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        cls._fields, cls._defaults = names, defaults
        # a tuple of the field values, for one field too, as dataclass compares and hashes
        key = attrgetter(*names) if len(names) > 1 else (lambda v: tuple(getattr(v, n) for n in names))
        cls._key = staticmethod(key)
        cls._has_post_init = hasattr(cls, "__post_init__")
        if frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = _refuse_set, _refuse_del, _hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if self._has_post_init:
            self.__post_init__()

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented
