"""Copies and fields of renorm's value objects (renorm.value.Value), with
the semantics of dataclasses.replace and dataclasses.fields."""


def replace(obj, **changes):
    """A new instance of obj's class, built through __init__ from obj's
    fields with changes applied; a name that is not a field is a TypeError.
    Nothing __init__ does not set carries over: a BranchSystem copy holds
    no cached proof."""
    cls = type(obj)
    return cls(**{**{name: getattr(obj, name) for name in cls._fields}, **changes})


def field_names(obj) -> tuple:
    """The names of obj's fields, in order."""
    return type(obj)._fields
