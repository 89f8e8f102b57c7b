"""Frozen value records without the `dataclasses` module.

`record` turns a class whose body annotates its fields into an immutable
value class, with what ``@dataclass(frozen=True)`` gave it:

- ``__init__`` takes the fields in their order, positionally or by keyword;
  a class attribute of a field's name is its default.  It calls
  ``__post_init__`` when the class defines one.
- ``__eq__`` compares the field tuples of two instances of the same class
  and returns ``NotImplemented`` for any other class.
- ``__hash__`` is ``hash`` of the field tuple.
- ``__repr__`` is ``Cls(field=value, ...)``.
- Assigning or deleting an attribute raises ``AttributeError``;
  ``object.__setattr__`` still sets one, for ``__post_init__``.
- ``_fields`` holds the field names in declared order, for :func:`as_dict`.

As in `dataclasses`, ``__init__``, ``__eq__`` and ``__hash__`` are compiled
per class from a few lines of source that name the fields, so building,
comparing and hashing a record cost what they cost the dataclass: a
formula search builds and hashes tens of thousands of nodes.  Classes
with the same fields share one compiled source.  Importing `dataclasses`
loads `inspect`, `ast`, `dis` and `tokenize`, which cost a fresh process
more than the rest of its start-up; this module loads nothing new.
"""

from __future__ import annotations

_SOURCE = """\
def __init__(self, {params}):
{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented
def __hash__(self):
    return hash(({mine},))
"""

_compiled = {}  # source -> code object


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record over the fields its body annotates."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    slots = cls.__dict__.get("__slots__", ())
    namespace = {"_set": object.__setattr__}
    params = []
    for name in fields:
        if name in cls.__dict__ and name not in slots:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    sets = [f"    _set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        sets.append("    self.__post_init__()")
    source = _SOURCE.format(
        params=", ".join(params),
        sets="\n".join(sets),
        mine=", ".join(f"self.{name}" for name in fields),
        theirs=", ".join(f"other.{name}" for name in fields),
    )
    code = _compiled.get(source)
    if code is None:
        code = _compiled[source] = compile(source, "<record>", "exec")
    exec(code, namespace)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({shown})"

    namespace["__repr__"] = __repr__
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    cls._fields = fields
    return cls


def as_dict(value):
    """A record as the dict of its fields in declared order, a tuple as the
    list of its items, each taken the same way, and any other value as it
    is: the one rule by which a report writes a record as JSON."""
    if hasattr(type(value), "_fields"):
        return {name: as_dict(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return [as_dict(v) for v in value]
    return value
