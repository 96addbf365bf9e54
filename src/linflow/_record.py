"""Value types without `dataclasses`, whose import (with `inspect`) would
cost every CLI launch more than all of linflow's exact modules do.

`record` turns a class with annotated fields into a value type with the
``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` of
``@dataclass(frozen=True)``, and a ``__setattr__``/``__delattr__`` that raise
AttributeError.  Only ``__init__``, whose signature is the class's own, is
compiled, by one ``exec`` per class; a frozen one stores each field past
that ``__setattr__``, straight into ``self.__dict__`` or, for a slot, by its
member descriptor's ``__set__``.  The other methods are module functions
that every record type shares, reading the fields from ``__match_args__``.

A field's value in the class body is its default; ``factory(make)`` is a
default built by ``make()`` for each instance.  Slots come from the class
body: a class that declares ``__slots__`` pickles through the shared
``__getstate__``/``__setstate__``, and an unannotated slot there, set by
``__post_init__``, stays out of ``__init__``, eq, hash and repr.  With
``frozen=False`` fields stay assignable and instances are unhashable, as
dataclasses makes a mutable class with eq.
"""

__all__ = ["factory", "record"]

_NO_DEFAULT = object()


class factory:
    """Default of a field built by calling ``make()`` for each instance."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _frozen(self, name, *value):  # __setattr__, or __delattr__ without a value
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _values(self):
    return tuple([getattr(self, n) for n in self.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields = ", ".join([f"{n}={getattr(self, n)!r}" for n in self.__match_args__])
    return f"{self.__class__.__qualname__}({fields})"


def _getstate(self):
    return [getattr(self, n) for n in self.__slots__]


def _setstate(self, state):
    for n, value in zip(self.__slots__, state):
        object.__setattr__(self, n, value)


def record(cls=None, *, frozen=True):
    """Class decorator: see the module docstring."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__annotations__)
    slots = cls.__dict__.get("__slots__", ())
    ns, params = {"_FACTORY": factory}, []
    body = ["_d=self.__dict__"] if frozen and (not slots or "__dict__" in slots) else []
    for n in names:
        value = _NO_DEFAULT if n in slots else cls.__dict__.get(n, _NO_DEFAULT)
        value_src = n
        if isinstance(value, factory):
            ns[f"_make_{n}"] = value.make
            params.append(f"{n}=_FACTORY")
            value_src = f"_make_{n}() if {n} is _FACTORY else {n}"
            delattr(cls, n)  # a plain default stays a class attribute, as with dataclasses
        elif value is _NO_DEFAULT:
            params.append(n)
        else:
            ns[f"_dflt_{n}"] = value
            params.append(f"{n}=_dflt_{n}")
        if frozen and n in slots:
            ns[f"_set_{n}"] = cls.__dict__[n].__set__
        body.append(f"_set_{n}(self,{value_src})" if frozen and n in slots else
                    f"_d[{n!r}]={value_src}" if frozen else f"self.{n}={value_src}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec("\n".join([f"def __init__(self,{','.join(params)}):",
                    *(f" {line}" for line in body or ["pass"])]), ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__eq__, cls.__repr__ = ns["__init__"], _eq, _repr
    if slots:
        cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    if frozen:
        cls.__hash__, cls.__setattr__, cls.__delattr__ = _hash, _frozen, _frozen
    else:
        cls.__hash__ = None
    cls.__match_args__ = names
    return cls
