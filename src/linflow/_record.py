"""Value types without `dataclasses`.

`record` turns a class with annotated fields into a value type: it adds
``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` with the bodies that
``@dataclass(frozen=True)`` generates, compiled by one ``exec`` per class,
and a ``__setattr__``/``__delattr__`` that raise AttributeError.  Importing
`dataclasses` (which imports `inspect`) would cost every CLI launch more
than all of linflow's exact modules do.

A field's value in the class body is its default; ``factory(make)`` is a
default built by ``make()`` for each instance, and ``DERIVED`` marks a
field that only ``__post_init__`` sets, which stays out of ``__init__``,
eq, hash and repr.  ``slots=True`` rebuilds the class with ``__slots__``
and pickles it through ``__getstate__``/``__setstate__``.  With
``frozen=False`` fields stay assignable and instances are unhashable, as
dataclasses makes a mutable class with eq.
"""

__all__ = ["DERIVED", "factory", "record"]

DERIVED = object()
_NO_DEFAULT = object()


class factory:
    """Default of a field built by calling ``make()`` for each instance."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _tuple(obj, names):
    return "(" + "".join(f"{obj}.{n}," for n in names) + ")"


def record(cls=None, *, frozen=True, slots=False):
    """Class decorator: see the module docstring."""
    if cls is None:
        return lambda c: record(c, frozen=frozen, slots=slots)
    names = tuple(cls.__annotations__)
    ns = {"_setattr": object.__setattr__, "_FACTORY": factory}
    params, body, compared = [], [], []
    for n in names:
        value = cls.__dict__.get(n, _NO_DEFAULT)
        if value is DERIVED:
            continue
        compared.append(n)
        value_src = n
        if isinstance(value, factory):
            ns[f"_make_{n}"] = value.make
            params.append(f"{n}=_FACTORY")
            value_src = f"_make_{n}() if {n} is _FACTORY else {n}"
        elif value is _NO_DEFAULT:
            params.append(n)
        else:
            ns[f"_dflt_{n}"] = value
            params.append(f"{n}=_dflt_{n}")
        body.append(f"_setattr(self,{n!r},{value_src})" if frozen else f"self.{n}={value_src}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine, theirs = _tuple("self", compared), _tuple("other", compared)
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in compared)
    src = [
        f"def __init__(self,{','.join(params)}):",
        *(f" {line}" for line in body or ["pass"]),
        "def __eq__(self,other):",
        " if other.__class__ is self.__class__:",
        f"  return {mine}=={theirs}",
        " return NotImplemented",
        "def __repr__(self):",
        f' return self.__class__.__qualname__ + f"({fields})"',
    ]
    if frozen:
        src += ["def __hash__(self):", f" return hash({mine})"]
    if slots:
        src += ["def __getstate__(self):", f" return [{', '.join(f'self.{n}' for n in names)}]",
                "def __setstate__(self,state):",
                *(f" _setattr(self,{n!r},state[{i}])" for i, n in enumerate(names))]
    exec("\n".join(src), ns)
    if slots:
        body_dict = dict(cls.__dict__)
        for n in names + ("__dict__", "__weakref__"):
            body_dict.pop(n, None)
        body_dict["__slots__"] = names
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, body_dict)
        cls.__qualname__ = qualname
    else:  # a plain default stays a class attribute, as with dataclasses
        for n in names:
            if isinstance(cls.__dict__.get(n), factory) or cls.__dict__.get(n) is DERIVED:
                delattr(cls, n)
    methods = ["__init__", "__eq__", "__repr__"]
    methods += ["__hash__"] if frozen else []
    methods += ["__getstate__", "__setstate__"] if slots else []
    for name in methods:
        fn = ns[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    else:
        cls.__hash__ = None
    cls.__match_args__ = tuple(compared)
    return cls
