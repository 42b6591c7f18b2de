"""``frozen``: immutable value classes without generated source.

``@frozen`` takes a class body's annotated names, in order, as its fields
and a class attribute of the same name as that field's default.  It adds
an ``__init__`` that takes the fields by position or keyword and then
calls ``__post_init__`` if the class defines one, equality and hashing
over the field tuple (equal only to an instance of the same class), a
``Name(field=value, ...)`` repr, and ``AttributeError`` on assigning or
deleting an attribute.  The methods are closures, so defining a class
compiles nothing at import and the package never loads ``dataclasses``.
"""

from operator import attrgetter


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    keywords = [frozenset(names[k:]) for k in range(len(names) + 1)]  # allowed after k positionals
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        values.update(defaults)
        values.update(zip(names, args))
        values.update(kwargs)
        if len(args) > len(names) or not kwargs.keys() <= keywords[len(args)] \
                or len(values) < len(names):
            raise TypeError(_call_error(cls.__qualname__, names, args, kwargs, values))
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of frozen {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of frozen {type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{type(self).__qualname__}({body})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _call_error(qualname, names, args, kwargs, values):
    """The message of the ``TypeError`` a plain function would raise for this call."""
    if len(args) > len(names):
        return f"{qualname}() takes {len(names)} arguments but {len(args)} were given"
    for key in kwargs:
        if key not in names:
            return f"{qualname}() got an unexpected keyword argument {key!r}"
        if key in names[:len(args)]:
            return f"{qualname}() got multiple values for argument {key!r}"
    missing = ", ".join(repr(name) for name in names if name not in values)
    return f"{qualname}() missing required argument(s): {missing}"
