"""Immutable records. ``frozen`` gives a class ``_fields`` (its annotated names, after any
base's), a guard on assignment and deletion, and a ``__reduce__`` that calls the class on its
field values. A class with no ``__init__`` of its own gets one on its first instance, with
``__eq__`` and ``__hash__`` on the field tuple and a frozen dataclass's repr, made by ``exec`` as
PEP 557 does: built at import, they would slow every command. The build only sets attributes,
``__init__`` last, so threads racing to it build the same methods and never see it missing."""


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen instance."""


def frozen(cls):
    base = getattr(cls, "_fields", ())
    own = tuple(n for n in vars(cls).get("__annotations__", {}) if n not in base)
    cls._fields = cls.__match_args__ = base + own
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _refuse, _refuse, _reduce
    if "__init__" not in vars(cls):
        cls.__init__ = _first_init
    return cls


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, n) for n in self._fields)


def _repr(self):
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _first_init(self, *args, **kwargs):
    cls = type(self)
    params = ", ".join(f"{n}=_cls.{n}" if hasattr(cls, n) else n for n in cls._fields)
    sets = "".join(f" _set(self, {n!r}, {n})\n" for n in cls._fields)
    post = " self.__post_init__()\n" if hasattr(cls, "__post_init__") else " pass\n"
    key = f"({''.join(f'self.{n},' for n in cls._fields)})"
    made = {"_cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):\n{sets}{post}"
         f"def __eq__(self, other):\n return {key} == {key.replace('self.', 'other.')}"
         " if other.__class__ is self.__class__ else NotImplemented\n"
         f"def __hash__(self):\n return hash({key})\n", made)
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, made["__eq__"], made["__hash__"]
    cls.__init__ = made["__init__"]
    cls.__init__(self, *args, **kwargs)
