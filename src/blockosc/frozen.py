"""``dataclass(frozen=True)``, built on a class's first instance (about 1 ms a class), not at
import: until then ``is_dataclass`` is false. Make each first instance in one thread. A record
pickles and copies as a call of its class on its field values, so a loaded one is checked again."""
import dataclasses


def frozen(cls):
    def build():
        del cls.__init__
        return dataclasses.dataclass(frozen=True)(cls)  # the same class, built in place

    cls.__init__ = lambda self, *args, **kwargs: build().__init__(self, *args, **kwargs)
    cls.__reduce__ = lambda self: (type(self), tuple(getattr(self, f.name)
                                                     for f in dataclasses.fields(self)))
    return cls
