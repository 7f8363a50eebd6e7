"""``dataclass(frozen=True)``, built on a class's first instance or unpickle (about 1 ms a class),
not at import: until then ``is_dataclass`` is false. Make each first instance in one thread."""
import dataclasses


def frozen(cls):
    def build():
        del cls.__init__, cls.__setstate__
        return dataclasses.dataclass(frozen=True)(cls)  # the same class, built in place

    cls.__init__ = lambda self, *args, **kwargs: build().__init__(self, *args, **kwargs)
    cls.__setstate__ = lambda self, state: build() and vars(self).update(state)
    if not cls.__dict__.get("__annotations__"):  # pickle sends no state for an empty __dict__
        cls.__getstate__ = lambda self: self.__dict__
    return cls
