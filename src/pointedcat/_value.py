"""Frozen value classes, written out by hand.

Importing the standard library's class generator (with ``inspect``, ``ast``
and ``dis``) and generating each class's methods through ``exec`` cost every
CLI process about 20 ms.  A value class here names its constructor arguments in
``_fields`` and writes its own ``__init__``, which stores them with
``setfield`` and then runs its checks.  Instances refuse assignment and
deletion, print as ``Name(field=value, ...)``, compare and hash field by
field, and pickle and copy through the constructor; hot classes write out
``__eq__`` and ``__hash__`` per field.
"""

setfield = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as replace does
        return type(self), self._astuple()


def replace(obj: Value, **changes) -> Value:
    """A copy of obj with some fields changed, built through the constructor
    so its checks run again."""
    return type(obj)(**({name: getattr(obj, name) for name in obj._fields} | changes))
