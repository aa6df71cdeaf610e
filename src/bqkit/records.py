"""The base classes of bqkit's value records.

A record names its fields in ``_fields`` and sets them in an
``__init__`` of its own.  ``Record`` prints it as
``Name(field=value, ...)``, compares it by its field tuple with records
of the same class only, and leaves it unhashable.  ``FrozenRecord``
also hashes the field tuple and refuses to assign or delete any
attribute, so a frozen record's ``__init__`` sets each field with
``object.__setattr__``.  It never writes ``self.__dict__`` directly:
that would give up CPython's compact per-instance attribute storage,
and every later attribute read would be slower.  The records that key
hot dictionaries or are compared in inner loops (arrows, paths, walks,
relations, ...) spell out ``__eq__`` and ``__hash__`` over their
fields, which is faster than the generic methods here.

Nothing is generated at import time, so ``import bqkit`` loads neither
``dataclasses`` nor ``inspect``.
"""


class Record:
    """A mutable record: printed and compared by value, not hashable."""

    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class FrozenRecord(Record):
    """An immutable record, hashed by value."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
