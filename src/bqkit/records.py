"""The base classes of bqkit's value records.

A record names its fields in ``_fields`` and sets them in an
``__init__`` of its own.  Each record class gets one field getter,
``_values``, built from ``_fields`` by ``operator.attrgetter`` when the
class is defined; it returns the record's field tuple, and equality,
hashing and the repr all read it.  ``Record`` prints a record as
``Name(field=value, ...)``, compares it by its field tuple with records
of the same class only, and leaves it unhashable.  ``FrozenRecord``
also hashes the field tuple and refuses to assign or delete any
attribute, so a frozen record's ``__init__`` sets each field with
``object.__setattr__``.  It never writes ``self.__dict__`` directly:
that would give up CPython's compact per-instance attribute storage,
and every later attribute read would be slower.

Nothing is generated at import time, so ``import bqkit`` loads neither
``dataclasses`` nor ``inspect``.
"""

from operator import attrgetter


class Record:
    """A mutable record: printed and compared by value, not hashable."""

    _fields = ()

    def __init_subclass__(cls):
        fields = cls._fields
        if len(fields) == 1:
            # attrgetter of one name returns the bare value, not a 1-tuple
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda record: (get(record),))
        elif fields:
            cls._values = staticmethod(attrgetter(*fields))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % pair for pair in zip(self._fields, self._values(self))]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented


class FrozenRecord(Record):
    """An immutable record, hashed by value."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
