"""Value records: equality, hashing, repr and immutability from ``_fields``.

A subclass names its compared fields, in order, in ``_fields`` and sets
them in its own ``__init__`` with :data:`set_field`.  Two records are
equal when they are of the same class and their fields are equal; a
record of another class compares as ``NotImplemented``.  An attribute
left out of ``_fields`` (the syntax nodes' source ``pos``) takes no part
in ``==``, ``hash`` or ``repr``, which reads ``Cls(a=..., b=...)``.
"""

__all__ = ["Record", "MutableRecord", "set_field"]

#: Sets a field of a frozen record; only its ``__init__`` calls this.
set_field = object.__setattr__


class Record:
    """Frozen: assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class MutableRecord(Record):
    """A record whose fields may be reassigned, so it has no hash."""

    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
