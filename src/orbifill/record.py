"""Base class of the small immutable value records.

A subclass's ``__init__`` stores its fields, in declaration order, with
``self.__dict__.update(...)`` (attribute assignment is refused), and runs its
checks. Equality, hashing and the repr then read the fields from
``__dict__``: two records are equal when they are of the same class with
equal fields, and hash like the tuple of their fields.
"""


class Record:
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
