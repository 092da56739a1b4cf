"""Exact rational arithmetic.

All core computations run on exact rationals (``fractions.Fraction``); no
floating point enters any invariant.  The hot loops (the event scan, area
samples and lattice counts) run on Python integers.  ``Value`` is the
base of the package's immutable value types.
"""

from fractions import Fraction as Rat
from math import gcd
from operator import attrgetter


def parse_rat(text: str):
    """Parse "p/q" or "p" (ASCII or U+2212 minus) into a Rat."""
    s = str(text).strip().replace("−", "-")
    if "/" in s:
        num, den = s.split("/", 1)
        return Rat(int(num), int(den))
    return Rat(int(s))


def rat_str(x) -> str:
    """Canonical "p/q" (or "p" for integers) rendering."""
    return str(Rat(x))


def ratio_str(n: int, d: int) -> str:
    """``rat_str`` of the integer ratio n/d with d > 0, after one gcd."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields, in constructor order, in ``__slots__`` (a
    subclass adding none declares ``__slots__ = ()``).  Fields are set
    positionally or by keyword, then ``_validate`` runs.  Values compare and
    hash by exact class and fields, and refuse attribute assignment.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        # both called as f(obj, ...): the slot setters skip __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._field_values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self._validate()

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order from positional and keyword ones."""
        fields = cls._fields
        values = dict(zip(fields, args), **kwargs)
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
        return [values[name] for name in fields]

    def _validate(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self):
        return hash((self.__class__, self._field_values(self)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {self.__class__.__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {self.__class__.__name__}.{name}")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
