"""Exact rational arithmetic.

All core computations run on exact rationals (``fractions.Fraction``); no
floating point enters any invariant.  The hot loops (event scans, area
samples and lattice counts) run on Python integers.
"""

from __future__ import annotations

from fractions import Fraction as Rat


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


def floor_rat(x) -> int:
    x = Rat(x)
    return int(x.numerator // x.denominator)


def ceil_rat(x) -> int:
    return -floor_rat(-Rat(x))


def as_integer(x):
    """Exact integer value of x, or None when x is not an integer."""
    x = Rat(x)
    return int(x.numerator) if x.denominator == 1 else None
