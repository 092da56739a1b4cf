"""Exact polynomials and piecewise polynomials over the rationals.

A PiecewisePoly is a list of strictly increasing breakpoints with one
polynomial per open interval; the function is 0 outside its domain.  This is
the common value type for density functions and unit-cell defect functions,
both continuous on their support.
"""

import bisect
from math import lcm

from .rationals import Rat, Value, parse_rat


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _strip(coeffs):
    coeffs = [Rat(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly(Value):
    """Polynomial with exact rational coefficients, ascending, in a tuple
    with no trailing zero (``of`` strips them): the zero polynomial is ()."""

    __slots__ = ("coeffs",)

    def _validate(self):
        if type(self.coeffs) is not tuple or self.coeffs[-1:] == (0,):
            raise ValueError("Poly coefficients: a tuple, no trailing zero")

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(_strip(coeffs))

    def __call__(self, x):
        x = Rat(x)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(_strip([
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [Rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(_strip(out))

    def integrate(self, a, b):
        a, b = Rat(a), Rat(b)
        return sum((c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                    for i, c in enumerate(self.coeffs)), Rat(0))


ZERO_POLY = Poly(())


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

class PiecewisePoly(Value):
    """Piecewise polynomial, implicitly 0 outside [breakpoints[0], breakpoints[-1]].

    pieces[i] lives on [breakpoints[i], breakpoints[i+1]].  ``build`` makes
    every value, in the one canonical form that ``_validate`` checks:
    strictly increasing ``Rat`` breakpoints, one ``Poly`` per interval, no
    two equal neighbours, no zero end piece, and the zero function as the
    single breakpoint 0.  So ``==`` is exact equality of functions.
    """

    __slots__ = ("breakpoints", "pieces")

    def _validate(self):
        bps, ps = self.breakpoints, self.pieces
        if not (type(bps) is tuple and type(ps) is tuple
                and len(bps) == len(ps) + 1
                and all(type(b) is Rat for b in bps)
                and all(type(p) is Poly for p in ps)
                and all(a < b for a, b in zip(bps, bps[1:]))
                and all(p != q for p, q in zip(ps, ps[1:]))
                and (ZERO_POLY not in (ps[0], ps[-1]) if ps else bps == (0,))):
            raise ValueError("not a canonical PiecewisePoly; use build")

    @staticmethod
    def build(breakpoints, pieces) -> "PiecewisePoly":
        """The function that is pieces[i] (a Poly) on [breakpoints[i],
        breakpoints[i+1]] and 0 elsewhere: equal neighbours merge and
        zero end pieces are trimmed."""
        bps, ps = [Rat(b) for b in breakpoints], list(pieces)
        if len(bps) != len(ps) + 1:
            raise ValueError("need one piece per interval")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for i in range(len(ps) - 1, 0, -1):
            if ps[i] == ps[i - 1]:
                del ps[i], bps[i]
        while ps and ps[0] == ZERO_POLY:
            del ps[0], bps[0]
        while ps and ps[-1] == ZERO_POLY:
            del ps[-1], bps[-1]
        return PiecewisePoly(tuple(bps) if ps else (Rat(0),), tuple(ps))

    def __call__(self, x):
        x = Rat(x)
        if self.pieces and x == self.breakpoints[-1]:  # the right end
            return self.pieces[-1](x)
        return self.piece_at(x)(x)

    def grid(self, end, n):
        """Values f(end*i/n) for i = 0..n, for end > 0 and n >= 1, as
        integer (numerator, denominator) pairs with positive, unreduced
        denominators: the same rationals as ``f(end*i/n)``, by the
        breakpoint rule of ``__call__``.

        With end = p/q, the samples are p*i/(q*n).  Each piece is put over
        the one denominator lcm(coefficient denominators)*(q*n)**deg, so its
        value at sample i is an integer polynomial in i, evaluated by
        Horner's rule; a cursor over the breakpoints picks the piece by
        cross-multiplied comparisons.
        """
        end = Rat(end)
        if end <= 0 or n < 1:
            raise ValueError("grid needs end > 0 and n >= 1")
        p, qn = int(end.numerator), int(end.denominator) * n
        if not self.pieces:
            return [(0, 1)] * (n + 1)
        bps = [(int(b.numerator), int(b.denominator)) for b in self.breakpoints]
        # per piece: its integer coefficients in i, highest first, and their
        # common denominator
        polys = []
        for piece in self.pieces:
            deg = len(piece.coeffs) - 1
            den = lcm(*(int(c.denominator) for c in piece.coeffs))
            polys.append((
                [int(c * den) * p ** j * qn ** (deg - j)
                 for j, c in reversed(list(enumerate(piece.coeffs)))],
                den * qn ** max(deg, 0)))
        (lo_n, lo_d), (hi_n, hi_d) = bps[0], bps[-1]
        last = len(polys) - 1
        k = -1
        out = []
        for i in range(n + 1):
            x = p * i   # the sample x/qn
            if x * lo_d < lo_n * qn or x * hi_d > hi_n * qn:
                out.append((0, 1))
                continue
            # the last breakpoint at or before the sample, capped at the
            # last piece: a breakpoint takes its right-hand piece
            while k < last and bps[k + 1][0] * qn <= x * bps[k + 1][1]:
                k += 1
            coeffs, den = polys[k]
            acc = 0
            for c in coeffs:
                acc = acc * i + c
            out.append((acc, den))
        return out

    def integral(self):
        bps = self.breakpoints
        return sum((p.integrate(a, b)
                    for p, a, b in zip(self.pieces, bps, bps[1:])), Rat(0))

    def scale_arg(self, k) -> "PiecewisePoly":
        """The function x -> f(k*x) for an integer k >= 1."""
        if int(k) != k or k < 1:
            raise ValueError("positive integer multiple required")
        k = int(k)
        bps = tuple(b / k for b in self.breakpoints)
        ps = tuple(Poly(tuple(c * k ** i for i, c in enumerate(p.coeffs)))
                   for p in self.pieces)
        return PiecewisePoly.build(bps, ps)

    def is_continuous(self) -> bool:
        ps, bps = self.pieces, self.breakpoints
        return all(p(b) == q(b) for p, q, b in zip(ps, ps[1:], bps[1:]))

    def _pointwise(self, other, op) -> "PiecewisePoly":
        """x -> op(self(x), other(x)) on the union of both breakpoint sets."""
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        pieces = tuple(op(self.piece_at(m), other.piece_at(m)) for m in mids)
        return PiecewisePoly.build(cuts, pieces)

    def __add__(self, other):
        return self._pointwise(other, Poly.__add__)

    def __sub__(self, other):
        return self._pointwise(other, Poly.__sub__)

    def __mul__(self, other):
        return self._pointwise(other, Poly.__mul__)

    def piece_at(self, x) -> Poly:
        """Polynomial on the interval containing x (0 outside the domain)."""
        x = Rat(x)
        if x < self.breakpoints[0] or x >= self.breakpoints[-1]:
            return ZERO_POLY
        return self.pieces[bisect.bisect_right(self.breakpoints, x) - 1]


def pw_from_json(data: dict) -> PiecewisePoly:
    bps = [parse_rat(b) for b in data["breakpoints"]]
    ps = [Poly.of(*map(parse_rat, piece)) for piece in data["pieces"]]
    return PiecewisePoly.build(bps, ps)
