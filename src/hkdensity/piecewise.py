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
    """Polynomial with exact rational coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

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

    Breakpoints are strictly increasing; pieces[i] lives on
    [breakpoints[i], breakpoints[i+1]].  A single breakpoint and no pieces
    is the canonical identically-zero function.  Both fields are tuples.
    """

    __slots__ = ("breakpoints", "pieces")

    @staticmethod
    def build(breakpoints, pieces) -> "PiecewisePoly":
        bps = tuple(Rat(b) for b in breakpoints)
        ps = tuple(p if isinstance(p, Poly) else Poly(_strip(p)) for p in pieces)
        if len(bps) != len(ps) + 1 and not (len(bps) == 1 and not ps):
            raise ValueError("need one piece per interval")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        return PiecewisePoly(bps, ps)._normalized()

    @staticmethod
    def zero(at=0) -> "PiecewisePoly":
        return PiecewisePoly((Rat(at),), ())

    def _normalized(self) -> "PiecewisePoly":
        bps, ps = list(self.breakpoints), list(self.pieces)
        # merge adjacent intervals carrying the same polynomial
        i = 0
        while i + 1 < len(ps):
            if ps[i] == ps[i + 1]:
                del ps[i + 1]
                del bps[i + 1]
            else:
                i += 1
        # trim identically-zero ends
        while ps and ps[0] == ZERO_POLY:
            del ps[0]
            del bps[0]
        while ps and ps[-1] == ZERO_POLY:
            del ps[-1]
            del bps[-1]
        if not ps:
            return PiecewisePoly((Rat(0),), ())
        return PiecewisePoly(tuple(bps), tuple(ps))

    def __call__(self, x):
        x = Rat(x)
        bps = self.breakpoints
        if not self.pieces or x < bps[0] or x > bps[-1]:
            return Rat(0)
        i = bisect.bisect_right(bps, x) - 1
        if i == len(self.pieces):  # x == right end of the domain
            i -= 1
        return self.pieces[i](x)

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
        total = Rat(0)
        for i, p in enumerate(self.pieces):
            total += p.integrate(self.breakpoints[i], self.breakpoints[i + 1])
        return total

    def scale_arg(self, k) -> "PiecewisePoly":
        """The function x -> f(k*x) for k > 0."""
        k = Rat(k)
        if k <= 0:
            raise ValueError("positive scale required")
        bps = tuple(b / k for b in self.breakpoints)
        ps = tuple(Poly(tuple(c * k ** i for i, c in enumerate(p.coeffs)))
                   for p in self.pieces)
        return PiecewisePoly(bps, ps)._normalized()

    def is_continuous(self) -> bool:
        for i in range(1, len(self.pieces)):
            b = self.breakpoints[i]
            if self.pieces[i - 1](b) != self.pieces[i](b):
                return False
        return True

    def _pointwise(self, other, op) -> "PiecewisePoly":
        """x -> op(self(x), other(x)) on the union of both breakpoint sets."""
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        pieces = tuple(op(self.piece_at(m), other.piece_at(m)) for m in mids)
        return PiecewisePoly(tuple(cuts), pieces)._normalized()

    def __add__(self, other):
        return self._pointwise(other, Poly.__add__)

    def __sub__(self, other):
        return self._pointwise(other, Poly.__sub__)

    def __mul__(self, other):
        return self._pointwise(other, Poly.__mul__)

    def piece_at(self, x) -> Poly:
        """Polynomial on the interval containing x (0 outside the domain)."""
        x = Rat(x)
        if not self.pieces or x < self.breakpoints[0] or x >= self.breakpoints[-1]:
            return ZERO_POLY
        i = bisect.bisect_right(self.breakpoints, x) - 1
        return self.pieces[min(i, len(self.pieces) - 1)]


def pw_equal(f: PiecewisePoly, g: PiecewisePoly) -> bool:
    """Exact equality as functions on all of R."""
    return not (f - g).pieces


def pw_from_json(data: dict) -> PiecewisePoly:
    bps = [parse_rat(b) for b in data["breakpoints"]]
    ps = [Poly(_strip([parse_rat(c) for c in piece])) for piece in data["pieces"]]
    return PiecewisePoly.build(bps, ps)
