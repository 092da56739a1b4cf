"""Toric pairs and their products, as values.

A projective toric pair is given by its base lattice polytope.  These types
are all that spec parsing and the counting oracle need, so they live apart
from the exact engine in ``analysis``.
"""

from functools import reduce
from math import prod

from . import geometry as geo
from .errors import DegenerateError, UnsupportedDimensionError
from .rationals import Value


class ToricPair(Value):
    """A projective toric pair, given by its base lattice polytope.

    ``d`` is the dimension of the associated graded ring (base dimension
    plus one) and ``l`` the number of vertices of the base polytope.
    """

    __slots__ = ("polytope",)

    def _validate(self):
        P = self.polytope
        if P.dim < 1 or P.dim > 4:
            raise UnsupportedDimensionError(
                f"base polytope dimension {P.dim} outside 1..4")

    @staticmethod
    def from_vertices(points) -> "ToricPair":
        try:
            P = geo.hrep_from_vrep(points)
        except DegenerateError:
            raise DegenerateError(
                "base polytope must be full-dimensional") from None
        return ToricPair(P)

    @staticmethod
    def from_fan(rays, coeffs) -> "ToricPair":
        return ToricPair(geo.polytope_from_divisor(rays, coeffs))

    @property
    def d(self) -> int:
        return self.polytope.dim + 1

    @property
    def l(self) -> int:
        return len(self.polytope.vertices)

    def scaled(self, k: int) -> "ToricPair":
        """The pair of the dilated polytope k*P (the k-th multiple divisor)."""
        if int(k) != k or k < 1:
            raise ValueError("positive integer multiple required")
        return ToricPair(geo.scale(self.polytope, int(k)))


class SegrePair(Value):
    """Product of toric pairs; invariants multiply along the factors."""

    __slots__ = ("factors",)

    def _validate(self):
        if len(self.factors) < 2:
            raise ValueError("a product needs at least two factors")

    @property
    def polytope(self):
        return reduce(geo.product, [f.polytope for f in self.factors])

    @property
    def d(self) -> int:
        return sum(f.d - 1 for f in self.factors) + 1

    @property
    def l(self) -> int:
        return prod(f.l for f in self.factors)

    def scaled(self, k: int) -> "SegrePair":
        """The product of the factors' k-th multiples: k(P x Q) = kP x kQ."""
        return SegrePair(tuple(f.scaled(k) for f in self.factors))


def segre(*pairs) -> SegrePair:
    return SegrePair(tuple(pairs))
