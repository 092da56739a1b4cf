"""Named invariants of toric pairs.

A toric pair is modelled by its base lattice polytope P of dimension d-1;
the associated graded ring never has to be touched, because every length
that enters the density function is a lattice count.  This module assembles:

* ``hkd_function`` -- the density function, equal to Vol(P) * z^{d-1} on
  [0, 1] and to the exact area of the sliced cone difference on [1, 1+l];
* ``e_hk`` -- its integral, the Hilbert-Kunz multiplicity;
* ``phi_function`` -- the unit-cell defect function, compactly supported and
  continuous, which controls the second-order growth of e_HK over powers of
  the maximal ideal;
* ``limit_A`` -- the growth coefficient Vol(P) * integral(phi);
* ``is_tiler`` / ``tiling_gap_B`` -- the exact translate-tiling criterion:
  the pair attains the minimal renormalized growth iff phi coincides with
  max(0, 1 - Vol(P) * t^{d-1});
* ``segre_phi`` -- the product rule (1 - phi_{XxY}) = (1 - phi_X)(1 - phi_Y).

A base segment [0, n] (up to translation) is answered in closed form from
n alone; only planar bases load the area engine in ``regions``.

Everything is exact; the only float in sight is the reported gap B, whose
fractional exponents force floating point for d >= 3 (its zero test is still
decided exactly).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import factorial, prod

from . import geometry as geo
from .errors import (BreakpointVerificationError, DegenerateError,
                     UnsupportedDimensionError)
from .pairs import SegrePair, ToricPair, segre  # noqa: F401 (segre re-exported)
from .piecewise import PiecewisePoly, Poly, pw_combine, pw_equal
from .rationals import Rat, Value


def pair_volume(pair):
    """Base-polytope volume; multiplicative over products."""
    if isinstance(pair, SegrePair):
        out = Rat(1)
        for f in pair.factors:
            out *= pair_volume(f)
        return out
    return geo.volume(pair.polytope)


def e0(pair):
    """Embedding degree (d-1)! * Vol(P), the Hilbert-Samuel multiplicity."""
    return factorial(pair.d - 1) * pair_volume(pair)


def h0(pair) -> int:
    """Number of lattice points of the base polytope (section count)."""
    if isinstance(pair, SegrePair):
        return prod(h0(f) for f in pair.factors)
    P = pair.polytope
    lines = geo.lattice_lines(P.halfspaces, geo.fiber_box(P))
    return geo.lattice_count(lines)


def _as_direct_pair(pair):
    """Materialize a product as a direct pair when its base fits dim 1..2."""
    if isinstance(pair, ToricPair):
        if pair.polytope.dim > 2:
            raise UnsupportedDimensionError(
                "density function needs base dimension 1 or 2; "
                "use a product form or the counting oracle")
        return pair
    P = pair.polytope
    if P.dim > 2:
        raise UnsupportedDimensionError(
            "density function of a product with base dimension >= 3; "
            "only phi/limit are available (via the product rule)")
    return ToricPair(P, "segre")


@lru_cache(maxsize=256)
def _hkd_cached(pair: ToricPair) -> PiecewisePoly:
    P = pair.polytope
    vol = geo.volume(P)
    if P.dim == 1:
        # a segment is a translate of [0, n]: its n+1 lattice points carry
        # disjoint translates of (z-1)*[0, n] until they fill z*[0, n]
        return PiecewisePoly.build([0, 1, 1 + 1 / vol], [
            Poly.of(0, vol), Poly.of(vol * (vol + 1), -vol * vol)])
    from . import regions
    fam = regions.hk_family(P)
    tail = regions.family_volume_function(fam, 0, pair.l, vanish_monotone=True)
    if tail(0) != vol:
        raise BreakpointVerificationError(
            "density function discontinuous at level 1")
    # vol * z^2 on [0, 1], then the tail reparameterized from t to z = 1 + t
    out = PiecewisePoly.build(
        [0, 1] + [b + 1 for b in tail.breakpoints[1:]],
        [Poly.of(0, 0, vol)] + [p.compose_affine(1, -1) for p in tail.pieces])
    if not out.is_continuous():
        raise BreakpointVerificationError(
            "density function fails exact continuity")
    return out


def hkd_function(pair) -> PiecewisePoly:
    """Exact density function on [0, 1+l] (identically 0 afterwards)."""
    return _hkd_cached(_as_direct_pair(pair))


def e_hk(pair):
    """Hilbert-Kunz multiplicity: the exact integral of the density."""
    return hkd_function(pair).integral()


def cell_cover_scale(pair) -> int:
    """Least positive integer r such that r*P contains some integer
    translate of the unit cell; phi vanishes at and beyond r."""
    pair = _as_direct_pair(pair)
    P = geo.anchored(pair.polytope)
    rows = P.halfspaces
    for r in range(1, 65):
        # v + [0,1]^n lies in r*P iff v meets each row at its worst corner
        eroded = [(n, r * off - sum(min(c, 0) for c in n)) for n, off in rows]
        lines = geo.lattice_lines(eroded, geo.fiber_box(P, r))
        if any(a <= b for *_, bottoms, tops in lines
               for a, b in zip(bottoms, tops)):
            return r
    raise DegenerateError(
        "no multiple r*P with r <= 64 contains a translate of the unit cell; "
        "the base polytope is too thin")


@lru_cache(maxsize=256)
def _phi_cached(pair: ToricPair) -> PiecewisePoly:
    P = pair.polytope
    if P.dim == 1:
        # the translates u + t*[0, n] leave 1 - n*t of the cell uncovered
        vol = geo.volume(P)
        return PiecewisePoly.build([0, 1 / vol], [Poly.of(1, -vol)])
    from . import regions
    r = cell_cover_scale(pair)
    fam = regions.phi_family(P, Rat(r))
    phi = regions.family_volume_function(fam, 0, Rat(r), vanish_monotone=True)
    if phi(0) != 1:
        raise BreakpointVerificationError("defect function must start at 1")
    return phi


def phi_function(pair) -> PiecewisePoly:
    """Unit-cell defect function phi: compactly supported, continuous,
    with phi(0) = 1.  For products it is combined multiplicatively."""
    if isinstance(pair, SegrePair):
        return reduce(segre_phi, (phi_function(f) for f in pair.factors))
    if pair.polytope.dim > 2:
        raise UnsupportedDimensionError(
            "direct defect function needs base dimension 1 or 2; "
            "express the pair as a product or use the counting oracle")
    return _phi_cached(pair)


def phi_scaled(pair, k: int) -> PiecewisePoly:
    """Defect function of the k-th multiple divisor: t -> phi(k*t)."""
    if int(k) != k or k < 1:
        raise ValueError("positive integer multiple required")
    return phi_function(pair).scale_arg(Rat(int(k)))


def phi_integral(pair):
    return phi_function(pair).integral()


def limit_A(pair):
    """Second-order growth coefficient of e_HK over powers of the maximal
    ideal: Vol(P) times the integral of phi."""
    return pair_volume(pair) * phi_integral(pair)


def segre_phi(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    """Product rule: phi of a product pair is f + g - f*g."""
    return pw_combine(pw_combine(f, g, "add"), pw_combine(f, g, "mul"), "sub")


def is_tiler(pair) -> bool:
    """Whether translates of a dilate of P tile space with the integer
    lattice.  Decided exactly: phi >= max(0, 1 - Vol * t^{d-1}) always
    holds, with equality (as functions) precisely in the tiling case, so it
    suffices to compare phi with 1 - Vol * t^{d-1} on phi's support."""
    phi = phi_function(pair)
    dm1 = pair.d - 1
    vol = pair_volume(pair)
    support_end = phi.breakpoints[-1]
    bound = Poly(tuple([Rat(1)] + [Rat(0)] * (dm1 - 1) + [-vol]))
    return pw_equal(phi, PiecewisePoly.build(
        [Rat(0), support_end], [bound]))


def tiling_gap_B(pair) -> float:
    """Distance of the renormalized growth coefficient from its universal
    lower bound: e0^((2-d)/(d-1)) * A - ((d-1)/d) * ((d-1)!)^((2-d)/(d-1)).

    Exactly 0.0 in the tiling case (decided by the exact phi identity);
    otherwise a positive float (the fractional exponents force floating
    point once d >= 3).
    """
    if is_tiler(pair):
        return 0.0
    d = pair.d
    a = float(limit_A(pair))
    expo = (2 - d) / (d - 1)
    return (float(e0(pair)) ** expo) * a - ((d - 1) / d) * float(
        factorial(d - 1)) ** expo


def ehk_power(pair, k: int):
    """Exact e_HK of the ring with respect to the k-th power of the maximal
    ideal, via the multiple-divisor identity e_HK(R, m^k) = k * e_HK(X, kD)."""
    if int(k) != k or k < 1:
        raise ValueError("positive integer power required")
    direct = _as_direct_pair(pair)
    return Rat(int(k)) * e_hk(direct.scaled(int(k)))


class HKReport(Value):
    """All computed invariants of one pair: exact rationals, except the
    integers ``d``, ``l`` and ``h0``, the PiecewisePoly ``hkd`` and ``phi``,
    the float ``tiling_gap_B`` and the bool ``is_tiler``.  ``hkd`` and
    ``e_hk`` are None when the base dimension exceeds 2.
    """

    __slots__ = ("d", "l", "e0", "h0", "hkd", "e_hk", "phi", "phi_integral",
                 "limit_A", "tiling_gap_B", "is_tiler")


def hk_report(pair) -> HKReport:
    phi = phi_function(pair)
    try:
        hkd = hkd_function(pair)
        ehk = hkd.integral()
    except UnsupportedDimensionError:
        hkd, ehk = None, None
    return HKReport(
        d=pair.d,
        l=pair.l,
        e0=e0(pair),
        h0=h0(pair),
        hkd=hkd,
        e_hk=ehk,
        phi=phi,
        phi_integral=phi.integral(),
        limit_A=limit_A(pair),
        tiling_gap_B=tiling_gap_B(pair),
        is_tiler=is_tiler(pair),
    )
