"""Named invariants of toric pairs.

A toric pair is modelled by its base lattice polytope P of dimension d-1;
the associated graded ring never has to be touched, because every length
that enters the density function is a lattice count.  This module assembles:

* ``hkd_function`` -- the density function, equal to Vol(P) * z^{d-1} on
  [0, 1] and to the exact area of the sliced cone difference on [1, 1+l];
  ``e_hk`` is its integral, the Hilbert-Kunz multiplicity (at k: that of
  the k-th power of the maximal ideal);
* ``phi_function`` -- the unit-cell defect function, compactly supported and
  continuous, which controls the second-order growth of e_HK over powers of
  the maximal ideal (at k: that of the k-th multiple);
* ``limit_values`` -- e0, the integral of phi and the growth coefficient A;
* ``tiling_values`` -- the exact translate-tiling criterion and its gap B,
  the only float in sight;
* ``hk_report`` -- all of these at once.

Every invariant folds over ``_factors``: a product's factors, recursively,
and each lattice box (up to a unimodular map) as its edge segments.  One
product rule serves both functions: Vol * z^n - HKd multiplies as 1 - phi
does.  A segment is answered in closed form; only planar factors that are
not boxes load the area engine in ``regions``, and any other is refused.
"""

from functools import lru_cache, reduce
from math import factorial, prod
from operator import mul

from . import geometry as geo
from .errors import BreakpointVerificationError, UnsupportedDimensionError
from .pairs import SegrePair, ToricPair
from .piecewise import PiecewisePoly, Poly
from .rationals import Value


def _factors(pair) -> list:
    """The flat list of factors every invariant of ``pair`` folds over: the
    factors of a product, recursively; the edge segments [0, hi_i - lo_i] of
    a lattice box up to a unimodular map; any other base itself.

    A box of dimension n >= 2 has exactly 2n facet rows in opposite pairs
    <w_i, x> >= lo_i, <-w_i, x> >= -hi_i with |det(w_1..w_n)| = 1, so that
    x -> (<w_i, x>) maps it onto the product of the [lo_i, hi_i]."""
    if isinstance(pair, SegrePair):
        return [g for f in pair.factors for g in _factors(f)]
    P = pair.polytope
    rows = dict(P.halfspaces)
    sides = {w: (lo, -rows[neg]) for w, lo in rows.items()
             if (neg := tuple(-c for c in w)) in rows and w > neg}
    if (P.dim < 2 or len(rows) != 2 * P.dim or len(sides) != P.dim
            or abs(geo.det(list(sides))) != 1):
        return [pair]
    return [ToricPair.from_vertices([(0,), (hi - lo,)])
            for lo, hi in sides.values()]


def pair_volume(pair):
    """Base-polytope volume; multiplicative over products."""
    return prod(geo.volume(f.polytope) for f in _factors(pair))


def h0(pair) -> int:
    """Number of lattice points of the base polytope (section count)."""
    return prod(geo.lattice_count(geo.lattice_lines(
        f.polytope.halfspaces, geo.fiber_box(f.polytope)))
        for f in _factors(pair))


def _exact_factors(pair) -> list:
    """``_factors(pair)``, refusing any factor but segments and polygons."""
    factors = _factors(pair)
    dim = max(f.polytope.dim for f in factors)
    if dim > 2:
        raise UnsupportedDimensionError(
            f"no exact function for a factor of dimension {dim} that is not "
            "a lattice box; use the counting oracle ('oracle')")
    return factors


def _product(terms) -> PiecewisePoly:
    """The product rule full - prod(full_i - f_i) on [0, end] over the terms
    (full_i, f_i): full = prod(full_i), and every f_i vanishes outside
    [0, end].  HKd takes full_i = Vol_i * z^{n_i}, phi takes full_i = 1."""
    if len(terms) == 1:
        return terms[0][1]
    end = max(f.breakpoints[-1] for _, f in terms)
    covered = [PiecewisePoly.build([0, end], [p]) - f for p, f in terms]
    full = reduce(mul, (p for p, _ in terms))
    return PiecewisePoly.build([0, end], [full]) - reduce(mul, covered)


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
    tail = regions.family_volume_function(regions.hk_family(P), 1, 1 + pair.l)
    # tail(1) = vol > 0 also puts the tail's first breakpoint at 1
    if tail(1) != vol:
        raise BreakpointVerificationError(
            "density function discontinuous at level 1")
    out = PiecewisePoly.build([0, *tail.breakpoints],
                              [Poly.of(0, 0, vol), *tail.pieces])
    if not out.is_continuous():
        raise BreakpointVerificationError(
            "density function fails exact continuity")
    return out


def hkd_function(pair) -> PiecewisePoly:
    """Exact density function on [0, 1+l] (identically 0 afterwards).

    The translates covering z*(P x Q) are products of those covering z*P
    and z*Q, so the covered density Vol * z^dim - HKd multiplies over the
    factors, as 1 - phi does."""
    return _product([
        (Poly.of(*[0] * f.polytope.dim, geo.volume(f.polytope)),
         _hkd_cached(f)) for f in _exact_factors(pair)])


def e_hk(pair, k: int = 1):
    """Exact Hilbert-Kunz multiplicity with respect to the k-th power of the
    maximal ideal, via the multiple-divisor identity
    e_HK(R, m^k) = k * e_HK(X, kD); at k = 1, the integral of the density."""
    return int(k) * hkd_function(pair.scaled(k)).integral()


def cell_cover_scale(pair) -> int:
    """1 if P contains an integer translate of the unit cell, else 2.  phi
    vanishes there: a lattice polygon contains a unimodular triangle T (an
    empty lattice triangle has area 1/2 by Pick's theorem), and 2T contains
    the parallelogram on T's edges at a vertex, a fundamental domain of Z^2,
    so the integer translates of 2P cover the plane."""
    P = pair.polytope
    # v + [0,1]^n lies in P iff v meets each row at its worst corner
    eroded = [(n, off - sum(min(c, 0) for c in n)) for n, off in P.halfspaces]
    lines = geo.lattice_lines(eroded, geo.fiber_box(P))
    return 1 if any(a <= b for *_, bottoms, tops in lines
                    for a, b in zip(bottoms, tops)) else 2


@lru_cache(maxsize=256)
def _phi_cached(pair: ToricPair) -> PiecewisePoly:
    """phi of a segment in closed form, else the defect family's area on
    [0, r], r = ``cell_cover_scale``, certified to be 1 at 0 and 0 at r."""
    P = pair.polytope
    if P.dim == 1:
        # the translates u + t*[0, n] leave 1 - n*t of the cell uncovered
        vol = geo.volume(P)
        return PiecewisePoly.build([0, 1 / vol], [Poly.of(1, -vol)])
    from . import regions
    r = cell_cover_scale(pair)
    fam = regions.phi_family(P, r)
    phi = regions.family_volume_function(fam, 0, r)
    if phi(0) != 1 or phi(r) != 0:
        raise BreakpointVerificationError(
            "defect function must start at 1 and vanish at the cover scale")
    return phi


def phi_function(pair, k: int = 1) -> PiecewisePoly:
    """Unit-cell defect function phi: compactly supported, continuous,
    with phi(0) = 1.  For products it is combined multiplicatively.  At k it
    is that of the k-th multiple divisor, t -> phi(k*t)."""
    return _product([(Poly.of(1), _phi_cached(f))
                     for f in _exact_factors(pair)]).scale_arg(k)


def _limit(d, vol, phi):
    """``limit_values`` from the dimension, base volume and phi of a pair."""
    phi_int = phi.integral()
    return factorial(d - 1) * vol, phi_int, vol * phi_int


def limit_values(pair):
    """(e0, integral of phi, limit_A): the embedding degree (d-1)! * Vol(P),
    the Hilbert-Samuel multiplicity, and the second-order growth coefficient
    of e_HK over powers of the maximal ideal, Vol(P) times the integral of
    phi."""
    return _limit(pair.d, pair_volume(pair), phi_function(pair))


def _tiling(d, vol, phi):
    """``tiling_values`` from the dimension, base volume and phi of a pair."""
    bound = Poly.of(1, *[0] * (d - 2), -vol)
    if phi == PiecewisePoly.build([0, phi.breakpoints[-1]], [bound]):
        return True, 0.0
    e0, _, a = _limit(d, vol, phi)
    expo = (2 - d) / (d - 1)
    return False, float(e0) ** expo * float(a) - (
        (d - 1) / d) * float(factorial(d - 1)) ** expo


def tiling_values(pair):
    """(is_tiler, tiling_gap_B): whether translates of a dilate of P tile
    space with the integer lattice, and the distance of the renormalized
    growth coefficient from its universal lower bound,
    B = e0^((2-d)/(d-1)) * A - ((d-1)/d) * ((d-1)!)^((2-d)/(d-1)).

    The verdict is exact: phi >= max(0, 1 - Vol * t^{d-1}) always holds,
    with equality (as functions) precisely in the tiling case, so it
    suffices to compare phi with 1 - Vol * t^{d-1} on phi's support.  B is
    then exactly 0.0; otherwise it is a positive float (the fractional
    exponents force floating point once d >= 3)."""
    return _tiling(pair.d, pair_volume(pair), phi_function(pair))


class HKReport(Value):
    """All computed invariants of one pair: exact rationals, except the
    integers ``d``, ``l`` and ``h0``, the PiecewisePoly ``hkd`` and ``phi``,
    the float ``tiling_gap_B`` and the bool ``is_tiler``.
    """

    __slots__ = ("d", "l", "e0", "h0", "hkd", "e_hk", "phi", "phi_integral",
                 "limit_A", "tiling_gap_B", "is_tiler")


def hk_report(pair) -> HKReport:
    phi, hkd, vol = phi_function(pair), hkd_function(pair), pair_volume(pair)
    e0, phi_int, a = _limit(pair.d, vol, phi)
    tiles, gap = _tiling(pair.d, vol, phi)
    return HKReport(
        d=pair.d, l=pair.l, e0=e0, h0=h0(pair), hkd=hkd, e_hk=hkd.integral(),
        phi=phi, phi_integral=phi_int, limit_A=a, tiling_gap_B=gap,
        is_tiler=tiles)
