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

Every invariant of a product folds over its factors, in any dimension, as
does every invariant of a lattice box up to a unimodular map (the product of
its edge segments).  A base segment [0, n] (up to translation) is answered
in closed form from n alone; only planar bases that are not boxes load the
area engine in ``regions``.

Everything is exact; the only float in sight is the reported gap B, whose
fractional exponents force floating point for d >= 3 (its zero test is still
decided exactly).
"""

from functools import lru_cache, reduce
from math import factorial, prod

from . import geometry as geo
from .errors import BreakpointVerificationError, UnsupportedDimensionError
from .pairs import SegrePair, ToricPair, segre  # noqa: F401 (segre re-exported)
from .piecewise import PiecewisePoly, Poly, pw_combine, pw_equal
from .rationals import Rat, Value


def pair_volume(pair):
    """Base-polytope volume; multiplicative over products."""
    pair = _folded(pair)
    if isinstance(pair, SegrePair):
        return prod(pair_volume(f) for f in pair.factors)
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


def _folded(pair):
    """The product of segments [0, hi_i - lo_i] when the base of ``pair`` is
    a lattice box up to a unimodular map, else ``pair`` itself.

    A box of dimension n >= 2 has exactly 2n facet rows in opposite pairs
    <w_i, x> >= lo_i, <-w_i, x> >= -hi_i with |det(w_1..w_n)| = 1, so that
    x -> (<w_i, x>) maps it onto the product of the [lo_i, hi_i]."""
    if not isinstance(pair, ToricPair) or pair.polytope.dim < 2:
        return pair
    P = pair.polytope
    rows = dict(P.halfspaces)
    sides = {w: (lo, -rows[neg]) for w, lo in rows.items()
             if (neg := tuple(-c for c in w)) in rows and w > neg}
    if (len(rows) != 2 * P.dim or len(sides) != P.dim
            or abs(geo.det(list(sides))) != 1):
        return pair
    return SegrePair(tuple(ToricPair.from_vertices([(0,), (hi - lo,)])
                           for lo, hi in sides.values()))


def _box(pair, end) -> PiecewisePoly:
    """Vol(P) * z^dim(P) on [0, end]: the normalized count of z*P."""
    return PiecewisePoly.build(
        [0, end], [Poly.of(*[0] * (pair.d - 1), pair_volume(pair))])


def hkd_function(pair) -> PiecewisePoly:
    """Exact density function on [0, 1+l] (identically 0 afterwards).

    A product folds over its factors: the translates covering z*(P x Q) are
    products of those covering z*P and z*Q, so the covered density
    Vol * z^dim - HKd multiplies, as 1 - phi does."""
    pair = _folded(pair)
    if isinstance(pair, ToricPair):
        if pair.polytope.dim > 2:
            raise UnsupportedDimensionError(
                "density function needs base dimension 1 or 2 or a lattice "
                "box; use a product form or the counting oracle")
        return _hkd_cached(pair)
    hkds = [hkd_function(f) for f in pair.factors]
    end = max(h.breakpoints[-1] for h in hkds)
    covered = reduce(lambda f, g: pw_combine(f, g, "mul"), (
        pw_combine(_box(f, end), h, "sub") for f, h in zip(pair.factors, hkds)))
    return pw_combine(_box(pair, end), covered, "sub")


def e_hk(pair):
    """Hilbert-Kunz multiplicity: the exact integral of the density."""
    return hkd_function(pair).integral()


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
    fam = regions.phi_family(P, Rat(r))
    phi = regions.family_volume_function(fam, 0, Rat(r))
    if phi(0) != 1 or phi(r) != 0:
        raise BreakpointVerificationError(
            "defect function must start at 1 and vanish at the cover scale")
    return phi


def phi_function(pair) -> PiecewisePoly:
    """Unit-cell defect function phi: compactly supported, continuous,
    with phi(0) = 1.  For products it is combined multiplicatively."""
    pair = _folded(pair)
    if isinstance(pair, SegrePair):
        return reduce(segre_phi, (phi_function(f) for f in pair.factors))
    if pair.polytope.dim > 2:
        raise UnsupportedDimensionError(
            "direct defect function needs base dimension 1 or 2 or a "
            "lattice box; use a product form or the counting oracle")
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
    return Rat(int(k)) * e_hk(pair.scaled(int(k)))


class HKReport(Value):
    """All computed invariants of one pair: exact rationals, except the
    integers ``d``, ``l`` and ``h0``, the PiecewisePoly ``hkd`` and ``phi``,
    the float ``tiling_gap_B`` and the bool ``is_tiler``.
    """

    __slots__ = ("d", "l", "e0", "h0", "hkd", "e_hk", "phi", "phi_integral",
                 "limit_A", "tiling_gap_B", "is_tiler")


def hk_report(pair) -> HKReport:
    phi = phi_function(pair)
    hkd = hkd_function(pair)
    return HKReport(
        d=pair.d,
        l=pair.l,
        e0=e0(pair),
        h0=h0(pair),
        hkd=hkd,
        e_hk=hkd.integral(),
        phi=phi,
        phi_integral=phi.integral(),
        limit_A=limit_A(pair),
        tiling_gap_B=tiling_gap_B(pair),
        is_tiler=is_tiler(pair),
    )
