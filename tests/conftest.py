"""Shared fixture catalog: the classical pairs with known closed forms."""

from __future__ import annotations

from hkdensity import (DegenerateError, PiecewisePoly, Poly, Rat, ToricPair,
                       hrep_from_vrep)


def hull_or_none(points):
    """The lattice hull of the points, or None when they lie on a
    hyperplane and so span no polytope."""
    try:
        return hrep_from_vrep(points)
    except DegenerateError:
        return None


def projective_line(n: int) -> ToricPair:
    """Degree-n pair on the line: base segment [0, n]."""
    return ToricPair.from_vertices([(0,), (n,)])


def hirzebruch(a: int, c: int, d: int) -> ToricPair:
    """Ruled-surface pair with twist a and bidegree (c, d)."""
    return ToricPair.from_fan([(1, 0), (0, 1), (-1, a), (0, -1)], [c, 0, 0, d])


def plane_anticanonical() -> ToricPair:
    return ToricPair.from_fan([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])


def quadric_anticanonical() -> ToricPair:
    """Product of two lines, anticanonical: base square [-1, 1]^2."""
    return ToricPair.from_fan([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1])


def blowup1_anticanonical() -> ToricPair:
    """Plane blown up in one torus point, anticanonical."""
    return ToricPair.from_fan([(1, 0), (0, 1), (-1, 1), (0, -1)], [1, 1, 1, 1])


def blowup2_anticanonical() -> ToricPair:
    """Plane blown up in two torus points, anticanonical (pentagon base)."""
    return ToricPair.from_fan(
        [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)], [1, 1, 1, 1, 1])


def blowup3_anticanonical() -> ToricPair:
    """Plane blown up in three torus points, anticanonical (hexagon base)."""
    return ToricPair.from_fan(
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], [1] * 6)


def symmetric_hexagon() -> ToricPair:
    """Centrally symmetric hexagon of area 9; tiles the plane."""
    return ToricPair.from_vertices(
        [(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)])


def unit_square() -> ToricPair:
    return ToricPair.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def plane_degree_one() -> ToricPair:
    """Unit 2-simplex: the plane with its hyperplane class (regular ring)."""
    return ToricPair.from_vertices([(0, 0), (1, 0), (0, 1)])


# (pair factory, integral of phi, growth coefficient A, base volume)
FANO_TABLE = [
    (quadric_anticanonical, Rat(1, 3), Rat(4, 3), Rat(4)),
    (plane_anticanonical, Rat(1, 3), Rat(3, 2), Rat(9, 2)),
    (blowup1_anticanonical, Rat(25, 72), Rat(25, 18), Rat(4)),
    (blowup2_anticanonical, Rat(13, 36), Rat(91, 72), Rat(7, 2)),
    (blowup3_anticanonical, Rat(7, 18), Rat(7, 6), Rat(3)),
]


def line_density_form(n: int) -> PiecewisePoly:
    """n*z on [0,1], n(1 - n(z-1)) on [1, 1+1/n]."""
    return PiecewisePoly.build(
        [0, 1, 1 + Rat(1, n)],
        [Poly.of(0, n), Poly.of(n * (1 + n), -n * n)])


def line_defect_form(n: int) -> PiecewisePoly:
    """1 - n*t on [0, 1/n]."""
    return PiecewisePoly.build([0, Rat(1, n)], [Poly.of(1, -n)])


def _piecewise(bps, pieces) -> PiecewisePoly:
    # tolerate collapsed intervals (the case split below overlaps at c == d)
    out_b, out_p = [bps[0]], []
    for b, p in zip(bps[1:], pieces):
        if b > out_b[-1]:
            out_b.append(b)
            out_p.append(p)
    return PiecewisePoly.build(out_b, out_p)


def hirzebruch_density_form(a: int, c: int, d: int) -> PiecewisePoly:
    """Closed form of the ruled-surface density function.

    For c <= d the third piece carries a factor z in its second term; the
    continuity of the density at z = 1 + 1/(c + ad) forces it.
    """
    a, c, d = Rat(a), Rat(c), Rat(d)
    vol = c * d + a * d * d / 2
    sections = (c + a * d / 2 + 1) * (d + 1)
    z = Poly.of(0, 1)
    head = Poly.of(0, 0, vol)
    # the translates u + (z - 1)P of the sections, disjoint just past z = 1
    shift = z - Poly.of(1)
    second = head - Poly.of(sections * vol) * shift * shift
    corner = Poly.of(c + 1, -c)
    ridge = Poly.of((c + a * d / 2) * (d + 1) / (2 * a)) * corner * corner
    fade = Poly.of(vol) * z * Poly.of(d + 1, -d)
    if c >= d:
        return _piecewise(
            [0, 1, 1 + 1 / (c + a * d), 1 + 1 / c, 1 + 1 / d],
            [head, second, ridge + fade, fade])
    wedge = Poly.of(1 + a) - Poly.of(c + a * d) * Poly.of(-1, 1)
    late = Poly.of((vol + a * d / 2) / (2 * a)) * wedge * wedge
    last = Poly.of(c / (2 * a)) * corner * corner
    return _piecewise(
        [0, 1, 1 + 1 / (c + a * d), 1 + 1 / d, 1 + (a + 1) / (a * d + c),
         1 + 1 / c],
        [head, second, ridge + fade, late + last, last])


def hirzebruch_defect_form(a: int, c: int, d: int) -> PiecewisePoly:
    """Closed form of the ruled-surface defect function."""
    a, c, d = Rat(a), Rat(c), Rat(d)
    vol = c * d + a * d * d / 2
    corner = Poly.of(1, -c)
    first = Poly.of(1) - Poly.of(0, 0, vol)
    second = Poly.of(1, -d) + Poly.of(Rat(1) / (2 * a)) * corner * corner
    if c >= d:
        return _piecewise(
            [0, 1 / (a * d + c), 1 / c, 1 / d],
            [first, second, Poly.of(1, -d)])
    wedge = Poly.of(1 + a, -(a * d + c))
    return _piecewise(
        [0, 1 / (a * d + c), 1 / d, (1 + a) / (a * d + c)],
        [first, second, Poly.of(Rat(1) / (2 * a)) * wedge * wedge])
