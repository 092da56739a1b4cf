"""Exact area functions of the cone-difference regions.

The density function of a toric pair at level z > 1 is the area of a dilate
of the base polytope minus lattice translates of a smaller dilate; the
unit-cell defect function is the uncovered area of a unit cell under lattice
translates of a dilate.  Both are instances of one parametric family: a
minuend and translates of one shape, each a nonnegative dilate
(c0 + c1*t)*polytope of a fixed polytope.  A family is converted once into
one integer record (rings and facets with a common denominator), from which
one integer scan of the concurrences of three distinct moving facet lines
gives the candidate breakpoints and an integer area kernel gives each area
sample.  The translates u + tP whose u share <n, u> carry one line for the
facet normal n, so the hk family of a surface has a few dozen lines and a
dozen or so distinct ones.
The parameterized area function is recovered on every candidate interval,
a vanishing tail included, by exact interpolation through both ends and
the midpoint with a verification sample in the last quarter; a failed
verification is a hard error.

The engine is planar: each area sample integrates the surviving boundary
(Green's theorem over the surviving edges).  Every other base dimension is
rejected here; ``analysis`` answers a segment in closed form, and products
and the counting oracle cover higher dimensions.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key
from math import lcm

from . import geometry as geo
from .errors import BreakpointVerificationError, UnsupportedDimensionError
from .piecewise import PiecewisePoly, Poly
from .rationals import Rat, Value, floor_rat


# ---------------------------------------------------------------------------
# integer area kernel: Green's theorem over the surviving boundary
# ---------------------------------------------------------------------------

def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _left_window(px, py, dx, dy, facets, lo, hi, tie):
    """Sub-interval of (lo, hi) where the point p + s*d lies in the open
    interior of a convex body with integer facets (nx, ny, c), meaning
    nx*x + ny*y >= c.  Bounds are (numerator, denominator) pairs with
    positive denominators; None stands for an empty window.

    A facet line that carries the whole edge decides by ``tie``: 0 never
    counts the edge as inside, 1 counts it inside when the body lies to the
    left of d, 2 always counts it inside.
    """
    ln, ld = lo
    hn, hd = hi
    for nx, ny, c in facets:
        a = nx * dx + ny * dy
        b = nx * px + ny * py - c
        if a == 0:
            if b > 0 or (b == 0 and (tie == 2 or (tie == 1 and ny * dx > nx * dy))):
                continue
            return None
        if a > 0:      # s > -b/a
            if -b * ld > ln * a:
                ln, ld = -b, a
        elif b * hd < hn * -a:   # s < b/(-a)
            hn, hd = b, -a
        if ln * hd >= hn * ld:
            return None
    return (ln, ld), (hn, hd)


def _boundary_area(rings):
    """Twice the area of the closed convex minuend ``rings[0]`` minus the
    open interiors of the convex subtrahends ``rings[1:]``, each a
    counterclockwise ring of at least three integer points, by Green's
    theorem over the surviving boundary.

    A minuend edge survives where no subtrahend covers its inner side; a
    subtrahend edge, reversed, survives where it runs through the open
    minuend and no other subtrahend covers its outer side.  Edges on a
    common line cancel when they run opposite ways; running the same way
    they count once, the minuend first, then the lower index.  A surviving
    piece of the edge p + s*d, 0 <= s <= 1, contributes its length fraction
    times cross(p, d).

    The kept gaps between an edge's covers, walked in order of their start,
    are integer fractions; each adds cross*length over its own denominator
    to one integer sum per denominator, and the sums meet in one Fraction.
    """
    facets = []
    boxes = []
    edges = []     # (owner, p, d): minuend counterclockwise, subtrahends reversed
    for k, ring in enumerate(rings):
        n = len(ring)
        pairs = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
        facets.append([(a[1] - b[1], b[0] - a[0], _cross2(b, a))
                       for a, b in pairs])
        xs = [p[0] for p in ring]
        ys = [p[1] for p in ring]
        boxes.append((min(xs), min(ys), max(xs), max(ys)))
        for a, b in pairs:
            if k == 0:
                edges.append((0, a, (b[0] - a[0], b[1] - a[1])))
            else:
                edges.append((k, b, (a[0] - b[0], a[1] - b[1])))
    sums = {}      # denominator -> sum of cross*numerator of the kept gaps
    unit = ((0, 1), (1, 1))
    for k, (px, py), (dx, dy) in edges:
        if k == 0:
            window = unit
        else:
            window = _left_window(px, py, dx, dy, facets[0], *unit, 0)
            if window is None:
                continue
        x0, x1 = (px, px + dx) if dx >= 0 else (px + dx, px)
        y0, y1 = (py, py + dy) if dy >= 0 else (py + dy, py)
        covered = []
        for j in range(1, len(rings)):
            if j == k:
                continue
            bx0, by0, bx1, by1 = boxes[j]
            if bx0 > x1 or bx1 < x0 or by0 > y1 or by1 < y0:
                continue
            cover = _left_window(px, py, dx, dy, facets[j], *window,
                                 2 if j < k else 1)
            if cover is not None:
                covered.append(cover)
        covered.sort(key=_by_start)
        # every cover lies inside the window; (cn, cd) is the end of the
        # covered stretch walked so far
        (cn, cd), (hn, hd) = window
        cross = px * dy - py * dx
        for (an, ad), (bn, bd) in covered:
            if an * cd > cn * ad:
                den = ad * cd
                sums[den] = sums.get(den, 0) + cross * (an * cd - cn * ad)
            if bn * cd > cn * bd:
                cn, cd = bn, bd
        if hn * cd > cn * hd:
            den = hd * cd
            sums[den] = sums.get(den, 0) + cross * (hn * cd - cn * hd)
    den = lcm(*sums)
    return Rat(sum(v * (den // d) for d, v in sums.items()), den)


# intervals ((an, ad), (bn, bd)) with ad, bd > 0 by their start an/ad
_by_start = cmp_to_key(lambda u, v: u[0][0] * v[0][1] - v[0][0] * u[0][1])


def cell_translates(poly, lam_max):
    """Integer translates u whose body u + lam_max*P meets the open unit
    cell, in lexicographic order: the integer points strictly inside
    cell - lam_max*P, whose rows are P's rows negated and +-e_i (exact up to
    dimension 2), each n with offset sum(min(n_i, 0)) - lam_max*max <n, v>
    over the vertices v.  With 0 in P no other u + t*P, t <= lam_max, meets
    the open cell; a body that does not changes no area and no witness."""
    lam, dim = Rat(lam_max), poly.dim
    units = [tuple(s * (j == i) for j in range(dim))
             for i in range(dim) for s in (1, -1)]
    rows = []
    for n in units + [tuple(-c for c in m) for m, _ in poly.halfspaces]:
        top = max(geo.dot(n, v) for v in poly.vertices)
        rows.append((n, floor_rat(sum(min(c, 0) for c in n) - lam * top) + 1))
    # the unit rows bound coordinate i to [rows[2i] offset, -rows[2i+1] offset]
    box = [(rows[2 * i][1], -rows[2 * i + 1][1]) for i in range(dim - 1)]
    lines = geo.lattice_lines(rows, box)
    return [(*x, j, c)[1:] for x, j0, bottoms, tops in lines
            for j, (a, b) in enumerate(zip(bottoms, tops), j0)
            for c in range(a, b + 1)]


# ---------------------------------------------------------------------------
# parameterized family -> exact piecewise polynomial
# ---------------------------------------------------------------------------

class SliceFamily(Value):
    """Minuend minus the translates u_i + shape, as plain data.

    ``minuend`` and ``shape`` are triples (polytope, c0, c1) that stand for
    the dilate (c0 + c1*t)*polytope, with c0 + c1*t >= 0 on the parameter
    range; ``translates`` are the vectors u_i.  The engine reads only
    planar families.
    """

    __slots__ = ("minuend", "translates", "shape")


def _ccw(poly):
    """Vertices of a full-dimensional polygon in counterclockwise order from
    its lowest point."""
    p0 = min(poly.vertices, key=lambda p: (p[1], p[0]))
    rest = [p for p in poly.vertices if p != p0]
    rest.sort(key=cmp_to_key(
        lambda a, b: -_cross2(geo.vsub(a, p0), geo.vsub(b, p0))))
    return [p0] + rest


class _FamilyRecord:
    """Integer record of a family's bodies, built once per call and read by
    both the event scan and the area samples.

    Body 0 is the minuend, body i the subtrahend u_i + shape.  Coordinates
    are scaled by one common ``scale``, the lcm of every vertex, facet-offset
    and translate denominator, so that body k is the counterclockwise ring
    ``rings[k]`` of points ((px, py) + t*(qx, qy))/scale and the facets
    ``facets[k]``, each nx*X + ny*Y >= a + b*t in scaled coordinates, all
    integers.  Each body is a nonnegative dilate of one of two fixed
    polytopes, so its base order stays counterclockwise for every t in range
    (at scale 0 the ring collapses to one point).

    ``lines`` maps each distinct moving facet line (nx, ny, a, b) to the
    bodies it bounds.  For the scan a moving point is
    ((x0, y0) + t*(x1, y1))/den with den > 0, an event t = r/c with c > 0,
    and every test is a cross-multiplied sign comparison.
    """

    def __init__(self, family, lo, hi):
        for poly, _, _ in (family.minuend, family.shape):
            if poly.pdim != 2 or poly.dim != 2:
                raise UnsupportedDimensionError(
                    "exact slicing supports full-dimensional polygons only, "
                    f"got dimension {poly.pdim} in R^{poly.dim}")
        # each dilate (c0 + c1*t)*poly in rational rows: (px, py, qx, qy) per
        # vertex, the integer normal and (a, b) per facet
        dilates = []
        for poly, c0, c1 in (family.minuend, family.shape):
            c0, c1 = Rat(c0), Rat(c1)
            dilates.append((
                [tuple(c * x for c in (c0, c1) for x in v) for v in _ccw(poly)],
                [(n, (c0 * b, c1 * b)) for n, b in poly.halfspaces]))
        shifts = [tuple(Rat(x) for x in u) for u in family.translates]
        rows = [row for ring, facets in dilates
                for row in ring + [ab for _, ab in facets]] + shifts
        self.scale = lcm(*(int(x.denominator) for row in rows for x in row))

        def scaled(row):
            return tuple(int(x * self.scale) for x in row)

        (ring, facets), (shape_ring, shape_facets) = (
            ([scaled(p) for p in ring], [n + scaled(ab) for n, ab in facets])
            for ring, facets in dilates)
        self.rings, self.facets = [ring], [facets]
        for ux, uy in map(scaled, shifts):
            self.rings.append([(px + ux, py + uy, qx, qy)
                               for px, py, qx, qy in shape_ring])
            self.facets.append([(nx, ny, a + nx * ux + ny * uy, b)
                                for nx, ny, a, b in shape_facets])
        self.lines = {}
        for k, row in enumerate(self.facets):
            for f in row:
                self.lines.setdefault(f, []).append(k)
        self.lo = (int(lo.numerator), int(lo.denominator))
        self.hi = (int(hi.numerator), int(hi.denominator))

    def area(self, t):
        """Exact area of the slice at t = r/s: every ring is evaluated as
        s*p + r*q over the denominator s*scale."""
        r, s = int(t.numerator), int(t.denominator)
        rings = [[(s * px + r * qx, s * py + r * qy)
                  for px, py, qx, qy in ring] for ring in self.rings]
        # a body at scale 0 is one point and bounds nothing
        rings = [rings[0]] + [ring for ring in rings[1:] if ring[0] != ring[1]]
        if rings[0][0] == rings[0][1]:
            return Rat(0)
        den = s * self.scale
        return _boundary_area(rings) / (2 * den * den)

    def window(self, x0, y0, x1, y1, den):
        """Parameter window (wn, wd, vn, vd) = [wn/wd, vn/vd] inside (lo, hi)
        where the moving point stays in the closed minuend, or None."""
        (wn, wd), (vn, vd) = self.lo, self.hi
        for nx, ny, a, b in self.facets[0]:
            c = nx * x1 + ny * y1 - den * b
            r = den * a - nx * x0 - ny * y0
            if c > 0:
                if r * wd > wn * c:
                    wn, wd = r, c
            elif c < 0:
                if r * vd > vn * c:
                    vn, vd = -r, -c
            elif r > 0:
                return None
            if wn * vd > vn * wd:
                return None
        return wn, wd, vn, vd

    def on_body(self, k, wx, wy, den, c, r, strict=False):
        """Whether the witness (wx, wy)/(den*c) at t = r/c lies in body k
        (in its open interior when ``strict``)."""
        for nx, ny, a, b in self.facets[k]:
            lhs = nx * wx + ny * wy
            rhs = den * (a * c + b * r)
            if lhs < rhs or (strict and lhs == rhs):
                return False
        return True


def _events(scan):
    """Parameters t = r/c strictly inside (lo, hi) where three distinct
    moving facet lines meet at a witness inside the closed minuend, inside
    the closed body of some owner of each of the three lines, and outside
    the open interior of every subtrahend.  An incidence with a facet line
    matters for the area function only when the witness sits on an owner's
    actual boundary: away from the closed body the line carries no boundary
    of the union.  A witness on an owner's line inside its closed body is
    on its boundary, so no owner holds it in its open interior.

    Each nonparallel pair j1 < j2 of the distinct lines ``scan.lines``
    meets every line after j2 as third line.  A triple whose first two lines
    are parallel is met from its first and last instead, with the middle
    one among the third lines: a line parallel to j1 passes through the
    pair's moving intersection only where the two coincide.
    """
    lines = list(scan.lines.items())
    (lo_n, lo_d), (hi_n, hi_d) = scan.lo, scan.hi
    subtrahends = range(1, len(scan.facets))
    events = set()
    for j1, ((n1x, n1y, a1, b1), own1) in enumerate(lines):
        for j2 in range(j1 + 1, len(lines)):
            (n2x, n2y, a2, b2), own2 = lines[j2]
            den = n1x * n2y - n1y * n2x
            if den == 0:
                continue
            # moving intersection ((x0, y0) + t*(x1, y1))/den of the lines
            x0, y0 = a1 * n2y - a2 * n1y, a2 * n1x - a1 * n2x
            x1, y1 = b1 * n2y - b2 * n1y, b2 * n1x - b1 * n2x
            if den < 0:
                x0, y0, x1, y1, den = -x0, -y0, -x1, -y1, -den
            window = scan.window(x0, y0, x1, y1, den)
            if window is None:
                continue
            wn, wd, vn, vd = window
            third = lines[j2 + 1:] + [
                line for line in lines[j1 + 1:j2]
                if line[0][0] * n1y == line[0][1] * n1x]
            for (n3x, n3y, a3, b3), own3 in third:
                c = n3x * x1 + n3y * y1 - den * b3
                if c == 0:
                    continue
                r = den * a3 - n3x * x0 - n3y * y0
                if c < 0:
                    c, r = -c, -r
                if not (wn * c <= r * wd and r * vd <= vn * c
                        and lo_n * c < r * lo_d and r * hi_d < hi_n * c):
                    continue
                wx, wy = x0 * c + x1 * r, y0 * c + y1 * r
                if not all(any(scan.on_body(k, wx, wy, den, c, r)
                               for k in owners)
                           for owners in (own1, own2, own3)):
                    continue
                if not any(scan.on_body(k, wx, wy, den, c, r, strict=True)
                           for k in subtrahends):
                    events.add(Rat(r, c))
    return events


def family_volume_function(family: SliceFamily, lo, hi) -> PiecewisePoly:
    """Exact t -> area(M(t) minus union of translates of S(t)) on [lo, hi].

    The family is turned once into an integer record (``_FamilyRecord``)
    that the event scan and the area samples read.  The candidate
    breakpoints (``_events``) are complete for the combinatorial changes an
    affine family can undergo.  The area is sampled once at every cut, and
    each candidate interval, a vanishing tail included, is fitted through
    its two ends and its midpoint and verified in its last quarter; a
    failure (a missed event) raises BreakpointVerificationError.  Adjacent
    pieces share their end sample, so the result is continuous by
    construction, and ``PiecewisePoly.build`` trims the zero ends.  Each
    sample integrates the surviving boundary of the record's integer rings
    at t (``_boundary_area``); no rational vertex, hull or arrangement of
    the slice is built.
    """
    lo, hi = Rat(lo), Rat(hi)
    if lo >= hi:
        raise ValueError("empty parameter interval")
    record = _FamilyRecord(family, lo, hi)
    area = record.area
    cuts = sorted(_events(record) | {lo, hi})
    ends = [area(c) for c in cuts]
    pieces = []
    for a, b, fa, fb in zip(cuts, cuts[1:], ends, ends[1:]):
        # the area of an affine family is at most quadratic: Newton's form
        # through both ends and the midpoint m, checked at (a + 3b)/4
        m = (a + b) / 2
        d1 = (area(m) - fa) / (m - a)
        d2 = ((fb - fa) / (b - a) - d1) / (b - m)
        poly = Poly.of(fa - a * (d1 - d2 * m), d1 - d2 * (a + m), d2)
        check = (a + 3 * b) / 4
        if poly(check) != area(check):
            raise BreakpointVerificationError(
                f"could not certify a polynomial piece on [{a}, {b}]")
        pieces.append(poly)
    return PiecewisePoly.build(cuts, pieces)


def hk_family(poly) -> SliceFamily:
    """Family for density levels z = 1 + t: (1+t)P minus u + tP over the
    lattice points u of P."""
    P = geo.anchored(poly)
    return SliceFamily(
        minuend=(P, 1, 1),
        translates=tuple(geo.lattice_points(P)),
        shape=(P, 0, 1),
    )


def phi_family(poly, lam_max) -> SliceFamily:
    """Family for the unit-cell defect: cell minus u + tP over the integer
    translates that can meet the cell for t <= lam_max (the cover scale)."""
    P = geo.anchored(poly)
    cell = geo.lattice_hull(list(itertools.product((0, 1), repeat=P.dim)))
    return SliceFamily(
        minuend=(cell, 1, 0),
        translates=tuple(cell_translates(P, lam_max)),
        shape=(P, 0, 1),
    )
