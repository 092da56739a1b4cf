"""Exact area functions of the cone-difference regions.

The density function of a toric pair at level z > 1 is the area of a dilate
of the base polytope minus lattice translates of a smaller dilate; the
unit-cell defect function is the uncovered area of a unit cell under lattice
translates of a dilate.  Both are instances of one parametric family: a
minuend and translates of one shape, each a nonnegative dilate
(c0 + c1*t)*polytope of a fixed polytope.  A family is converted once into
one integer record (rings and facets with a common denominator), from which
an integer scan of incidence events gives the candidate breakpoints and an
integer area kernel gives each area sample.  The parameterized area function
is recovered per interval by exact interpolation with a verification sample;
a failed verification is a hard error.

Base polytopes of dimension 1 are handled by interval sweeps, dimension 2 by
boundary integration (Green's theorem over the surviving edges); higher
dimensions are rejected here (products and the counting oracle cover them).
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key
from math import lcm

from . import geometry as geo
from .errors import BreakpointVerificationError, UnsupportedDimensionError
from .piecewise import PiecewisePoly, Poly, lagrange_interpolate
from .rationals import Rat, Value, ceil_rat, floor_rat


# ---------------------------------------------------------------------------
# integer area kernels: interval sweep (dimension 1) and Green's theorem over
# the surviving boundary (dimension 2)
# ---------------------------------------------------------------------------

def _difference_intervals(a, b, subs):
    """Sorted parts of [a, b] outside the open intervals ``subs``, all
    given as pairs of numbers."""
    covered = []
    for lo, hi in subs:
        lo, hi = max(lo, a), min(hi, b)
        if lo < hi:
            covered.append((lo, hi))
    covered.sort()
    out = []
    cursor = a
    for lo, hi in covered:
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < b:
        out.append((cursor, b))
    return out


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
    """Integer translates u with (u + t*P) possibly meeting the unit cell
    for some 0 <= t <= lam_max (bounding-box superset; exact tests happen
    at classification time)."""
    big = geo.scale(poly, lam_max) if lam_max > 0 else poly
    lo, hi = big.bounding_box()
    out = []
    ranges = [range(ceil_rat(-hi[i]), floor_rat(1 - lo[i]) + 1)
              for i in range(poly.dim)]
    for u in itertools.product(*ranges):
        out.append(tuple(Rat(c) for c in u))
    return out


# ---------------------------------------------------------------------------
# parameterized family -> exact piecewise polynomial
# ---------------------------------------------------------------------------

class SliceFamily(Value):
    """Minuend minus the translates u_i + shape, as plain data.

    ``minuend`` and ``shape`` are triples (polytope, c0, c1) that stand for
    the dilate (c0 + c1*t)*polytope, with c0 + c1*t >= 0 on the parameter
    range; ``translates`` are the vectors u_i.  The dimension is the
    minuend polytope's.
    """

    __slots__ = ("minuend", "translates", "shape")


def _ccw(poly):
    """Vertices of a full-dimensional polygon in counterclockwise order from
    its lowest point, or a segment's two endpoints in increasing order;
    points are padded to the plane with y = 0."""
    pts = [tuple(v) + (Rat(0),) * (2 - poly.dim) for v in poly.vertices]
    p0 = min(pts, key=lambda p: (p[1], p[0]))
    rest = [p for p in pts if p != p0]
    rest.sort(key=cmp_to_key(
        lambda a, b: -_cross2(geo.vsub(a, p0), geo.vsub(b, p0))))
    return [p0] + rest


class _FamilyRecord:
    """Integer record of a family's bodies, built once per call and read by
    both the event scans and the area samples.

    Body 0 is the minuend, body i the subtrahend u_i + shape.  Coordinates
    are scaled by one common ``scale``, the lcm of every vertex, facet-offset
    and translate denominator, so that body k is the counterclockwise ring
    ``rings[k]`` of points ((px, py) + t*(qx, qy))/scale and the facets
    ``facets[k]``, each nx*X + ny*Y >= a + b*t in scaled coordinates, all
    integers.  Each body is a nonnegative dilate of one of two fixed
    polytopes, so its base order stays counterclockwise for every t in range
    (at scale 0 the ring collapses to one point).  A base of dimension 1 is
    padded to the plane with y = 0.

    For the scans a moving point is ((x0, y0) + t*(x1, y1))/den with
    den > 0, an event t = r/c with c > 0, and every test is a
    cross-multiplied sign comparison.
    """

    def __init__(self, family, lo, hi):
        for poly, _, _ in (family.minuend, family.shape):
            if poly.pdim not in (1, 2) or poly.pdim != poly.dim:
                raise UnsupportedDimensionError(
                    "exact slicing supports full-dimensional bases of "
                    f"dimension 1 or 2, got dimension {poly.pdim} in "
                    f"R^{poly.dim}; use products or the counting oracle")
        self.dim = family.minuend[0].dim
        pad = (0,) * (2 - self.dim)
        # each dilate (c0 + c1*t)*poly in rational rows: (px, py, qx, qy) per
        # vertex, the integer normal and (a, b) per facet
        dilates = []
        for poly, c0, c1 in (family.minuend, family.shape):
            c0, c1 = Rat(c0), Rat(c1)
            dilates.append((
                [tuple(c * x for c in (c0, c1) for x in v) for v in _ccw(poly)],
                [(n + pad, (c0 * b, c1 * b)) for n, b in poly.halfspaces]))
        shifts = [tuple(Rat(x) for x in u) + pad for u in family.translates]
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
        self.lines = [(i,) + f for i, row in enumerate(self.facets)
                      for f in row]
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
        den = s * self.scale
        if self.dim == 1:
            (a, _), (b, _) = rings[0]
            spans = [(lo, hi) for (lo, _), (hi, _) in rings[1:]]
            return Rat(sum(y - x for x, y in _difference_intervals(a, b, spans)),
                       den)
        if rings[0][0] == rings[0][1]:
            return Rat(0)
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

    def crossings(self, point, window, lines, on, skip, events):
        """Add to ``events`` each t = r/c at which the moving point meets one
        of ``lines`` inside its window and strictly inside (lo, hi), with the
        witness in the closed line owner and bodies ``on``, and not in the
        open interior of a subtrahend outside ``skip`` and the line owner.

        An incidence with a facet line matters for the area function only
        when the witness sits on the owner's actual boundary: away from the
        closed body the line carries no boundary of the union."""
        x0, y0, x1, y1, den = point
        wn, wd, vn, vd = window
        (lo_n, lo_d), (hi_n, hi_d) = self.lo, self.hi
        for i3, n3x, n3y, a3, b3 in lines:
            c = n3x * x1 + n3y * y1 - den * b3
            if c == 0:
                continue
            r = den * a3 - n3x * x0 - n3y * y0
            if c < 0:
                c, r = -c, -r
            if not (wn * c <= r * wd and r * vd <= vn * c
                    and lo_n * c < r * lo_d and r * hi_d < hi_n * c):
                continue
            wx = x0 * c + x1 * r
            wy = y0 * c + y1 * r
            if not all(self.on_body(k, wx, wy, den, c, r) for k in on + (i3,)):
                continue
            if not any(self.on_body(k, wx, wy, den, c, r, strict=True)
                       for k in range(1, len(self.facets))
                       if k != i3 and k not in skip):
                events.add(Rat(r, c))


def _pair_events(scan):
    """Parameters where a vertex of one body crosses a facet line of another,
    witnessed inside the (closed) minuend."""
    events = set()
    for ai, ring in enumerate(scan.rings):
        others = [line for line in scan.lines if line[0] != ai]
        for px, py, qx, qy in ring:
            point = (px, py, qx, qy, 1)
            window = scan.window(*point)
            if window is not None:
                scan.crossings(point, window, others, (), (ai,), events)
    return events


def _triple_events(scan):
    """Concurrency of facet lines from three distinct bodies, witnessed
    inside the closed minuend and not smothered by an uninvolved body.

    Together with the pairwise vertex-on-line events this makes the
    candidate set complete: a combinatorial change of the arrangement
    restricted to the minuend is a concurrence of three moving lines (two of
    them from one body being the vertex case, coinciding lines being caught
    by the vertex case as well).  In dimension 1 the pairwise events already
    cover everything.
    """
    if scan.dim == 1:
        return set()
    lines = scan.lines
    events = set()
    for j1, (i1, n1x, n1y, a1, b1) in enumerate(lines):
        for j2 in range(j1 + 1, len(lines)):
            i2, n2x, n2y, a2, b2 = lines[j2]
            den = n1x * n2y - n1y * n2x
            if i1 == i2 or den == 0:
                continue
            # moving intersection ((x0, y0) + t*(x1, y1))/den of the lines
            point = (a1 * n2y - a2 * n1y, a2 * n1x - a1 * n2x,
                     b1 * n2y - b2 * n1y, b2 * n1x - b1 * n2x, den)
            if den < 0:
                point = tuple(-v for v in point)
            window = scan.window(*point)
            if window is None:
                continue
            # each unordered triple once; parallel pairs are coincidence
            # events, already witnessed by vertices landing on the line
            third = [line for line in lines[j2 + 1:] if line[0] not in (i1, i2)]
            scan.crossings(point, window, third, (i1, i2), (i1, i2), events)
    return events


def family_volume_function(family: SliceFamily, lo, hi, *,
                           vanish_monotone=False) -> PiecewisePoly:
    """Exact t -> area(M(t) minus union of translates of S(t)) on [lo, hi].

    The family is turned once into an integer record (``_FamilyRecord``)
    that both the event scans and the area samples read.  Candidate
    breakpoints are the vertex-on-facet-line incidences over all body pairs
    together with the triple-line concurrences of distinct bodies, both
    filtered to witnesses inside the closed minuend; this set is complete
    for the combinatorial changes an affine family can undergo.
    Each candidate interval is then interpolated at dim+1 samples and
    verified at one extra sample; a failure (which would indicate a missed
    event) raises BreakpointVerificationError.  In dimension 2 each sample
    evaluates the record's integer rings at t and integrates their surviving
    boundary (``_boundary_area``); no rational vertex, hull or arrangement
    of the slice is built.

    With ``vanish_monotone=True`` (valid when an empty slice stays empty for
    all larger parameters, as holds for these cone families with anchored
    base polytope) the identically-zero tail is located by bisection over the
    candidates and skipped.
    """
    lo, hi = Rat(lo), Rat(hi)
    if lo >= hi:
        raise ValueError("empty parameter interval")
    record = _FamilyRecord(family, lo, hi)
    area = record.area
    cuts = sorted(_pair_events(record) | _triple_events(record) | {lo, hi})

    tail_from = None
    if vanish_monotone:
        if area(lo) == 0:
            return PiecewisePoly.zero(lo)
        if area(hi) == 0:
            # first candidate with vanished area, by bisection
            i, j = 0, len(cuts) - 1
            while j - i > 1:
                m = (i + j) // 2
                if area(cuts[m]) == 0:
                    j = m
                else:
                    i = m
            tail_from = j
            # the zero tail is certified at its midpoint as well
            mid = (cuts[j] + hi) / 2
            if area(mid) != 0:
                raise BreakpointVerificationError(
                    "vanishing tail is not identically zero")
            cuts = cuts[:j + 1]

    deg = record.dim  # area of an affine family has degree <= dim
    resolved = []
    for a, b in zip(cuts, cuts[1:]):
        # dim+1 samples interpolated, one more checked
        step = (b - a) / (deg + 2)
        poly = lagrange_interpolate([(a + j * step, area(a + j * step))
                                     for j in range(1, deg + 2)])
        check = a + step / 2
        if poly(check) != area(check):
            raise BreakpointVerificationError(
                f"could not certify a polynomial piece on [{a}, {b}]")
        resolved.append((a, b, poly))
    if tail_from is not None and cuts[-1] < hi:
        resolved.append((cuts[-1], hi, Poly(())))

    bps = [resolved[0][0]] + [t[1] for t in resolved]
    out = PiecewisePoly.build(bps, [t[2] for t in resolved])
    if not out.is_continuous():
        raise BreakpointVerificationError(
            "assembled area function fails exact continuity")
    return out


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
    translates that can meet the cell for t <= lam_max."""
    P = geo.anchored(poly)
    cell = geo.lattice_hull(list(itertools.product((0, 1), repeat=P.dim)))
    return SliceFamily(
        minuend=(cell, 1, 0),
        translates=tuple(cell_translates(P, lam_max)),
        shape=(P, 0, 1),
    )
