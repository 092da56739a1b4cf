"""Exact rational convex-polytope primitives in ambient dimension <= 4.

Points are plain tuples of Rat.  A polytope always carries both its
rational vertices and an irredundant half-space representation as canonical
integer facet rows (normal, offset), meaning <normal, x> >= offset with no
common factor across the row: the form the exact kernels read.  The two are
kept consistent by construction.  Hull, vertex enumeration and volume run
on integers: points and rows are scaled by their common denominator, rank
comes from fraction-free elimination, and both conversions, points to facets
and rows to vertices, read the extreme rays of a cone from one
double-description kernel, whose cost follows the output size.

All values are immutable and every operation is a pure function, so the
module is safe to use from concurrent callers without locking.
"""

import itertools
import math
import operator
from functools import reduce

from .errors import (
    DegenerateError,
    DimMismatchError,
    EmptyRegionError,
    NegativeScaleError,
    NonIntegralVertexError,
    UnboundedError,
)
from .rationals import Rat, Value


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------

def dot(u, v):
    return sum(map(operator.mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(u, t):
    return tuple(a * t for a in u)


def det(mat):
    """Exact determinant by cofactor expansion along the first row (n <= 4
    in practice); an int for integer entries."""
    if len(mat) < 2:
        return mat[0][0] if mat else 1
    first, *rest = mat
    return sum((-1) ** j * a * det([r[:j] + r[j + 1:] for r in rest])
               for j, a in enumerate(first) if a)


def _cross(vectors, dim):
    """Generalized cross product of dim - 1 vectors in R^dim: orthogonal to
    each of them, and zero iff they are linearly dependent."""
    return tuple((-1) ** j * det([v[:j] + v[j + 1:] for v in vectors])
                 for j in range(dim))


def _echelon(rows):
    """Fraction-free (Bareiss) echelon form of integer rows: the nonzero
    echelon rows and their pivot columns, the columns independent of those
    before them.  Every division is exact."""
    rows = [list(r) for r in rows]
    out, pivots, prev = [], [], 1
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i, r in enumerate(rows) if r[c]), None)
        if p is None:
            continue
        top = rows.pop(p)
        a = top[c]
        rows = [[(a * x - r[c] * y) // prev for x, y in zip(r, top)]
                for r in rows]
        out.append(top)
        pivots.append(c)
        prev = a
    return out, pivots


# ---------------------------------------------------------------------------
# half-spaces and polytopes
# ---------------------------------------------------------------------------

def _row(normal, offset):
    """Canonical integer row (normal, offset) of {x : <normal, x> >= offset}
    for rational entries: cleared of denominators and of their common
    factor, so each half-space has exactly one row."""
    entries = (*normal, offset)
    lcm = math.lcm(*(c.denominator for c in entries))
    ints = [c.numerator * (lcm // c.denominator) for c in entries]
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


class ConvexPolytope(Value):
    """Bounded convex polytope with consistent V- and H-representations.

    ``dim`` is the ambient dimension, ``pdim`` the dimension of the affine
    hull; lower-dimensional polytopes are first-class values (their H-rep
    includes the affine-hull equations as paired half-spaces) and have
    volume 0.  ``vertices`` is a tuple of points, ``halfspaces`` a tuple of
    canonical integer rows (normal, offset) meaning <normal, x> >= offset:
    int entries with no common factor across the row.
    """

    __slots__ = ("dim", "vertices", "halfspaces", "pdim")

    def _validate(self):
        if not self.vertices:
            raise EmptyRegionError("a polytope needs at least one vertex")
        if any(len(v) != self.dim for v in self.vertices):
            raise DimMismatchError("vertex of wrong dimension")

    def bounding_box(self):
        los = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        return tuple(los), tuple(his)

    @property
    def is_lattice(self) -> bool:
        return all(c.denominator == 1 for v in self.vertices for c in v)

    def __repr__(self):  # compact, debugging aid
        return (f"ConvexPolytope(dim={self.dim}, pdim={self.pdim}, "
                f"{len(self.vertices)} vertices, {len(self.halfspaces)} halfspaces)")


def _integer_points(pts):
    """The rational points times the common denominator L of their
    coordinates, as int tuples, and L."""
    lcm = math.lcm(*(c.denominator for p in pts for c in p))
    return [tuple(c.numerator * (lcm // c.denominator) for c in p)
            for p in pts], lcm


def _primitive(v):
    """The nonzero integer vector v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def _extreme_rays(rows):
    """Extreme rays of the pointed cone {y : <a, y> >= 0 for each row a},
    for integer rows that span R^d, as (primitive ray, sorted indices of the
    rows tight on it) pairs.  Double description (Motzkin-Raiffa-Thompson-
    Thrall 1953; Fukuda-Prodon 1996): the simplicial cone of the first
    independent rows meets each other row in turn.  Rays on its nonnegative
    side stay, and each adjacent pair on opposite sides (no third ray is
    tight on every row tight on both) is joined on its hyperplane."""
    # the pivot columns of the transpose are the first independent rows
    d, basis = len(rows[0]), _echelon(list(zip(*rows)))[1]
    rays = []  # tight sets are bitmasks of row indices
    for k in basis:  # on every basis row but k, signed by its value on k
        ray = _cross([rows[j] for j in basis if j != k], d)
        rays.append((_primitive(vscale(ray, dot(rows[k], ray))),
                     sum(1 << j for j in basis if j != k)))
    for i in [i for i in range(len(rows)) if i not in basis]:
        vals = [dot(rows[i], ray) for ray, _ in rays]
        new = [(ray, tight | (1 << i) if v == 0 else tight)
               for (ray, tight), v in zip(rays, vals) if v >= 0]
        for (p, tp), vp in zip(rays, vals):
            for (n, tn), vn in zip(rays, vals):
                common = tp & tn
                if vp > 0 > vn and sum(
                        common & t == common for _, t in rays) == 2:
                    ray = vsub(vscale(n, vp), vscale(p, vn))
                    new.append((_primitive(ray), common | (1 << i)))
        rays = new
    return [(ray, tuple(j for j in range(len(rows)) if tight >> j & 1))
            for ray, tight in rays]


def _facets(points, dim):
    """Irredundant facets of a full-dimensional hull of integer points: a
    dict from each primitive row (normal, offset) to the indices of the
    points tight on it.  A ray (a0, a) of the cone over the rows (1, p) is
    the facet <a, x> >= -a0.  Sorted by tight indices, the facets come in
    the order of their lexicographically first spanning dim-subsets: two
    facets share only their common face, and the first index where their
    tight sets differ is the first point their greedy bases take off it."""
    return {(ray[1:], -ray[0]): tight for ray, tight in sorted(
        _extreme_rays([(1, *p) for p in points]), key=lambda r: r[1])}


def hrep_from_vrep(points) -> ConvexPolytope:
    """Convex hull of a finite point set, with canonical irredundant H-rep.

    For lower-dimensional hulls the H-rep starts with the affine-hull
    equations (as paired opposite half-spaces) followed by the facet
    inequalities computed inside the hull.
    """
    pts = [tuple(Rat(c) for c in p) for p in points]
    if not pts:
        raise EmptyRegionError("no points given")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimMismatchError("points of mixed dimension")
    pts = sorted(set(pts))
    ipts, lcm = _integer_points(pts)
    base = ipts[0]
    span, pivots = _echelon([vsub(p, base) for p in ipts[1:]])
    pdim = len(pivots)

    # rows (normal, offset) of the scaled points, normals primitive; first
    # for each non-pivot column f the affine-hull normal that is 0 at the
    # other non-pivot columns, times w[f] to make it positive at f
    rows = []
    for f in [c for c in range(dim) if c not in pivots]:
        cols = sorted([*pivots, f])
        w = dict(zip(cols, _cross([[r[c] for c in cols] for r in span],
                                  pdim + 1)))
        normal = _primitive([w.get(c, 0) * w[f] for c in range(dim)])
        offset = dot(normal, base)
        rows += [(normal, offset), (vscale(normal, -1), -offset)]
    if pdim:
        # project to the pivot coordinates, where the hull is full-dimensional
        proj = [tuple(p[c] for c in pivots) for p in ipts]
        for n, offset in _facets(proj, pdim):
            lift = dict(zip(pivots, n))
            rows.append((tuple(lift.get(c, 0) for c in range(dim)), offset))

    # a vertex is tight on rows of rank dim
    verts = tuple(p for p, ip in zip(pts, ipts) if len(_echelon(
        [n for n, off in rows if dot(n, ip) == off])[1]) == dim)
    halfspaces = tuple(_row(vscale(n, lcm), off) for n, off in rows)
    return ConvexPolytope(dim, verts, halfspaces, pdim)


def vrep_from_hrep(halfspaces, dim) -> ConvexPolytope:
    """Vertices of a bounded half-space intersection.

    ``halfspaces`` are (normal, offset) pairs of rationals, each meaning
    <normal, x> >= offset.  Raises UnboundedError when the recession cone is
    nontrivial and EmptyRegionError when the system is infeasible.  The
    returned polytope carries a canonical irredundant H-rep rebuilt from the
    vertices.
    """
    rows = [_row(n, off) for n, off in halfspaces]
    for n, _ in rows:
        if len(n) != dim:
            raise DimMismatchError(
                f"half-space normal of dimension {len(n)} vs R^{dim}")
    # rays of {<n, x> >= off*x0, x0 >= 0}: vertices x/x0, or recession at 0
    if len(_echelon([n for n, _ in rows])[1]) < dim:
        raise UnboundedError("half-space intersection is unbounded")
    rays = [ray for ray, _ in _extreme_rays(
        [(1, *[0] * dim), *((-off, *n) for n, off in rows)])]
    if any(x0 == 0 for x0, *_ in rays):
        raise UnboundedError("half-space intersection is unbounded")
    if not rays:
        raise EmptyRegionError("half-space intersection is empty")
    verts = {tuple(Rat(x, x0) for x in xs) for x0, *xs in rays}
    return hrep_from_vrep(verts)


def polytope_from_divisor(rays, coeffs) -> ConvexPolytope:
    """Lattice polytope {u : <u, ray_i> >= -coeff_i} of toric divisor data."""
    if not rays:
        raise DegenerateError("no rays given")
    dim = len(rays[0])
    if len(coeffs) != len(rays):
        raise DimMismatchError("one coefficient per ray required")
    if any(len(r) != dim for r in rays):
        raise DimMismatchError("rays of mixed dimension")
    poly = vrep_from_hrep([(r, -a) for r, a in zip(rays, coeffs)], dim)
    if poly.pdim < dim:
        raise DegenerateError(
            f"divisor polytope has dimension {poly.pdim} < {dim}")
    if not poly.is_lattice:
        raise NonIntegralVertexError(
            "divisor polytope has non-integral vertices", polytope=poly)
    return poly


def lattice_hull(points) -> ConvexPolytope:
    """Convex hull of integer points; NonIntegralVertexError otherwise."""
    poly = hrep_from_vrep(points)
    if not poly.is_lattice:
        raise NonIntegralVertexError(
            "vertices are not all integral", polytope=poly)
    return poly


def scale(poly: ConvexPolytope, t) -> ConvexPolytope:
    """The dilate t*P for t >= 0; t = 0 collapses to the origin point."""
    t = Rat(t)
    if t < 0:
        raise NegativeScaleError("negative scale factor")
    if t == 0:
        return hrep_from_vrep([tuple(Rat(0) for _ in range(poly.dim))])
    verts = tuple(vscale(v, t) for v in poly.vertices)
    hs = tuple(_row(n, off * t) for n, off in poly.halfspaces)
    return ConvexPolytope(poly.dim, verts, hs, poly.pdim)


def translate(poly: ConvexPolytope, v) -> ConvexPolytope:
    v = tuple(Rat(c) for c in v)
    if len(v) != poly.dim:
        raise DimMismatchError("translation vector dimension mismatch")
    verts = tuple(vadd(p, v) for p in poly.vertices)
    hs = tuple(_row(n, off + dot(n, v)) for n, off in poly.halfspaces)
    return ConvexPolytope(poly.dim, verts, hs, poly.pdim)


def anchored(poly):
    """Translate so the lexicographically smallest vertex sits at the origin.

    Every invariant of a pair is translation-invariant; anchoring makes the
    dilates of the base polytope nested, which the support bounds rely on.
    """
    v0 = min(poly.vertices)
    return translate(poly, vscale(v0, -1))


def product(p: ConvexPolytope, q: ConvexPolytope) -> ConvexPolytope:
    """Cartesian product P x Q: the base of a Segre product
    (``SegrePair.polytope``), whose lattice points the oracle counts."""
    verts = tuple(vp + vq for vp in p.vertices for vq in q.vertices)
    hs = tuple((n + (0,) * q.dim, off) for n, off in p.halfspaces)
    hs += tuple(((0,) * p.dim + n, off) for n, off in q.halfspaces)
    return ConvexPolytope(p.dim + q.dim, verts, hs, p.pdim + q.pdim)


# ---------------------------------------------------------------------------
# volume and lattice points
# ---------------------------------------------------------------------------

def _pyramid_volume(points, rows):
    """Volume of the full-dimensional hull of integer points, given its
    facet rows: the sum of the pyramids from the first point over each
    facet F, (<n, p0> - off) / (dim * |n_c|) * vol(pi_c F), with pi_c
    dropping a coordinate c where n_c != 0.  A segment's is its length."""
    dim = len(points[0])
    if dim == 1:
        return Rat(max(points)[0] - min(points)[0])
    p0, total = points[0], Rat(0)
    for n, off in rows:
        if dot(n, p0) == off:
            continue  # a facet through p0 spans no pyramid
        c = next(i for i, a in enumerate(n) if a)
        face = [p[:c] + p[c + 1:] for p in points if dot(n, p) == off]
        total += Rat(dot(n, p0) - off, dim * abs(n[c])) * _pyramid_volume(
            face, _facets(face, dim - 1) if dim > 2 else ())
    return total


def volume(poly: ConvexPolytope):
    """Exact Lebesgue volume; 0 for polytopes below full ambient dimension."""
    if poly.pdim < poly.dim:
        return Rat(0)
    pts, lcm = _integer_points(poly.vertices)
    rows = [(n, off * lcm) for n, off in poly.halfspaces]
    return _pyramid_volume(pts, rows) / lcm ** poly.dim


def fiber_box(poly: ConvexPolytope, k=1):
    """Integer box of the first n-1 coordinates of the dilate k*P."""
    los, his = poly.bounding_box()
    return [(math.ceil(lo * k), math.floor(hi * k))
            for lo, hi in zip(los[:-1], his[:-1])]


def lattice_lines(rows, box):
    """Integer points of {x : <normal, x> >= offset for each row} by lines
    along coordinate n-1.

    ``rows`` are integer (normal, offset) pairs bounding the last coordinate
    from both sides, ``box`` an integer (lo, hi) range for each of the first
    n-1 coordinates.  Yields (prefix, j0, bottoms, tops) for each line of
    the box, in lexicographic order: (*prefix, j0 + i, t)[1:] is a point iff
    bottoms[i] <= t <= tops[i] (fiber i of the line).  (*prefix, j) starts
    with a dummy coordinate fixed at 0, which gives n = 1 its line: there
    prefix is (), j0 is 0 and the line has one fiber.
    """
    rows = [((0, *n), off) for n, off in rows]
    *outer, (lo, hi) = [(0, 0), *box]
    for prefix in itertools.product(*(range(a, b + 1) for a, b in outer)):
        j0, j1, lower, upper = lo, hi, [], []
        for n, off in rows:
            # on this line the row reads d*j + c*t >= r
            r = off - sum(map(operator.mul, n, prefix))
            d, c = n[-2], n[-1]
            if c:
                (lower if c > 0 else upper).append((d, c, r))
            elif d > 0:
                j0 = max(j0, -(-r // d))
            elif d < 0:
                j1 = min(j1, r // d)
            elif r > 0:
                j1 = j0 - 1
        js = range(j0, j1 + 1)
        tops = reduce(lambda u, v: list(map(min, u, v)),
                      [[(r - d * j) // c for j in js] for d, c, r in upper])
        bottoms = reduce(lambda u, v: list(map(max, u, v)),
                         [[-((d * j - r) // c) for j in js]
                          for d, c, r in lower])
        yield prefix, j0, bottoms, tops


def lattice_count(lines) -> int:
    """Number of integer points on ``lines`` of ``lattice_lines``.  A line
    whose fibers are all nonempty or just empty (top = bottom - 1) counts in
    closed form; any other sums its nonempty fibers one by one."""
    total = 0
    for *_, bottoms, tops in lines:
        if min(map(operator.sub, tops, bottoms), default=0) >= -1:
            total += sum(tops) - sum(bottoms) + len(tops)
        else:
            total += sum(max(b - a + 1, 0) for a, b in zip(bottoms, tops))
    return total


def lattice_points(poly: ConvexPolytope):
    """All integer points of the polytope, in lexicographic order."""
    lines = lattice_lines(poly.halfspaces, fiber_box(poly))
    return [(*x, j, t)[1:] for x, j0, bottoms, tops in lines
            for j, (a, b) in enumerate(zip(bottoms, tops), j0)
            for t in range(a, b + 1)]
