"""Exact lattice-polytope primitives in ambient dimension <= 4.

A polytope is full-dimensional with integer vertices (tuples of int) and
always carries an irredundant half-space representation as canonical
integer facet rows (normal, offset), meaning <normal, x> >= offset with no
common factor across the row: the form the exact kernels read.  The two are
kept consistent by construction.  Hull, vertex enumeration and volume run
on integers: rank comes from fraction-free elimination, and both
conversions, points to facets and rows to vertices, read the extreme rays
of a cone from one double-description kernel, whose cost follows the
output size.  Points of lower affine dimension and half-spaces with a
vertex off the lattice give errors, not polytopes.

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
# polytopes
# ---------------------------------------------------------------------------

class ConvexPolytope(Value):
    """Full-dimensional lattice polytope with consistent V- and H-reps.

    ``dim`` is the ambient dimension, ``vertices`` a tuple of int points,
    ``halfspaces`` a tuple of canonical integer rows (normal, offset)
    meaning <normal, x> >= offset: int entries with no common factor
    across the row.  A facet normal through lattice points is primitive,
    so integer dilates and translates keep every row canonical.
    """

    __slots__ = ("dim", "vertices", "halfspaces")

    def _validate(self):
        if not self.vertices:
            raise EmptyRegionError("a polytope needs at least one vertex")
        if any(len(v) != self.dim for v in self.vertices):
            raise DimMismatchError("vertex of wrong dimension")

    def bounding_box(self):
        los = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        return tuple(los), tuple(his)

    def __repr__(self):  # compact, debugging aid
        return (f"ConvexPolytope(dim={self.dim}, {len(self.vertices)} "
                f"vertices, {len(self.halfspaces)} halfspaces)")


def _primitive(v):
    """The nonzero integer vector v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def _int(value, name):
    """``operator.index(value)``, or a TypeError naming ``name`` and value."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} needs integer entries, not {value!r}") from None


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


def hrep_from_vrep(points, name="hull") -> ConvexPolytope:
    """Convex hull of integer points, with canonical irredundant H-rep.

    The points must span their space affinely: a hull of lower dimension
    is a DegenerateError naming ``name`` and the dimension it has.  A
    coordinate that is not an integer is a TypeError naming ``name``.
    """
    if not points:
        raise EmptyRegionError("no points given")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise DimMismatchError("points of mixed dimension")
    pts = sorted({tuple(_int(c, name) for c in p) for p in points})
    rank = len(_echelon([vsub(p, pts[0]) for p in pts[1:]])[1])
    if rank < dim:
        raise DegenerateError(f"{name} has dimension {rank} < {dim}")
    rows = tuple(_facets(pts, dim))
    # a vertex is tight on rows of rank dim
    verts = tuple(p for p in pts if len(_echelon(
        [n for n, off in rows if dot(n, p) == off])[1]) == dim)
    return ConvexPolytope(dim, verts, rows)


def vrep_from_hrep(halfspaces, dim,
                   name="half-space intersection") -> ConvexPolytope:
    """Vertices of a bounded half-space intersection.

    ``halfspaces`` are integer (normal, offset) pairs, each meaning
    <normal, x> >= offset; an entry that is not an integer is a TypeError
    naming ``name``.  Raises UnboundedError when the recession cone is
    nontrivial, EmptyRegionError when the system is infeasible, and
    NonIntegralVertexError or DegenerateError, naming ``name``, when a
    vertex is not a lattice point or the intersection is not
    full-dimensional.  The returned polytope carries a canonical
    irredundant H-rep rebuilt from the vertices.
    """
    rows = [(tuple(_int(c, name) for c in n), _int(off, name))
            for n, off in halfspaces]
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
    # x0 divides x for a primitive ray (x0, x) exactly when x0 = 1
    if any(x0 != 1 for x0, *_ in rays):
        raise NonIntegralVertexError(f"{name} has non-integral vertices")
    return hrep_from_vrep([tuple(xs) for _, *xs in rays], name)


def polytope_from_divisor(rays, coeffs) -> ConvexPolytope:
    """Lattice polytope {u : <u, ray_i> >= -coeff_i} of toric divisor data."""
    if not rays:
        raise DegenerateError("no rays given")
    dim = len(rays[0])
    if len(coeffs) != len(rays):
        raise DimMismatchError("one coefficient per ray required")
    if any(len(r) != dim for r in rays):
        raise DimMismatchError("rays of mixed dimension")
    return vrep_from_hrep([(r, -a) for r, a in zip(rays, coeffs)], dim,
                          "divisor polytope")


def scale(poly: ConvexPolytope, t: int) -> ConvexPolytope:
    """The dilate t*P for an integer t >= 1."""
    if int(t) != t or t < 1:
        raise ValueError("positive integer multiple required")
    t = int(t)
    verts = tuple(vscale(v, t) for v in poly.vertices)
    hs = tuple((n, off * t) for n, off in poly.halfspaces)
    return ConvexPolytope(poly.dim, verts, hs)


def translate(poly: ConvexPolytope, v) -> ConvexPolytope:
    """The translate P + v by an integer vector v."""
    v = tuple(map(operator.index, v))
    if len(v) != poly.dim:
        raise DimMismatchError("translation vector dimension mismatch")
    verts = tuple(vadd(p, v) for p in poly.vertices)
    hs = tuple((n, off + dot(n, v)) for n, off in poly.halfspaces)
    return ConvexPolytope(poly.dim, verts, hs)


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
    return ConvexPolytope(p.dim + q.dim, verts, hs)


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
    """Exact Lebesgue volume."""
    return _pyramid_volume(poly.vertices, poly.halfspaces)


def fiber_box(poly: ConvexPolytope, k=1):
    """Integer box of the first n-1 coordinates of the dilate k*P."""
    los, his = poly.bounding_box()
    return [(lo * k, hi * k) for lo, hi in zip(los[:-1], his[:-1])]


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
