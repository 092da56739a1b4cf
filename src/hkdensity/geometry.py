"""Exact rational convex-polytope primitives in ambient dimension <= 4.

Points are plain tuples of Rat.  A polytope always carries both its
rational vertices and an irredundant half-space representation as canonical
integer facet rows (normal, offset), meaning <normal, x> >= offset with no
common factor across the row: the form the exact kernels read.  The two are
kept consistent by construction.  Vertex enumeration goes through all
dim-subsets of bounding hyperplanes, which is entirely adequate at the facet
counts this engine sees (a few dozen at most).

All values are immutable and every operation is a pure function, so the
module is safe to use from concurrent callers without locking.
"""

from __future__ import annotations

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
from .rationals import Rat, Value, as_integer, ceil_rat, floor_rat


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------

def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Rat(0))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(u, t):
    return tuple(a * t for a in u)


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Rat(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(vectors) -> int:
    return len(_rref(vectors)[1])


def solve_square(mat, rhs):
    """Unique solution of the square system mat . x = rhs, or None if singular."""
    n = len(mat)
    aug = [list(mat[i]) + [rhs[i]] for i in range(n)]
    rows, pivots = _rref(aug)
    if len(pivots) != n or n in pivots:
        return None
    sol = [Rat(0)] * n
    for row, c in zip(rows, pivots):
        sol[c] = row[-1]
    return tuple(sol)


def nullspace(vectors, dim):
    """Basis of the null space of the row span of ``vectors`` in R^dim."""
    rows, pivots = _rref(vectors)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Rat(0)] * dim
        v[f] = Rat(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def det(mat):
    """Exact determinant via fraction elimination (n <= 4 in practice)."""
    n = len(mat)
    a = [list(row) for row in mat]
    result = Rat(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Rat(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        inv = Rat(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                for j in range(c, n):
                    a[i][j] -= f * a[c][j]
    return result


# ---------------------------------------------------------------------------
# half-spaces and polytopes
# ---------------------------------------------------------------------------

def _row(normal, offset):
    """Canonical integer row (normal, offset) of {x : <normal, x> >= offset}:
    the entries cleared of denominators and of their common factor, so each
    half-space has exactly one row."""
    entries = [Rat(c) for c in (*normal, offset)]
    lcm = math.lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (lcm // e.denominator) for e in entries]
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


def _slack(row, x):
    normal, offset = row
    return dot(normal, x) - offset


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

    def contains(self, x) -> bool:
        if len(x) != self.dim:
            raise DimMismatchError(
                f"point of dimension {len(x)} vs polytope in R^{self.dim}")
        x = tuple(Rat(c) for c in x)
        return all(_slack(h, x) >= 0 for h in self.halfspaces)

    def bounding_box(self):
        los = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        return tuple(los), tuple(his)

    @property
    def is_lattice(self) -> bool:
        return all(as_integer(c) is not None for v in self.vertices for c in v)

    def __repr__(self):  # compact, debugging aid
        return (f"ConvexPolytope(dim={self.dim}, pdim={self.pdim}, "
                f"{len(self.vertices)} vertices, {len(self.halfspaces)} halfspaces)")


def _as_points(points):
    return [tuple(Rat(c) for c in p) for p in points]


def _extreme_points(points, halfspaces, dim):
    """Filter a closed point set down to the vertices of its hull."""
    out = []
    for p in points:
        active = [h[0] for h in halfspaces if _slack(h, p) == 0]
        if rank(active) == dim:
            out.append(p)
    return out


def _facets_fulldim(points, dim):
    """Irredundant facets of a full-dimensional hull: a dict from each
    canonical row to the indices of the points tight on it."""
    n = len(points)
    seen = {}
    for subset in itertools.combinations(range(n), dim):
        base = points[subset[0]]
        diffs = [vsub(points[i], base) for i in subset[1:]]
        if rank(diffs) != dim - 1:
            continue
        normal = nullspace(diffs, dim)
        if len(normal) != 1:
            continue
        row = _row(normal[0], dot(normal[0], base))
        vals = [_slack(row, p) for p in points]
        if all(v <= 0 for v in vals):
            row = (vscale(row[0], -1), -row[1])
            vals = [-v for v in vals]
        elif not all(v >= 0 for v in vals):
            continue
        if row not in seen:
            seen[row] = tuple(i for i, v in enumerate(vals) if v == 0)
    return seen


def hrep_from_vrep(points) -> ConvexPolytope:
    """Convex hull of a finite point set, with canonical irredundant H-rep.

    For lower-dimensional hulls the H-rep starts with the affine-hull
    equations (as paired opposite half-spaces) followed by the facet
    inequalities computed inside the hull.
    """
    pts = _as_points(points)
    if not pts:
        raise EmptyRegionError("no points given")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimMismatchError("points of mixed dimension")
    pts = sorted(set(pts))
    base = pts[0]
    diffs = [vsub(p, base) for p in pts[1:]]
    _, pivots = _rref(diffs)
    pdim = len(pivots)

    halfspaces = []
    if pdim < dim:
        for e in nullspace(diffs, dim) if diffs else nullspace([[Rat(0)] * dim], dim):
            normal, offset = _row(e, dot(e, base))
            halfspaces += [(normal, offset), (vscale(normal, -1), -offset)]
    if pdim == 0:
        return ConvexPolytope(dim, (base,), tuple(halfspaces), 0)

    if pdim == dim:
        halfspaces.extend(_facets_fulldim(pts, dim))
    else:
        # project to the pivot coordinates, where the hull is full-dimensional
        proj = [tuple(p[c] for c in pivots) for p in pts]
        for n, offset in _facets_fulldim(proj, pdim):
            normal = [0] * dim
            for j, c in enumerate(pivots):
                normal[c] = n[j]
            halfspaces.append((tuple(normal), offset))

    verts = _extreme_points(pts, halfspaces, dim)
    return ConvexPolytope(dim, tuple(sorted(verts)), tuple(halfspaces), pdim)


def _recession_nontrivial(halfspaces, dim) -> bool:
    normals = [h[0] for h in halfspaces]
    if rank(normals) < dim:
        return True
    for subset in itertools.combinations(range(len(normals)), dim - 1):
        sel = [normals[i] for i in subset]
        if rank(sel) != dim - 1:
            continue
        rays = nullspace(sel, dim)
        if len(rays) != 1:
            continue
        ray = rays[0]
        for r in (ray, vscale(ray, -1)):
            if all(dot(n, r) >= 0 for n in normals):
                return True
    return False


def vrep_from_hrep(halfspaces, dim) -> ConvexPolytope:
    """Vertices of a bounded half-space intersection.

    ``halfspaces`` are (normal, offset) pairs of rationals, each meaning
    <normal, x> >= offset.  Raises UnboundedError when the recession cone is
    nontrivial and EmptyRegionError when the system is infeasible.  The
    returned polytope carries a canonical irredundant H-rep rebuilt from the
    vertices.
    """
    hs = list(halfspaces)
    if _recession_nontrivial(hs, dim):
        raise UnboundedError("half-space intersection is unbounded")
    verts = set()
    for subset in itertools.combinations(hs, dim):
        x = solve_square([n for n, _ in subset], [off for _, off in subset])
        if x is None:
            continue
        if all(_slack(h, x) >= 0 for h in hs):
            verts.add(x)
    if not verts:
        raise EmptyRegionError("half-space intersection is empty")
    return hrep_from_vrep(sorted(verts))


def polytope_from_divisor(rays, coeffs) -> ConvexPolytope:
    """Lattice polytope {u : <u, ray_i> >= -coeff_i} of toric divisor data."""
    rays = _as_points(rays)
    if not rays:
        raise DegenerateError("no rays given")
    dim = len(rays[0])
    if len(coeffs) != len(rays):
        raise DimMismatchError("one coefficient per ray required")
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
    dilates of the base polytope nested, which the support bounds and the
    vanishing-tail trim of the area engine rely on.
    """
    v0 = min(poly.vertices)
    return translate(poly, vscale(v0, -1))


def product(p: ConvexPolytope, q: ConvexPolytope) -> ConvexPolytope:
    """Cartesian product P x Q (used for products of toric pairs)."""
    verts = tuple(vp + vq for vp in p.vertices for vq in q.vertices)
    hs = tuple((n + (0,) * q.dim, off) for n, off in p.halfspaces)
    hs += tuple(((0,) * p.dim + n, off) for n, off in q.halfspaces)
    return ConvexPolytope(p.dim + q.dim, verts, hs, p.pdim + q.pdim)


# ---------------------------------------------------------------------------
# volume and lattice points
# ---------------------------------------------------------------------------

def _triangulate_fulldim(points, dim):
    """Triangulation of a full-dimensional hull into index simplices.

    Cones the first vertex over a recursive triangulation of the facets not
    containing it.
    """
    if len(points) == dim + 1:
        return [tuple(range(dim + 1))]
    simplices = []
    for tight in _facets_fulldim(points, dim).values():
        if 0 in tight:
            continue
        fpts = [points[i] for i in tight]
        base = fpts[0]
        diffs = [vsub(p, base) for p in fpts[1:]]
        _, pivots = _rref(diffs)
        proj = [tuple(p[c] for c in pivots) for p in fpts]
        for sub in _triangulate_fulldim(proj, dim - 1):
            simplices.append((0,) + tuple(tight[i] for i in sub))
    return simplices


def volume(poly: ConvexPolytope):
    """Exact Lebesgue volume; 0 for polytopes below full ambient dimension."""
    if poly.pdim < poly.dim:
        return Rat(0)
    pts = list(poly.vertices)
    total = Rat(0)
    fact = 1
    for k in range(2, poly.dim + 1):
        fact *= k
    for simplex in _triangulate_fulldim(pts, poly.dim):
        base = pts[simplex[0]]
        mat = [vsub(pts[i], base) for i in simplex[1:]]
        total += abs(det(mat))
    return total / fact


def fiber_box(poly: ConvexPolytope, k=1):
    """Integer box of the first n-1 coordinates of the dilate k*P."""
    los, his = poly.bounding_box()
    return [(ceil_rat(lo * k), floor_rat(hi * k))
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
