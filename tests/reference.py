"""Exact slices of the density and defect regions by convex clipping, an
independent reference for the family engine of ``hkdensity.regions``.

A slice, the closed minuend minus the open subtrahends, is cut into convex
counterclockwise rings by Sutherland-Hodgman clipping; its area is an exact
shoelace sum.  A base segment [a, b] is thickened to [a, b] x [0, 1], so its
slices go through the same clipper and their areas are lengths.
"""

import itertools
import math

from hkdensity import (EmptyRegionError, Rat, lattice_hull, scale, translate,
                       vrep_from_hrep)


def intersect(p, q):
    """Exact intersection of two polytopes, or None when it is empty."""
    try:
        return vrep_from_hrep(list(p.halfspaces) + list(q.halfspaces), p.dim)
    except EmptyRegionError:
        return None


def _clip(ring, vals):
    """The part of a convex counterclockwise ring where an affine function,
    with values ``vals`` at the ring points, is >= 0."""
    n = len(ring)
    out = []
    for i in range(n):
        j = (i + 1) % n
        if vals[i] >= 0:
            out.append(ring[i])
        if vals[i] * vals[j] < 0:
            s = vals[i] / (vals[i] - vals[j])
            out.append(tuple(a + s * (b - a) for a, b in zip(ring[i], ring[j])))
    return out


def _difference_rings(minuend, subs):
    """Convex rings with disjoint interiors covering the closed minuend
    minus the open subtrahends: the minuend's bounding box clipped by its
    facets, then each ring that meets a subtrahend with positive area
    replaced by the cells "facet h_j fails and h_1..h_{j-1} hold".  A
    segment's facets read the x coordinate only."""
    lo, hi = minuend.bounding_box()
    if minuend.dim == 1:
        lo, hi = lo + (0,), hi + (1,)
    ring = [lo, (hi[0], lo[1]), hi, (lo[0], hi[1])]
    for h in minuend.halfspaces:
        ring = _clip(ring, [h.eval(p[:minuend.dim]) for p in ring])
    rings = [ring]
    for sub in subs:
        out = []
        for ring in rings:
            cells, rest = [], ring
            for h in sub.halfspaces:
                vals = [h.eval(p[:sub.dim]) for p in rest]
                cell = _clip(rest, [-v for v in vals])
                if len(cell) >= 3:
                    cells.append(cell)
                rest = _clip(rest, vals)
                if len(rest) < 3:
                    break
            out.extend(cells if len(rest) >= 3 else [ring])
        rings = out
    return rings


def area(rings):
    """Exact total area of counterclockwise rings, by the shoelace sum."""
    return Rat(sum(p[0] * q[1] - p[1] * q[0] for ring in rings
                   for p, q in zip(ring, ring[1:] + ring[:1]))) / 2


def _box_points(lo, hi):
    return itertools.product(*(range(math.ceil(a), math.floor(b) + 1)
                               for a, b in zip(lo, hi)))


def hk_slice(pair, z):
    """Rings of z*P for z <= 1, else of z*P minus the translates
    u + (z-1)*P over the lattice points u of P."""
    P, z = pair.polytope, Rat(z)
    if z <= 1:
        return _difference_rings(scale(P, z), [])
    small = scale(P, z - 1)
    points = [u for u in _box_points(*P.bounding_box()) if P.contains(u)]
    return _difference_rings(scale(P, z),
                             [translate(small, u) for u in points])


def phi_slice(pair, lam):
    """Rings of the part of the unit cell left uncovered by the lattice
    translates u + lam*P; only u in [-hi, 1 - lo] can meet the cell, for
    the bounding box [lo, hi] of lam*P."""
    P, lam = pair.polytope, Rat(lam)
    cell = lattice_hull(list(itertools.product((0, 1), repeat=P.dim)))
    if lam == 0:
        return _difference_rings(cell, [])
    small = scale(P, lam)
    lo, hi = small.bounding_box()
    shifts = _box_points([-b for b in hi], [1 - a for a in lo])
    return _difference_rings(cell, [translate(small, u) for u in shifts])
