"""Independent references for the engine's integer kernels.

Slices of the density and defect regions by convex clipping, for the family
engine of ``hkdensity.regions``: a slice, the closed minuend minus the open
subtrahends, is cut into convex counterclockwise rings by Sutherland-Hodgman
clipping; its area is an exact shoelace sum.  A base segment [a, b] is
thickened to [a, b] x [0, 1], so its slices go through the same clipper and
their areas are lengths.  The same clipping decides which integer
translates of a dilate overlap the unit cell, for ``cell_translates``.

CSV rows and SVG plots of a piecewise polynomial sampled one point at a
time, ``f(end*i/N)`` as a ``Fraction``, for the integer grid sampler of
``hkdensity.cli``.
"""

import itertools
import math

from hkdensity import (EmptyRegionError, Rat, lattice_hull, rat_str, scale,
                       translate, vrep_from_hrep)


def intersect(p, q):
    """Exact intersection of two polytopes, or None when it is empty."""
    try:
        return vrep_from_hrep(list(p.halfspaces) + list(q.halfspaces), p.dim)
    except EmptyRegionError:
        return None


def _slack(row, x):
    """<normal, x> - offset of a facet row (normal, offset), as a Rat."""
    normal, offset = row
    return sum((a * b for a, b in zip(normal, x)), Rat(-offset))


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
        ring = _clip(ring, [_slack(h, p[:minuend.dim]) for p in ring])
    rings = [ring]
    for sub in subs:
        out = []
        for ring in rings:
            cells, rest = [], ring
            for h in sub.halfspaces:
                vals = [_slack(h, p[:sub.dim]) for p in rest]
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


def _unit_cell(dim):
    return lattice_hull(list(itertools.product((0, 1), repeat=dim)))


def _cell_candidates(small):
    """Integer u in [-hi, 1 - lo] for the bounding box [lo, hi] of
    ``small``: the only translates u + small that can meet the unit cell."""
    lo, hi = small.bounding_box()
    return _box_points([-b for b in hi], [1 - a for a in lo])


def phi_slice(pair, lam):
    """Rings of the part of the unit cell left uncovered by the lattice
    translates u + lam*P."""
    P, lam = pair.polytope, Rat(lam)
    cell = _unit_cell(P.dim)
    if lam == 0:
        return _difference_rings(cell, [])
    small = scale(P, lam)
    return _difference_rings(cell, [translate(small, u)
                                    for u in _cell_candidates(small)])


def meeting_translates(P, lam):
    """Integer u, in lexicographic order, whose u + lam*P overlaps the unit
    cell in positive area (positive length on the line): the candidates
    whose open body leaves less than the whole cell uncovered."""
    cell, small = _unit_cell(P.dim), scale(P, Rat(lam))
    return [u for u in _cell_candidates(small)
            if area(_difference_rings(cell, [translate(small, u)])) < 1]


def ring_difference_area(rings):
    """Exact area of the closed convex minuend ``rings[0]`` minus the open
    interiors of the convex subtrahends ``rings[1:]``, integer point rings."""
    return area(_difference_rings(lattice_hull(rings[0]),
                                  [lattice_hull(ring) for ring in rings[1:]]))


def function_csv_rows(f, samples):
    """Rows lambda, value of f at end*i/samples for i = 0..samples, where
    end is the support end (1 when it is at or below 0)."""
    end = f.breakpoints[-1]
    if end <= 0:
        end = Rat(1)
    rows = [("lambda", "value")]
    for i in range(samples + 1):
        x = end * i / samples
        rows.append((rat_str(x), rat_str(f(x))))
    return rows


def function_svg(f, samples, title):
    """Polyline plot of f at the points of ``function_csv_rows``, each
    converted from its ``Fraction``, with breakpoint markers."""
    width, height, margin = 640, 360, 40
    end = float(f.breakpoints[-1]) or 1.0
    end_rat = f.breakpoints[-1] if f.breakpoints[-1] > 0 else Rat(1)
    xs = [end_rat * i / samples for i in range(samples + 1)]
    ys = [float(f(x)) for x in xs]
    xs = [float(x) for x in xs]
    top = max(ys) or 1.0

    def px(x):
        return margin + (width - 2 * margin) * x / end

    def py(y):
        return height - margin - (height - 2 * margin) * y / top

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    marks = "".join(
        f'<circle cx="{px(float(b)):.2f}" cy="{py(float(f(b))):.2f}" r="3" fill="#c33"/>'
        for b in f.breakpoints)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#888"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#888"/>'
        f'<polyline points="{pts}" fill="none" stroke="#36c" stroke-width="1.5"/>'
        f"{marks}"
        f'<text x="{margin}" y="{margin - 10}" font-size="13">{title}</text>'
        "</svg>"
    )
