"""Independent references for the engine's integer kernels.

Slices of the density and defect regions by convex clipping, for the family
engine of ``hkdensity.regions``: a slice, the closed minuend minus the open
subtrahends, is cut into convex counterclockwise rings by Sutherland-Hodgman
clipping; its area is an exact shoelace sum.  A base segment [a, b] is
thickened to [a, b] x [0, 1], so its slices go through the same clipper and
their areas are lengths.  The same clipping decides which integer
translates of a dilate overlap the unit cell, for ``cell_translates``.

The events of a family record by brute force: every triple of its facet
lines, solved for the point and the parameter where they meet by Cramer's
rule, for the distinct-line scan ``regions._events``.

CSV rows and SVG plots of a piecewise polynomial sampled one point at a
time, ``f(end*i/N)`` as a ``Fraction``, for the integer grid sampler of
``hkdensity.cli``.

The command line as the README's command and flag tables document it,
parsed by ``argparse``, for the table-driven parser of ``hkdensity.cli``.
"""

import argparse
import itertools
import math
import re
from fractions import Fraction

from hkdensity import (DimMismatchError, EmptyRegionError, Rat, lattice_hull,
                       rat_str, scale, translate, vrep_from_hrep)


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


def contains(P, x):
    """Whether the closed polytope P holds the point x."""
    if len(x) != P.dim:
        raise DimMismatchError(
            f"point of dimension {len(x)} vs polytope in R^{P.dim}")
    return all(_slack(row, x) >= 0 for row in P.halfspaces)


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
    points = [u for u in _box_points(*P.bounding_box()) if contains(P, u)]
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


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def brute_events(record):
    """Parameters t in the open (lo, hi) of a ``regions._FamilyRecord``
    where three facet lines nx*X + ny*Y = a + b*t meet at one point (X, Y)
    that lies in the closed minuend, in the closed bodies of the three
    lines, and in the open interior of no subtrahend."""
    facets = record.facets
    lines = [(k, f) for k, row in enumerate(facets) for f in row]
    lo, hi = Fraction(*record.lo), Fraction(*record.hi)
    events = set()
    for triple in itertools.combinations(lines, 3):
        # Cramer's rule on nx*X + ny*Y - b*t = a: (X, Y, t) = (x, y, s)/det
        rows = [(nx, ny, -b, a) for _, (nx, ny, a, b) in triple]
        det = _det3([row[:3] for row in rows])
        if det == 0:
            continue
        x, y, s = (_det3([row[:j] + row[3:] + row[j + 1:3] for row in rows])
                   for j in range(3))
        if det < 0:
            det, x, y, s = -det, -x, -y, -s
        t = Fraction(s, det)

        def slacks(k):
            return [nx * x + ny * y - a * det - b * s
                    for nx, ny, a, b in facets[k]]

        owners = {0} | {k for k, _ in triple}
        if (lo < t < hi and all(min(slacks(k)) >= 0 for k in owners)
                and not any(min(slacks(k)) > 0
                            for k in range(1, len(facets)))):
            events.add(t)
    return events


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


class UsageError(Exception):
    """A command line that ``argparse`` rejects (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Choice(str):
    """A choice that prints quoted: argparse up to 3.13.0 lists the choices
    of an invalid choice by repr, later releases by str, and the CLI keeps
    the repr on every version."""

    def __str__(self):
        return repr(self)


def _table(lines, header):
    """Cells of each row of the markdown table whose header starts with
    ``header``."""
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])


def _ticked(cell):
    return re.findall(r"`([^`]*)`", cell)


def _rational(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _check(text):
    """The value check a ``checked`` cell describes, raising ValueError."""
    def at_least(value, low):
        if value < low:
            raise ValueError(value)
        return value

    if "comma list" in text:
        return lambda v: [at_least(int(p), 1) for p in v.split(",")]
    if "rational" in text:
        return lambda v: at_least(_rational(v), 0)
    if "integer" in text:
        return lambda v: at_least(int(v), 1)
    if "≥ 1" in text:
        return lambda v: at_least(v, 1)
    return None


class ReadmeCommandLine:
    """An ``argparse`` parser with one subparser per row of the README's
    command table and, on each, the rows of its flag table that name the
    command, in table order: ``value`` gives the type (integer, a list of
    choices, else text), ``default`` the default (``required`` is checked
    after parsing) and ``checked`` the check of a value given."""

    def __init__(self, readme_text):
        lines = readme_text.splitlines()
        self.commands = [_ticked(row[0])[0] for row in _table(lines, "| command")]
        self.flags = {command: [] for command in self.commands}
        self.parser = _Parser(prog="hkdensity")
        sub = self.parser.add_subparsers(dest="command", required=True)
        parsers = {command: sub.add_parser(_Choice(command))
                   for command in self.commands}
        for flag, value, checked, default, commands in _table(lines, "| flag"):
            flag = _ticked(flag)[0]
            kind = int if value == "integer" else str
            ticked = _ticked(default)
            for command in _ticked(commands) or self.commands:
                parsers[command].add_argument(
                    flag, dest=flag, type=kind,
                    choices=[_Choice(c) for c in _ticked(value)] or None,
                    default=kind(ticked[0]) if ticked else None)
                self.flags[command].append(
                    (flag, _check(checked), default == "required"))

    def parse(self, argv):
        """(2, argparse's message) for a usage error, (0, None) for -h or
        --help, (1, None) for a value that fails its check or a missing
        required flag, else (0, {flag: checked value})."""
        try:
            namespace = vars(self.parser.parse_args(argv))
        except UsageError as exc:
            return 2, str(exc)
        except SystemExit as exc:  # help was printed
            return exc.code, None
        values = {}
        for flag, check, required in self.flags[namespace["command"]]:
            value = namespace[flag]
            if value is None and required:
                return 1, None
            try:
                values[flag] = value if value is None or not check else check(value)
            except (ValueError, ZeroDivisionError):
                return 1, None
        return 0, values
