"""Lattice-counting oracle.

Validates the exact engine from the other direction: graded colengths of
Frobenius-style powers are counted as lattice points, without the area
machinery.  A degree-m monomial of the (saturated) section ring survives
the q-th power of the maximal ideal iff its exponent vector w lies in m*P
and w - q*u lies outside (m-q)*P for every lattice point u of P.  Counts
are dimension-agnostic and q ranges over all positive integers; the
normalized counts converge to the density function either way.

Counts go by fibers: over each point of the box of the first n-1
coordinates (n = dim P), the last coordinate of m*P and of each convex
translate q*u + (m-q)*P runs through one interval, bounded by exact
ceil/floor divisions of integer H-rep data, and a fiber counts its
interval minus the union of the translate intervals.  Memory is O(m^(n-1))
rows, not the O(m^n) points of n coordinates of a whole-box scan.  One
exact path runs on numpy arrays: int64 where a certificate rules out
overflow, Python integers (dtype=object) otherwise.  numpy is imported only
when a count runs.  The final reduction is an ordered sum, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry as geo
from . import regions
from .errors import UnsupportedDimensionError
from .rationals import Rat, ceil_rat, floor_rat, rat_str


@dataclass(frozen=True)
class OracleSample:
    """Normalized colength count at Frobenius level q and degree m."""

    q: int
    m: int
    count: int
    f_value: object  # Rat = count / q^{d-1}


@dataclass(frozen=True)
class ConvergenceReport:
    """Oracle samples against the exact engine value at one parameter.

    ``gaps[i]`` is |samples[i].f_value - exact_value| (exact rational);
    ``max_gap_tail`` is the largest gap over the second half of the sample
    list, the quantity that should shrink as q grows.  ``exact_value`` is
    None when the base dimension is out of reach of the exact engine.
    """

    lam: object
    exact_value: object
    samples: tuple
    gaps: tuple
    max_gap_tail: object

    def csv_rows(self):
        rows = [("q", "m", "count", "f_value", "exact_value", "gap")]
        for s, g in zip(self.samples, self.gaps):
            rows.append((
                str(s.q), str(s.m), str(s.count), rat_str(s.f_value),
                "" if self.exact_value is None else rat_str(self.exact_value),
                "" if g is None else rat_str(g),
            ))
        return rows


def _numpy_safe(hrep, bound: int, npoints: int) -> bool:
    """True when int64 holds every intermediate of a count: each numerator
    is at most (sum |normal| + |offset|) * bound, each count at most npoints."""
    mx = max(sum(abs(n) for n in normal) + abs(off) for normal, off in hrep)
    return max(mx * bound, npoints) < 2 ** 62


def _last_intervals(hrep, sums, offsets):
    """Per fiber (row) and body (column), the last-coordinate interval
    [lo, hi] of {x : <normal, x> >= offset}, empty when hi < lo; ``sums[k]``
    is <normal_k, x> without its last term, ``offsets[k]`` one offset per
    body."""
    import numpy as np

    lo, hi, ok = [], [], True
    for (normal, _), s, off in zip(hrep, sums, offsets):
        num = np.array(off, s.dtype) - s[:, None]
        c = normal[-1]
        if c > 0:
            lo.append(-(-num // c))
        elif c < 0:
            hi.append(num // c)
        else:
            ok = ok & (num <= 0)
    lo = np.max(lo, axis=0)
    return lo, np.where(ok, np.min(hi, axis=0), lo - 1)


def _count(P, hrep, gens, q: int, m: int) -> int:
    """#{w in m*P : w - q*u lies outside (m-q)*P for every u in gens}, the
    constraint dropped for m < q; ``hrep`` is ``integer_hrep(P)``."""
    import numpy as np

    los, his = P.bounding_box()
    lo = [ceil_rat(c * m) for c in los]
    hi = [floor_rat(c * m) for c in his]
    size = max(1, *(ceil_rat(abs(c)) for c in los + his))
    npoints = math.prod(max(0, b - a + 1) for a, b in zip(lo, hi))
    dtype = np.int64 if _numpy_safe(hrep, (m + q) * size, npoints) else object
    axes = [np.array(range(a, b + 1), dtype) for a, b in zip(lo[:-1], hi[:-1])]
    grid = np.meshgrid(*axes, indexing="ij", sparse=True)
    zero = np.zeros([len(x) for x in axes], dtype)
    sums = [sum((n * g for n, g in zip(normal, grid)), zero).ravel()
            for normal, _ in hrep]
    a, b = _last_intervals(hrep, sums, [[off * m] for _, off in hrep])
    total = np.maximum(b - a + 1, 0).sum()
    if m < q or not gens:
        return int(total)
    # q*u + (m-q)*P lies in q*P + (m-q)*P = m*P, so each translate interval
    # lies in [a, b]; sorted by start, an empty one (hi < lo) covers nothing
    # and never raises the reach past a later start
    lo_u, hi_u = _last_intervals(hrep, sums, [
        [off * (m - q) + q * geo.dot(normal, u) for u in gens]
        for normal, off in hrep])
    order = np.argsort(lo_u, axis=1)
    lo_u = np.take_along_axis(lo_u, order, axis=1)
    hi_u = np.take_along_axis(hi_u, order, axis=1)
    reach = np.concatenate(
        [a - 1, np.maximum.accumulate(hi_u, axis=1)[:, :-1]], axis=1)
    covered = np.maximum(hi_u - np.maximum(lo_u - 1, reach), 0).sum()
    return int(total - covered)


def ehrhart_count(poly, n: int) -> int:
    """#(n*P intersect Z^dim) for n >= 0."""
    if n < 0:
        raise ValueError("nonnegative dilation required")
    P = regions.base_polytope(poly)
    return _count(P, geo.integer_hrep(P), (), 0, int(n))


def slice_count(pair, q: int, m: int) -> int:
    """Degree-m colength count of the q-th Frobenius-style power.

    Counts w in m*P with no lattice point u of P such that w - q*u lies in
    (m-q)*P; for m < q the constraint is vacuous and every point counts.
    """
    if q < 1 or m < 0:
        raise ValueError("need q >= 1 and m >= 0")
    P = regions.anchored(regions.base_polytope(pair))
    return _count(P, geo.integer_hrep(P), geo.lattice_points(P), q, m)


def f_n(pair, q: int, lam) -> OracleSample:
    """Normalized count at parameter lam: m = floor(q*lam), f = count/q^{d-1}."""
    lam = Rat(lam)
    if lam < 0:
        raise ValueError("parameter must be nonnegative")
    m = floor_rat(Rat(q) * lam)
    count = slice_count(pair, q, m)
    return OracleSample(q=int(q), m=m, count=count, f_value=Rat(
        count, q ** regions.base_polytope(pair).dim))


def oracle_ehk(pair, q: int):
    """Level-q estimate of the multiplicity: sum of all degree counts over
    q^d.  Degrees run to q*(1+l), beyond the support of the density."""
    P = regions.anchored(regions.base_polytope(pair))
    hrep = geo.integer_hrep(P)
    gens = geo.lattice_points(P)
    q = int(q)
    total = sum(_count(P, hrep, gens, q, m)
                for m in range(0, q * (1 + len(P.vertices)) + 1))
    return Rat(total, q ** (P.dim + 1))


def convergence_report(pair, lam, q_list) -> ConvergenceReport:
    """Oracle samples at each q against the exact density value at lam."""
    lam = Rat(lam)
    samples = tuple(f_n(pair, q, lam) for q in q_list)
    try:
        from .analysis import hkd_function
        exact = hkd_function(pair)(lam)
    except UnsupportedDimensionError:
        exact = None
    gaps = tuple(None if exact is None else abs(s.f_value - exact)
                 for s in samples)
    tail = [g for g in gaps[len(gaps) // 2:] if g is not None]
    max_gap_tail = max(tail) if tail else None
    return ConvergenceReport(lam=lam, exact_value=exact, samples=samples,
                             gaps=gaps, max_gap_tail=max_gap_tail)
