"""Lattice-counting oracle.

Validates the exact engine from the other direction: graded colengths of
Frobenius-style powers are counted as lattice points, without the area
machinery.  A degree-m monomial of the (saturated) section ring survives
the q-th power of the maximal ideal iff its exponent vector w lies in m*P
and w - q*u lies outside (m-q)*P for every lattice point u of P.  Counts
are dimension-agnostic and q ranges over all positive integers; the
normalized counts converge to the density function either way.

Counts go by fibers along the last coordinate (``geometry.lattice_fibers``):
each fiber of m*P counts its interval minus the union of the intervals of
the translates q*u + (m-q)*P, read off one shifted fiber table of (m-q)*P.
Memory is O(m^(n-1)) fibers (n = dim P), and everything runs on Python
integers, so counts are exact at any size.
"""

from __future__ import annotations

import operator

from . import geometry as geo
from .rationals import Rat, Value, floor_rat, rat_str


class OracleSample(Value):
    """Normalized colength count at Frobenius level q and degree m, with
    ``f_value`` the Rat count / q^{d-1}."""

    __slots__ = ("q", "m", "count", "f_value")


class ConvergenceReport(Value):
    """Oracle samples against the exact engine value at one parameter.

    ``gaps[i]`` is |samples[i].f_value - exact_value| (exact rational);
    ``max_gap_tail`` is the largest gap over the second half of the sample
    list, the quantity that should shrink as q grows.  ``exact_value`` is
    None when the base dimension is out of reach of the exact engine.
    """

    __slots__ = ("lam", "exact_value", "samples", "gaps", "max_gap_tail")

    def csv_rows(self):
        rows = [("q", "m", "count", "f_value", "exact_value", "gap")]
        for s, g in zip(self.samples, self.gaps):
            rows.append((
                str(s.q), str(s.m), str(s.count), rat_str(s.f_value),
                "" if self.exact_value is None else rat_str(self.exact_value),
                "" if g is None else rat_str(g),
            ))
        return rows


def _fibers(P, k):
    """Fibers (x', a, b) of the lattice points of k*P."""
    return geo.lattice_fibers([(n, off * k) for n, off in P.halfspaces],
                              geo.fiber_box(P, k))


def _count(P, q: int, m: int) -> int:
    """#{w in m*P : w - q*u lies outside (m-q)*P for every lattice point u
    of P}, the constraint dropped for m < q."""
    total = sum(b - a + 1 for _, a, b in _fibers(P, m))
    if m < q:
        return total
    # q*u + (m-q)*P lies in q*P + (m-q)*P = m*P, so each translate interval
    # lies in its fiber of m*P; collect them per fiber and remove their union
    inner = list(_fibers(P, m - q))
    covers = {}
    for u, lo, hi in _fibers(P, 1):
        shift = [q * c for c in u]
        for x, a, b in inner:
            spans = covers.setdefault(tuple(map(operator.add, x, shift)), [])
            if b - a + 1 >= q:  # translates along the fiber of u meet: one span
                spans.append((a + q * lo, b + q * hi))
            else:
                spans.extend((a + q * t, b + q * t) for t in range(lo, hi + 1))
    for spans in covers.values():
        spans.sort()
        reach = spans[0][0] - 1
        for a, b in spans:
            if b > reach:
                total -= b - max(a - 1, reach)
                reach = b
    return total


def slice_count(pair, q: int, m: int) -> int:
    """Degree-m colength count of the q-th Frobenius-style power.

    Counts w in m*P with no lattice point u of P such that w - q*u lies in
    (m-q)*P; for m < q the constraint is vacuous and every point counts.
    """
    if q < 1 or m < 0:
        raise ValueError("need q >= 1 and m >= 0")
    return _count(geo.anchored(pair.polytope), q, m)


def f_n(pair, q: int, lam) -> OracleSample:
    """Normalized count at parameter lam: m = floor(q*lam), f = count/q^{d-1}."""
    lam = Rat(lam)
    if lam < 0:
        raise ValueError("parameter must be nonnegative")
    m = floor_rat(Rat(q) * lam)
    count = slice_count(pair, q, m)
    return OracleSample(q=int(q), m=m, count=count, f_value=Rat(
        count, q ** pair.polytope.dim))


def oracle_ehk(pair, q: int):
    """Level-q estimate of the multiplicity: sum of all degree counts over
    q^d.

    Degrees run over 0 <= m < (n+1)*q, n = dim P; every count beyond is 0.
    By Caratheodory a lattice point w of m*P is a combination of at most
    n+1 vertices v_i with coefficients lambda_i >= 0 summing to m, so for
    m >= (n+1)*q some lambda_i >= q and w - q*v_i lies in (m-q)*P.
    """
    P = geo.anchored(pair.polytope)
    q = int(q)
    total = sum(_count(P, q, m) for m in range((P.dim + 1) * q))
    return Rat(total, q ** (P.dim + 1))


def convergence_report(pair, lam, q_list) -> ConvergenceReport:
    """Oracle samples at each q against the exact density value at lam,
    which the exact engine gives for base dimension 1 or 2 only."""
    lam = Rat(lam)
    samples = tuple(f_n(pair, q, lam) for q in q_list)
    exact = None
    if pair.polytope.dim <= 2:
        from .analysis import hkd_function  # loaded only when it can answer
        exact = hkd_function(pair)(lam)
    gaps = tuple(None if exact is None else abs(s.f_value - exact)
                 for s in samples)
    tail = [g for g in gaps[len(gaps) // 2:] if g is not None]
    max_gap_tail = max(tail) if tail else None
    return ConvergenceReport(lam=lam, exact_value=exact, samples=samples,
                             gaps=gaps, max_gap_tail=max_gap_tail)
