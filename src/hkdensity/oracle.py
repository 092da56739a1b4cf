"""Lattice-counting oracle.

Validates the exact engine from the other direction: graded colengths of
Frobenius-style powers are counted as lattice points, without the area
machinery.  A degree-m monomial of the (saturated) section ring survives
the q-th power of the maximal ideal iff its exponent vector w lies in m*P
and w - q*u lies outside (m-q)*P for every lattice point u of P.  Counts
are dimension-agnostic and q ranges over all positive integers; the
normalized counts converge to the density function either way.

Counts go by lines along the last two coordinates (``geometry.lattice_lines``):
each line of a translate q*u + (m-q)*P lands whole on a line of m*P, and
covers it in closed form where no other translate's line meets its range
of fibers; only overlapping lines are united fiber by fiber.  Everything
runs on Python integers, so counts are exact at any size.
"""

from math import floor

from . import geometry as geo
from .rationals import Rat, Value


class OracleSample(Value):
    """Normalized colength count at Frobenius level q and degree m, with
    ``f_value`` the Rat count / q^{d-1}."""

    __slots__ = ("q", "m", "count", "f_value")


class ConvergenceReport(Value):
    """Oracle samples against the exact engine value at one parameter.

    ``gaps[i]`` is |samples[i].f_value - exact_value| (exact rational);
    ``max_gap_tail`` is the largest gap over the second half of the sample
    list, the quantity that should shrink as q grows.  ``exact_value`` is
    None for a base of dimension 3 or more (``convergence_report`` says
    why), and the gaps are None with it.
    """

    __slots__ = ("lam", "exact_value", "samples", "gaps", "max_gap_tail")


def _lines(P, k):
    """Lines (prefix, j0, bottoms, tops) of the lattice points of k*P."""
    return geo.lattice_lines([(n, off * k) for n, off in P.halfspaces],
                             geo.fiber_box(P, k))


def _count(P, q: int, m: int) -> int:
    """#{w in m*P : w - q*u lies outside (m-q)*P for every lattice point u
    of P}, the constraint dropped for m < q.  The count is 0 from
    m = (n+1)*q on, n = dim P (``oracle_ehk``)."""
    if m >= (P.dim + 1) * q:
        return 0
    total = geo.lattice_count(_lines(P, m))
    if m < q:
        return total
    # q*u + (m-q)*P lies in q*P + (m-q)*P = m*P: a line of (m-q)*P shifted by
    # q*u' for a fiber (u', lo, hi) of P lands on a line of m*P
    inner = []  # (x, j0, j1, bottoms, tops, sum of sizes L, sum of min(L, q))
    for x, j0, bottoms, tops in _lines(P, m - q):
        sizes = [max(b - a + 1, 0) for a, b in zip(bottoms, tops)]
        inner.append((x, j0, j0 + len(sizes) - 1, bottoms, tops, sum(sizes),
                      sum(min(size, q) for size in sizes)))
    targets = {}
    for u, uj0, lows, highs in _lines(P, 1):
        for uj, (lo, hi) in enumerate(zip(lows, highs), uj0):
            if lo > hi:
                continue
            for k, (x, j0, j1, *_) in enumerate(inner):
                key = tuple(a + q * c for a, c in zip(x, u))
                targets.setdefault(key, []).append(
                    (j0 + q * uj, j1 + q * uj, k, lo, hi))
    for line in targets.values():
        runs = []  # [reach, *shifted lines]: fiber ranges chained by overlap
        for c in sorted(line):
            if runs and c[0] <= runs[-1][0]:
                runs[-1][0] = max(runs[-1][0], c[1])
                runs[-1].append(c)
            else:
                runs.append([c[1], c])
        total -= sum(_covered(q, inner, run) for _, *run in runs)
    return total


def _covered(q, inner, run):
    """Points covered by a run of lines of ``inner`` shifted onto one line.
    A fiber of size L shifted by q*t, t in lo..hi, covers L + (hi-lo)*min(L, q)
    points, so a run of one line is a closed form in its sums; a longer run
    unites the spans of each fiber."""
    if len(run) == 1:
        _, _, k, lo, hi = run[0]
        *_, size, capped = inner[k]
        return size + (hi - lo) * capped
    covers, covered = {}, 0
    for start, _, k, lo, hi in run:
        _, _, _, bottoms, tops, *_ = inner[k]
        for j, (a, b) in enumerate(zip(bottoms, tops), start):
            if b - a + 1 >= q:  # translates along the fiber of u meet: one span
                covers.setdefault(j, []).append((a + q * lo, b + q * hi))
            elif a <= b:
                covers.setdefault(j, []).extend(
                    (a + q * t, b + q * t) for t in range(lo, hi + 1))
    for spans in covers.values():
        spans.sort()
        reach = spans[0][0] - 1
        for a, b in spans:
            if b > reach:
                covered += b - max(a - 1, reach)
                reach = b
    return covered


def slice_count(pair, q: int, m: int) -> int:
    """Degree-m colength count of the q-th Frobenius-style power.

    Counts w in m*P with no lattice point u of P such that w - q*u lies in
    (m-q)*P; for m < q the constraint is vacuous and every point counts.
    """
    if int(q) != q or int(m) != m or q < 1 or m < 0:
        raise ValueError("need integers q >= 1 and m >= 0")
    return _count(geo.anchored(pair.polytope), int(q), int(m))


def f_n(pair, q: int, lam) -> OracleSample:
    """Normalized count at parameter lam: m = floor(q*lam), f = count/q^{d-1}."""
    lam = Rat(lam)
    if lam < 0:
        raise ValueError("parameter must be nonnegative")
    m = floor(Rat(q) * lam)
    count = slice_count(pair, q, m)
    return OracleSample(q=int(q), m=m, count=count, f_value=Rat(
        count, int(q) ** (pair.d - 1)))


def oracle_ehk(pair, q: int):
    """Level-q estimate of the multiplicity: sum of all degree counts over
    q^d.

    Degrees run over 0 <= m < (n+1)*q, n = dim P; every count beyond is 0.
    By Caratheodory a lattice point w of m*P is a combination of at most
    n+1 vertices v_i with coefficients lambda_i >= 0 summing to m, so for
    m >= (n+1)*q some lambda_i >= q and w - q*v_i lies in (m-q)*P.
    """
    if q < 1 or int(q) != q:
        raise ValueError("need an integer q >= 1")
    P = geo.anchored(pair.polytope)
    q = int(q)
    total = sum(_count(P, q, m) for m in range((P.dim + 1) * q))
    return Rat(total, q ** (P.dim + 1))


def convergence_report(pair, lam, q_list) -> ConvergenceReport:
    """Oracle samples at each q against the exact density value at lam,
    read for a base of dimension 1 or 2 (d <= 3) only.  The exact engine
    also answers products and boxes of higher dimension (the cube's density
    at 3/2 is 19/8); the gate stays because ``perfbench/expected/oracle.json``
    records ``convergence`` on the cube with no exact value."""
    lam = Rat(lam)
    samples = tuple(f_n(pair, q, lam) for q in q_list)
    exact = None
    if pair.d <= 3:
        from .analysis import hkd_function  # not loaded for d > 3
        exact = hkd_function(pair)(lam)
    gaps = tuple(None if exact is None else abs(s.f_value - exact)
                 for s in samples)
    tail = [g for g in gaps[len(gaps) // 2:] if g is not None]
    max_gap_tail = max(tail) if tail else None
    return ConvergenceReport(lam=lam, exact_value=exact, samples=samples,
                             gaps=gaps, max_gap_tail=max_gap_tail)
