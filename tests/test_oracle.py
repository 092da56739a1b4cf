import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdensity import oracle
from hkdensity import (
    Rat,
    ToricPair,
    convergence_report,
    e_hk,
    f_n,
    hkd_function,
    lattice_points,
    oracle_ehk,
    scale,
    segre,
    slice_count,
)
from hkdensity.cli import convergence_csv_rows

from conftest import (
    hull_or_none,
    plane_anticanonical,
    plane_degree_one,
    projective_line,
    quadric_anticanonical,
    symmetric_hexagon,
    unit_square,
)


# --- ehrhart counts -----------------------------------------------------------

def _dilate_count(P, n):
    """#(n*P intersect Z^dim); 0*P is the origin."""
    return len(lattice_points(scale(P, n))) if n else 1


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 3), (4, 15), (7, 36)])
def test_ehrhart_simplex(n, expected):
    assert _dilate_count(plane_degree_one().polytope, n) == expected


def test_ehrhart_anticanonical_triangle():
    assert _dilate_count(plane_anticanonical().polytope, 1) == 10


def test_ehrhart_zero_dilate():
    assert _dilate_count(quadric_anticanonical().polytope, 0) == 1


# --- slice counts ----------------------------------------------------------------

def test_slice_count_simplex_squarefree():
    # degree-2 monomials in three variables surviving squares: xy, yz, zx
    assert slice_count(plane_degree_one(), 2, 2) == 3


def test_slice_count_degree_zero():
    assert slice_count(plane_anticanonical(), 5, 0) == 1


def test_slice_count_line_q4_m5():
    # monomials x^a y^b with a+b=5 and a,b < 4: exactly a in {2, 3}
    brute = sum(1 for a in range(6) if a < 4 and 5 - a < 4)
    assert brute == 2
    assert slice_count(projective_line(1), 4, 5) == brute


@pytest.mark.parametrize("q", [2, 3, 5])
def test_slice_count_unconstrained_below_q(q):
    pair = plane_anticanonical()
    for m in range(q):
        assert slice_count(pair, q, m) == _dilate_count(pair.polytope, m)


def test_slice_count_translation_invariant():
    # slice_count anchors P, so it sees every translate alike; the count
    # under it must not depend on where P lies either.  Each (q, m) counts
    # points on both sides of level 1
    from hkdensity import translate
    pair = plane_anticanonical()
    for shift in [(0, 0), (3, -2), (-5, 4), (-2, -7)]:
        moved = translate(pair.polytope, shift)
        for (q, m) in [(3, 2), (4, 5), (6, 7), (9, 11)]:
            expected = slice_count(pair, q, m)
            assert slice_count(ToricPair(moved), q, m) == expected
            assert oracle._count(moved, q, m) == expected


# --- normalized samples ------------------------------------------------------------

def test_f_n_simplex_value():
    sample = f_n(plane_degree_one(), 2, 1)
    assert (sample.q, sample.m, sample.count) == (2, 2, 3)
    assert sample.f_value == Rat(3, 4)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_f_n_at_zero(q):
    sample = f_n(plane_anticanonical(), q, 0)
    assert sample.f_value == Rat(1, q * q)


def test_f_n_beyond_support_is_zero():
    pair = plane_degree_one()
    assert f_n(pair, 8, 1 + pair.l).f_value == 0


# --- multiplicity estimates -----------------------------------------------------------

def test_oracle_ehk_quadric_converges():
    pair = unit_square()
    est = oracle_ehk(pair, 16)
    assert abs(est - Rat(4, 3)) <= Rat(1, 8)


def test_oracle_ehk_regular_ring_is_exact():
    # all monomials with exponents below q survive: the estimate is exact
    pair = plane_degree_one()
    for q in (2, 4, 8):
        assert oracle_ehk(pair, q) == 1


def test_oracle_ehk_line_degree_one_is_exact():
    # degree-m survivors number m+1 below q and 2q-m-1 up to 2q-2;
    # the two sums telescope to exactly q^2
    pair = projective_line(1)
    for q in (3, 8, 13):
        assert oracle_ehk(pair, q) == 1


def test_oracle_ehk_gap_shrinks():
    pair = unit_square()
    exact = e_hk(pair)
    gaps = [abs(oracle_ehk(pair, q) - exact) for q in (4, 8, 16)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_oracle_ehk_dimension_agnostic_cube():
    p = projective_line(1)
    cube = segre(p, p, p)
    est = oracle_ehk(cube, 8)
    # product-rule multiplicity of the cube, integrated by hand: exactly 2
    assert abs(est - 2) <= Rat(2, 10)


@pytest.mark.parametrize("pair,q", [
    (segre(projective_line(1), projective_line(1), projective_line(1)), 8),
    # Reeve tetrahedron: not normal, and its last nonzero degree is 14 = 4q-2
    (ToricPair.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]), 4),
    (plane_degree_one(), 8),
    (symmetric_hexagon(), 6),
], ids=["cube", "reeve", "simplex", "hexagon"])
def test_oracle_ehk_drops_only_vanishing_degrees(pair, q):
    # counts vanish from degree (n+1)*q up to the old limit q*(1+l), l vertices
    n, l = pair.polytope.dim, len(pair.polytope.vertices)
    counts = [slice_count(pair, q, m) for m in range(q * (1 + l) + 1)]
    assert not any(counts[(n + 1) * q:])
    assert oracle_ehk(pair, q) == Rat(sum(counts), q ** (n + 1))


@pytest.mark.parametrize("pair", [
    plane_degree_one(),
    segre(projective_line(1), projective_line(1), projective_line(1)),
    ToricPair.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]),
], ids=["simplex", "cube", "reeve"])
def test_brute_counts_vanish_from_the_caratheodory_bound(pair):
    # slice_count answers 0 from m = (n+1)*q on without a scan
    n = pair.polytope.dim
    assert _brute_count(pair.polytope, 4, (n + 1) * 4) == 0


def test_counts_past_the_caratheodory_bound_take_no_scan():
    # m = 4*10^6 is far past (n+1)*q = 12; a scan of m*P costs time and
    # memory linear in m
    start = time.perf_counter()
    assert f_n(plane_degree_one(), 4, 10 ** 6).count == 0
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("q", [0, -1, 2.5, Rat(5, 2)])
def test_oracle_ehk_needs_a_positive_integer_level(q):
    with pytest.raises(ValueError, match="integer q >= 1"):
        oracle_ehk(plane_degree_one(), q)


@pytest.mark.parametrize("call", [
    lambda pair: slice_count(pair, 2.5, 2),
    lambda pair: slice_count(pair, 2.5, 3),
    lambda pair: slice_count(pair, 2, Rat(5, 2)),
    lambda pair: f_n(pair, Rat(5, 2), 1),
    lambda pair: convergence_report(pair, 1, [2, 2.5]),
], ids=["level_float", "level_float_deep", "degree_rat", "f_n_level_rat",
        "convergence_level_float"])
def test_counts_need_an_integer_level_and_degree(call):
    # q is a Frobenius level and m a degree: a fraction of either is refused
    # before the lattice walk
    with pytest.raises(ValueError, match="integers q >= 1 and m >= 0"):
        call(plane_degree_one())


def test_integral_level_and_degree_read_as_ints():
    pair = plane_degree_one()
    assert slice_count(pair, 2.0, 2.0) == slice_count(pair, 2, 2) == 3
    assert f_n(pair, 2.0, 1) == f_n(pair, 2, 1)


# --- convergence reports ----------------------------------------------------------------

def test_convergence_report_line():
    pair = projective_line(2)
    rep = convergence_report(pair, Rat(5, 4), [4, 8, 16, 32])
    assert rep.exact_value == 1
    assert list(rep.gaps) == [Rat(1, 2), Rat(1, 4), Rat(1, 8), Rat(1, 16)]
    assert rep.max_gap_tail == Rat(1, 8)
    rows = convergence_csv_rows(rep)
    assert rows[0] == ("q", "m", "count", "f_value", "exact_value", "gap")
    assert len(rows) == 5


def test_counts_confirm_ruled_surface_corrected_piece():
    # (a,c,d) = (1,1,2) at lam = 17/12, inside the interval whose closed
    # form needs the extra lam factor: corrected value 283/144, the variant
    # without the factor gives 243/144.  The normalized counts close in on
    # the corrected value at rate ~1/q and overshoot the variant.
    from hkdensity import ToricPair
    pair = ToricPair.from_fan([(1, 0), (0, 1), (-1, 1), (0, -1)], [1, 0, 0, 2])
    lam = Rat(17, 12)
    exact = hkd_function(pair)(lam)
    assert exact == Rat(283, 144)
    gaps = [abs(f_n(pair, q, lam).f_value - exact) for q in (12, 24, 48)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < Rat(8, 48)
    assert f_n(pair, 48, lam).f_value > Rat(243, 144)


def test_counts_converge_to_the_product_density_of_two_planes():
    # P^2 x P^2 is out of reach of the planar engine; its density folds
    # over the two triangles, and the counts close in on it
    pair = segre(plane_degree_one(), plane_degree_one())
    f = hkd_function(pair)
    assert e_hk(pair) == Rat(39, 20)
    lam = Rat(3, 2)
    gaps = [abs(f_n(pair, q, lam).f_value - f(lam)) for q in (12, 24, 48)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_convergence_report_without_exact_value():
    line = projective_line(1)
    cube = segre(line, line, line)
    rep = convergence_report(cube, Rat(1, 2), [2, 4])
    assert rep.exact_value is None and rep.max_gap_tail is None
    assert [s.count for s in rep.samples] == [8, 27]
    assert convergence_csv_rows(rep)[1] == ("2", "1", "8", "1", "", "")


def test_segre_counts_build_one_product_polytope_each(monkeypatch):
    # the base dimension comes from the pair, so the product polytope of a
    # segre spec is built only for the count that walks it
    from hkdensity import geometry
    built = []
    product = geometry.product

    def counted(*polytopes):
        built.append(polytopes)
        return product(*polytopes)

    monkeypatch.setattr(geometry, "product", counted)
    line = projective_line(1)
    cube = segre(line, line, line)
    assert f_n(cube, 4, Rat(3, 2)).f_value == Rat(127, 64)
    assert len(built) == 2
    built.clear()
    convergence_report(cube, Rat(3, 2), [16, 32, 64])
    assert len(built) == 6


def test_convergence_gap_bound_simplex():
    pair = plane_degree_one()
    f = hkd_function(pair)
    for lam in (Rat(1, 2), Rat(1), Rat(3, 2)):
        gaps = []
        for q in (4, 8, 16, 32, 64):
            gaps.append(abs(f_n(pair, q, lam).f_value - f(lam)))
            assert gaps[-1] <= Rat(4, q)
        assert all(gaps[-1] < g for g in gaps[:-1])


def test_convergence_exact_at_matching_denominator():
    # for the unit square at lam = 1/2, even q counts the dilate (q/2)*P
    # exactly: count = (q/2 + 1)^2, so the gap is (q+1)/q^2
    pair = unit_square()
    f = hkd_function(pair)
    for q in (2, 4, 8):
        sample = f_n(pair, q, Rat(1, 2))
        assert sample.count == (q // 2 + 1) ** 2
        assert sample.f_value - f(Rat(1, 2)) == Rat(q + 1, q * q)


# --- line kernel against a brute-force box scan -----------------------------------

def _brute_count(P, q, m):
    """Points w of the box of m*P with w in m*P and, for m >= q, w - q*u
    outside (m-q)*P for every lattice point u of P; pure-Python integers."""
    def points(t):
        lo, hi = P.bounding_box()
        box = itertools.product(*(range(math.ceil(a * t), math.floor(b * t) + 1)
                                  for a, b in zip(lo, hi)))
        return [x for x in box if all(
            sum(n * c for n, c in zip(normal, x)) >= off * t
            for normal, off in P.halfspaces)]

    gens = points(1)
    inner = set(points(m - q)) if m >= q else set()
    return sum(1 for w in points(m) if not any(
        tuple(c - q * e for c, e in zip(w, u)) in inner for u in gens))


_POLYGON = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=6)
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _polygon_pair(points):
    P = hull_or_none(points)
    assume(P is not None)
    return ToricPair(P)


@_SETTINGS
@given(points=_POLYGON, q=st.integers(1, 4), data=st.data())
def test_slice_count_matches_brute_force_on_polygons(points, q, data):
    pair = _polygon_pair(points)
    m = data.draw(st.integers(0, 3 * q), label="m")
    assert slice_count(pair, q, m) == _brute_count(pair.polytope, q, m)
    # q > m drops the translate constraint: every point of m*P counts
    assert _dilate_count(pair.polytope, m) == _brute_count(pair.polytope, m + 1, m)


@_SETTINGS
@given(length=st.integers(1, 2), points=_POLYGON, q=st.integers(1, 2),
       data=st.data())
def test_slice_count_matches_brute_force_on_segre_products(length, points, q,
                                                             data):
    pair = segre(ToricPair.from_vertices([(0,), (length,)]),
                 _polygon_pair(points))
    m = data.draw(st.integers(0, 2 * q + 1), label="m")
    assert slice_count(pair, q, m) == _brute_count(pair.polytope, q, m)


# m in (q, 2q]: an inner line of (m-q)*P shifted by q*u either meets no other
# shifted line on its target line of m*P (closed form) or overlaps one (union)
_SMALL_POLYGON = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          min_size=3, max_size=6)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(points=_SMALL_POLYGON, length=st.integers(0, 1), q=st.integers(3, 8),
       data=st.data())
def test_slice_count_matches_brute_force_past_q(points, length, q, data):
    pair = _polygon_pair(points)
    if length:
        pair = segre(ToricPair.from_vertices([(0,), (length,)]), pair)
    m = data.draw(st.integers(q + 1, 2 * q), label="m")
    assert slice_count(pair, q, m) == _brute_count(pair.polytope, q, m)


_FACTOR = st.one_of(
    st.integers(1, 3).map(lambda n: ToricPair.from_vertices([(0,), (n,)])),
    _SMALL_POLYGON.map(hull_or_none).filter(bool).map(ToricPair))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(first=_FACTOR, second=_FACTOR, q=st.sampled_from([2, 3, 5]),
       data=st.data())
def test_slice_count_obeys_the_product_rule(first, second, q, data):
    # the translates covering m*(P x Q) are products of those covering m*P
    # and m*Q, so the covered counts N - c multiply
    m = data.draw(st.integers(0, 3 * q - 1), label="m")
    n_p, n_q = (_dilate_count(f.polytope, m) for f in (first, second))
    c_p, c_q = (slice_count(f, q, m) for f in (first, second))
    assert slice_count(segre(first, second), q, m) == (
        n_p * n_q - (n_p - c_p) * (n_q - c_q))


@pytest.mark.parametrize("factors,q,m", [
    ([1, 1, 1], 3, 5), ([1, 1, 1], 3, 6), ([1, 1, 1], 4, 7),
    ([1, 2, 1, 1], 3, 4), ([1, 2, 1, 1], 3, 5), ([1, 1, 2, 1], 3, 6),
    ([3], 3, 5), ([5], 4, 8), ([2], 7, 9),
], ids=["cube-5", "cube-6", "cube-7", "box4d-4", "box4d-5", "box4d-6",
        "segment-5", "segment-8", "segment-9"])
def test_slice_count_matches_brute_force_on_boxes(factors, q, m):
    lines = [ToricPair.from_vertices([(0,), (a,)]) for a in factors]
    pair = segre(*lines) if len(lines) > 1 else lines[0]
    assert slice_count(pair, q, m) == _brute_count(pair.polytope, q, m)


@pytest.mark.parametrize("q", [2 ** 61, 2 ** 70])
def test_slice_count_beyond_int64_on_a_line(q):
    # q = m: w in [0, 2m] dies iff w = q*u for u in {0, 1, 2}
    line = ToricPair.from_vertices([(0,), (2,)])
    assert slice_count(line, q, q) == 2 * (q - 1)


@pytest.mark.parametrize("call", [
    lambda pair: slice_count(pair, 0, 1),
    lambda pair: f_n(pair, 2, -1),
], ids=["level_zero", "negative_parameter"])
def test_out_of_range_counts_are_value_errors(call):
    with pytest.raises(ValueError):
        call(projective_line(2))
