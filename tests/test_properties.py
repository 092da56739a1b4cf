"""Cross-cutting invariants, exercised over the whole fixture catalog."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdensity import (
    Poly,
    Rat,
    ToricPair,
    e_hk,
    hk_report,
    hkd_function,
    hrep_from_vrep,
    limit_values,
    pair_volume,
    phi_function,
    scale,
    segre,
    tiling_values,
    translate,
)
from math import factorial

from hkdensity.analysis import cell_cover_scale, e_hk
from hkdensity.geometry import anchored
from hkdensity.regions import cell_translates

from conftest import (
    FANO_TABLE,
    blowup1_anticanonical,
    blowup2_anticanonical,
    blowup3_anticanonical,
    hirzebruch,
    hull_or_none,
    plane_anticanonical,
    plane_degree_one,
    projective_line,
    quadric_anticanonical,
    symmetric_hexagon,
    unit_square,
)
from reference import (area, contains, hk_slice, meeting_translates,
                       phi_slice)

ALL_PAIRS = [
    projective_line(1), projective_line(3),
    plane_degree_one(), unit_square(),
    quadric_anticanonical(), plane_anticanonical(),
    blowup1_anticanonical(), symmetric_hexagon(),
    hirzebruch(1, 2, 1), hirzebruch(1, 1, 2),
]

SURFACE_PAIRS = [p for p in ALL_PAIRS if p.d == 3]


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_emitted_functions_exactly_continuous(pair):
    assert hkd_function(pair).is_continuous()
    assert phi_function(pair).is_continuous()


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_density_head_is_volume_power(pair):
    f = hkd_function(pair)
    vol = pair_volume(pair)
    rng = random.Random(pair.l * 1009 + pair.d)
    for _ in range(8):
        lam = Rat(rng.randint(0, 64), 64)
        assert f(lam) == vol * lam ** (pair.d - 1)


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_support_bounds(pair):
    f = hkd_function(pair)
    assert Rat(0) <= f.breakpoints[0] and f.breakpoints[-1] <= 1 + pair.l
    phi = phi_function(pair)
    r = cell_cover_scale(pair)
    assert phi.breakpoints[-1] <= r <= pair.l * r
    assert area(hk_slice(pair, 1 + pair.l)) == 0


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_defect_function_bounds(pair):
    phi = phi_function(pair)
    vol = pair_volume(pair)
    assert phi(0) == 1
    rng = random.Random(pair.l * 31 + 7)
    for _ in range(12):
        lam = Rat(rng.randint(0, 80), 60)
        value = phi(lam)
        assert 0 <= value <= 1
        assert value >= 1 - lam ** (pair.d - 1) * vol


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_multiplicity_dominates_normalized_degree(pair):
    assert e_hk(pair) >= limit_values(pair)[0] / factorial(pair.d)


@pytest.mark.parametrize("pair", SURFACE_PAIRS)
def test_growth_lower_bound_exact_with_tiling_equality(pair):
    # Vol * (int phi)^{d-1} >= ((d-1)/d)^{d-1}, equality iff the base tiles
    d = pair.d
    lhs = pair_volume(pair) * phi_function(pair).integral() ** (d - 1)
    rhs = Rat(d - 1, d) ** (d - 1)
    assert lhs >= rhs
    tiles, gap = tiling_values(pair)
    assert (lhs == rhs) == tiles
    assert gap >= -1e-12


# Theorem t4 for surfaces in exact form: B >= 0 reads 9 * A^2 >= 2 * e0 at
# d = 3, with equality exactly for the tilers
def _assert_t4(pair, tiles):
    e0, _, a = limit_values(pair)
    lhs, rhs = 9 * a ** 2, 2 * e0
    assert lhs >= rhs
    assert (lhs == rhs) is tiles


@pytest.mark.parametrize("pair,tiles", [
    *[(factory(), factory is quadric_anticanonical)
      for factory, *_ in FANO_TABLE],
    (hirzebruch(1, 2, 1), False),
    (hirzebruch(2, 1, 3), False),
    (plane_degree_one(), False),
    (symmetric_hexagon(), True),
    (unit_square(), True),
    (ToricPair(hrep_from_vrep([(0, 0), (2, 0), (0, 2), (2, 2)])), True),
    # a tiler that is not a box: edges (1, 0) and (2, 4)
    (ToricPair(hrep_from_vrep([(0, 0), (1, 0), (3, 4), (2, 4)])), True),
], ids=["quadric", "plane", "blowup1", "blowup2", "blowup3", "hirzebruch121",
        "hirzebruch213", "triangle", "hexagon", "square", "square2",
        "parallelogram"])
def test_growth_bound_t4_exact_for_surfaces(pair, tiles):
    _assert_t4(pair, tiles)


@pytest.mark.parametrize("pair", [plane_anticanonical(), symmetric_hexagon(),
                                  projective_line(2), hirzebruch(1, 2, 1)])
def test_report_translation_invariant(pair):
    rng = random.Random(1234 + pair.l)
    rep = hk_report(pair)
    for _ in range(2):
        shift = tuple(rng.randint(-5, 5) for _ in range(pair.d - 1))
        moved = ToricPair(translate(pair.polytope, shift))
        rep2 = hk_report(moved)
        assert rep.hkd == rep2.hkd
        assert rep.phi == rep2.phi
        assert (rep.e0, rep.h0, rep.e_hk, rep.phi_integral, rep.limit_A,
                rep.tiling_gap_B, rep.is_tiler) == (
            rep2.e0, rep2.h0, rep2.e_hk, rep2.phi_integral, rep2.limit_A,
            rep2.tiling_gap_B, rep2.is_tiler)


@pytest.mark.parametrize("pair", ALL_PAIRS + [
    segre(projective_line(2), plane_degree_one()),
    segre(symmetric_hexagon(), projective_line(3))])
def test_report_carries_the_limit_and_tiling_values(pair):
    # the report and the limit and tiling commands read one set of formulas
    rep = hk_report(pair)
    assert (rep.e0, rep.phi_integral, rep.limit_A) == limit_values(pair)
    assert (rep.is_tiler, rep.tiling_gap_B) == tiling_values(pair)


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_density_integral_in_classical_window(pair):
    # e0/d! <= e_HK <= h0-fold of it; loose sanity around the exact value
    value = e_hk(pair)
    assert value >= 1  # normal toric rings: 1 with equality iff regular
    if pair.polytope.dim == 2 and pair_volume(pair) == Rat(1, 2):
        assert value == 1


# --- random lattice polygons ---------------------------------------------------

_POLYGON = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=3, max_size=6)
# generators of GL2(Z): shears, the coordinate swap and a reflection
_UNIMODULAR = st.lists(st.sampled_from([
    ((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)), ((1, 0), (0, -1)),
]), min_size=1, max_size=2)
_SHIFT = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_RANDOM_SETTINGS = settings(max_examples=9, deadline=None, derandomize=True)


def _polygon_pair(points):
    P = hull_or_none(points)
    assume(P is not None)
    return ToricPair(P)


def _probes(f):
    """Every breakpoint of f and every midpoint between two of them."""
    bps = list(f.breakpoints)
    return bps + [(a + b) / 2 for a, b in zip(bps, bps[1:])]


@_RANDOM_SETTINGS
@given(points=_POLYGON)
def test_random_polygon_functions_match_slices(points):
    # the family engine against the independent clipping route
    pair = _polygon_pair(points)
    f = hkd_function(pair)
    for z in _probes(f):
        assert area(hk_slice(pair, z)) == f(z)
    phi = phi_function(pair)
    probes = _probes(phi)
    for lam in probes:
        assert area(phi_slice(pair, lam)) == phi(lam)
    # the tiling lower bound, tight exactly for tilers; the probes hold three
    # points of each quadratic piece, so equality there is equality of phi
    # with the bound on its whole support
    vol = pair_volume(pair)
    assert all(phi(lam) >= max(0, 1 - vol * lam ** 2) for lam in probes)
    assert tiling_values(pair)[0] == all(phi(lam) == 1 - vol * lam ** 2
                                         for lam in probes)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(points=_POLYGON)
def test_random_polygon_growth_bound_t4_exact(points):
    pair = _polygon_pair(points)
    _assert_t4(pair, tiling_values(pair)[0])


def _mapped(points, maps, shift=(0, 0)):
    """Points under the product of the generator ``maps``, then shifted."""
    for (a, b), (c, d) in maps:
        points = [(a * x + b * y, c * x + d * y) for x, y in points]
    return [(x + shift[0], y + shift[1]) for x, y in points]


def _image(pair, maps, shift=(0, 0)):
    return ToricPair(
        hrep_from_vrep(_mapped(pair.polytope.vertices, maps, shift)))


@_RANDOM_SETTINGS
@given(points=_POLYGON, maps=_UNIMODULAR, shift=_SHIFT)
def test_random_polygon_functions_unimodular_invariant(points, maps, shift):
    pair = _polygon_pair(points)
    moved = _image(pair, maps, shift)
    assert hkd_function(pair) == hkd_function(moved)
    assert phi_function(pair) == phi_function(moved)


def _corner_search_cover_scale(pair):
    """Reference: the least r <= 64 such that some integer v in the box of
    r*P has all 2^n corners of v + [0,1]^n in r*P, by Rat containment."""
    P = anchored(pair.polytope)
    corners = list(itertools.product((0, 1), repeat=P.dim))
    for r in range(1, 65):
        big = scale(P, r)
        lo, hi = big.bounding_box()
        box = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
        for v in itertools.product(*box):
            if all(contains(big, [x + c for x, c in zip(v, corner)])
                   for corner in corners):
                return r
    return None


# a wider grid than _POLYGON, so thin triangles need covering scales up to 12
_COVER_POLYGON = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=3, max_size=5)


# the engine stops at 2, where the translates of 2P cover the plane
@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=_COVER_POLYGON)
def test_random_polygon_cell_cover_scale_matches_corner_search(points):
    pair = _polygon_pair(points)
    assert cell_cover_scale(pair) == min(_corner_search_cover_scale(pair), 2)


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_cell_cover_scale_matches_corner_search(pair):
    assert cell_cover_scale(pair) == min(_corner_search_cover_scale(pair), 2)


def test_cell_cover_scale_of_a_sheared_unit_triangle():
    # a unimodular image of the unit triangle whose r*P holds no axis-aligned
    # unit cell for any r <= 64
    pair = ToricPair(hrep_from_vrep([(0, 0), (1, 0), (64, 1)]))
    assert cell_cover_scale(pair) == 2


def test_sheared_unit_triangle_has_the_unit_triangle_phi():
    sheared = ToricPair(hrep_from_vrep([(0, 0), (1, 0), (5, 1)]))
    unit = ToricPair(hrep_from_vrep([(0, 0), (1, 0), (0, 1)]))
    assert phi_function(sheared) == phi_function(unit)


@functools.lru_cache(maxsize=None)
def _thin_polygons(count):
    """The first ``count`` seeded polygons on the grid of _COVER_POLYGON
    whose multiples r*P hold an integer translate of the unit cell only
    from r = 3 on."""
    rng, found = random.Random(2024), []
    while len(found) < count:
        P = hull_or_none([(rng.randint(-4, 4), rng.randint(-4, 4))
                          for _ in range(rng.randint(3, 5))])
        if P is not None and _corner_search_cover_scale(ToricPair(P)) >= 3:
            found.append(ToricPair(P))
    return found


@pytest.mark.parametrize("index", range(4))
def test_thin_polygon_phi_vanishes_at_two_and_matches_slices(index):
    pair = _thin_polygons(4)[index]
    assert cell_cover_scale(pair) == 2
    phi = phi_function(pair)
    assert phi.breakpoints[-1] <= 2 and area(phi_slice(pair, 2)) == 0
    for lam in phi.breakpoints:
        assert area(phi_slice(pair, lam)) == phi(lam)


def _translate_sets(pair):
    """The engine's cell translates and the overlap-filtered box candidates
    of the anchored base at its cover scale."""
    P, r = anchored(pair.polytope), cell_cover_scale(pair)
    return cell_translates(P, r), meeting_translates(P, r)


@pytest.mark.parametrize("pair", ALL_PAIRS + [blowup2_anticanonical(),
                                              blowup3_anticanonical()])
def test_cell_translates_match_overlap_filter(pair):
    got, expected = _translate_sets(pair)
    assert got == expected


@_RANDOM_SETTINGS
@given(points=_POLYGON, maps=_UNIMODULAR, shift=_SHIFT)
def test_random_polygon_cell_translates_match_overlap_filter(points, maps,
                                                             shift):
    pair = _polygon_pair(points)
    for p in (pair, _image(pair, maps, shift)):
        got, expected = _translate_sets(p)
        assert got == expected


# --- the k-law of e_HK(R, m^k) ------------------------------------------------
# e_HK(R, m^k) is the hk family of kP, limit_A the phi family of P; on every
# pair tried e_HK(R, m^k) is a polynomial in k of degree d with no constant
# term, leading coefficient e0/d! and k^(d-1) coefficient limit_A

def _linear_coefficient(pair, k):
    """c_k = (e_HK(R, m^k) - e0*k^3/6 - A*k^2)/k of a planar base."""
    e0, _, a = limit_values(pair)
    return (e_hk(pair, k) - e0 * k ** 3 / 6 - a * k ** 2) / k


@pytest.mark.parametrize("pair", [
    plane_anticanonical(), hirzebruch(1, 2, 1), plane_degree_one(),
    quadric_anticanonical(),
    ToricPair.from_vertices([(0, 0), (2, 1), (-1, 2), (1, -1)])])
def test_k_law_linear_coefficient_is_constant(pair):
    assert _linear_coefficient(pair, 1) == _linear_coefficient(pair, 2)


def test_plane_k_law_is_the_veronese_count():
    # R is the degree-3 Veronese of S = k[x, y, z], an extension of rank 3,
    # so e_HK(R, m^k) = length(S/(x, y, z)^(3k))/3 = C(3k + 2, 3)/3
    # (Watanabe-Yoshida)
    got = [e_hk(plane_anticanonical(), k) for k in (1, 2, 3)]
    assert got == [Rat(math.comb(3 * k + 2, 3), 3) for k in (1, 2, 3)]
    assert got == [Rat(10, 3), Rat(56, 3), 55]


@pytest.mark.parametrize("seed", range(2))
def test_random_polygon_k_law_linear_coefficient_is_constant(seed):
    rng = random.Random(seed)
    P = hrep_from_vrep([(0, 0), (1, 0), (0, 1)] + [
        (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)])
    pair = ToricPair(P)
    assert _linear_coefficient(pair, 1) == _linear_coefficient(pair, 2)


def _interpolate(values):
    """The polynomial of degree len(values) - 1 through (k, values[k])."""
    total = Poly.of(0)
    for j, y in enumerate(values):
        term = Poly.of(y)
        for m in range(len(values)):
            if m != j:
                term = term * Poly.of(Rat(-m, j - m), Rat(1, j - m))
        total = total + term
    return total


@pytest.mark.parametrize("factors", [
    (plane_degree_one(), projective_line(1)),
    (plane_degree_one(), projective_line(2)),
    (plane_degree_one(), plane_degree_one()),
    (plane_degree_one(), projective_line(1), projective_line(1)),
    (projective_line(1), projective_line(2), projective_line(3)),
], ids=["simplex-line1", "simplex-line2", "simplex-simplex",
        "simplex-line1-line1", "line1-line2-line3"])
def test_product_k_law_fits_limit_A(factors):
    # through e_HK(R, m^0) = 0 and k = 1..d: d + 1 values fix degree d
    pair = segre(*factors)
    d = pair.d
    law = _interpolate([0] + [e_hk(pair, k) for k in range(1, d + 1)])
    e0, _, a = limit_values(pair)
    assert law.coeffs[d] == e0 / factorial(d)
    assert law.coeffs[d - 1] == a


# --- tiling against the Venkov-McMullen criterion -------------------------------

def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _ccw_edges(P):
    """Edge vectors of a lattice polygon, counterclockwise."""
    n = len(P.vertices)
    cx = sum(v[0] for v in P.vertices) / n
    cy = sum(v[1] for v in P.vertices) / n
    ring = sorted(P.vertices, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    return [(int(b[0] - a[0]), int(b[1] - a[1]))
            for a, b in zip(ring, ring[1:] + ring[:1])]


def _venkov_mcmullen_tiler(P):
    """Whether the integer lattice tiles the plane with translates of the
    dilate t*P of area 1.  By Venkov-McMullen only centrally symmetric
    parallelograms and hexagons tile by translation.  A parallelogram with
    edges A, B tiles exactly with the lattices that have A or B as a basis
    vector; a hexagon with consecutive edges A1, A2, A3 only with the
    lattice of A1 + A2 and A2 + A3.  With A = t*a for integer edges a and
    t^2 = 1/D, the integer lattice is one of them when D is gcd(a)^2 or
    gcd(b)^2 for a parallelogram, and when D = s^2 with s dividing
    a1 + a2 and a2 + a3 for a hexagon, where D = |det| of the two vectors.
    """
    e = _ccw_edges(P)
    n = len(e)
    if n not in (4, 6) or any(e[i] != (-e[i + n // 2][0], -e[i + n // 2][1])
                              for i in range(n // 2)):
        return False
    if n == 4:
        a, b = e[0], e[1]
        return abs(_cross(a, b)) in (math.gcd(*a) ** 2, math.gcd(*b) ** 2)
    u = (e[0][0] + e[1][0], e[0][1] + e[1][1])
    v = (e[1][0] + e[2][0], e[1][1] + e[2][1])
    s = math.isqrt(abs(_cross(u, v)))
    return s * s == abs(_cross(u, v)) and math.gcd(*u, *v) % s == 0


_BASIS = _UNIMODULAR.map(lambda maps: _mapped([(1, 0), (0, 1)], maps))


@st.composite
def _parallelograms(draw):
    # edges s*U and t*V + k*U on a basis U, V: a tiler when s == t
    (U, V), s, t, k = (draw(_BASIS), draw(st.integers(1, 4)),
                       draw(st.integers(1, 3)), draw(st.integers(-2, 2)))
    a = (s * U[0], s * U[1])
    b = (t * V[0] + k * U[0], t * V[1] + k * U[1])
    return [(0, 0), a, (a[0] + b[0], a[1] + b[1]), b]


@st.composite
def _hexagons(draw):
    # edges p1, p2, p3, -p1, -p2, -p3 with p2 = x*U + y*V and p1 + p2 = s*U,
    # p2 + p3 = s*V on a positive basis U, V: these turn left in order, a
    # tiling hexagon, exactly when x, y >= 1 and x + y < s; a shift of p1
    # by delta breaks the lattice of the tiling
    U, V = draw(_BASIS)
    if _cross(U, V) < 0:
        U, V = V, U
    s, x, y = (draw(st.integers(3, 4)), draw(st.integers(1, 3)),
               draw(st.integers(1, 2)))
    dx, dy = draw(st.sampled_from([(0, 0), (0, 0), (1, 0), (0, 1)]))
    p2 = (x * U[0] + y * V[0], x * U[1] + y * V[1])
    p1 = (s * U[0] - p2[0] + dx, s * U[1] - p2[1] + dy)
    p3 = (s * V[0] - p2[0], s * V[1] - p2[1])
    points = [(0, 0)]
    for ex, ey in (p1, p2, p3, (-p1[0], -p1[1]), (-p2[0], -p2[1])):
        points.append((points[-1][0] + ex, points[-1][1] + ey))
    return points


@pytest.mark.parametrize("points,tiles", [
    ([(0, 0), (4, 0), (5, 1), (1, 1)], False),    # edges (4,0), (1,1)
    ([(0, 0), (2, 0), (3, 2), (1, 2)], True),     # edges (2,0), (1,2)
    ([(0, 0), (1, 0), (0, 1)], False),
    ([(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)], True),
    ([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], False),
])
def test_venkov_mcmullen_reference_cases(points, tiles):
    pair = ToricPair(hrep_from_vrep(points))
    assert _venkov_mcmullen_tiler(pair.polytope) is tiles
    assert tiling_values(pair)[0] is tiles


@_RANDOM_SETTINGS
@given(points=st.one_of(_parallelograms(), _hexagons(), _POLYGON),
       maps=_UNIMODULAR, shift=_SHIFT)
def test_is_tiler_matches_venkov_mcmullen(points, maps, shift):
    pair = _polygon_pair(points)
    for p in (pair, _image(pair, maps, shift)):
        assert tiling_values(p)[0] == _venkov_mcmullen_tiler(p.polytope)
