"""Cross-cutting invariants, exercised over the whole fixture catalog."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdensity import (
    Rat,
    ToricPair,
    e0,
    e_hk,
    hk_report,
    hkd_function,
    is_tiler,
    lattice_hull,
    pair_volume,
    phi_function,
    pw_equal,
    scale,
    tiling_gap_B,
    translate,
)
from math import factorial

from hkdensity.analysis import cell_cover_scale
from hkdensity.geometry import anchored

from conftest import (
    FANO_TABLE,
    blowup1_anticanonical,
    hirzebruch,
    plane_anticanonical,
    plane_degree_one,
    projective_line,
    quadric_anticanonical,
    symmetric_hexagon,
    unit_square,
)
from reference import area, hk_slice, phi_slice

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
    assert e_hk(pair) >= e0(pair) / factorial(pair.d)


@pytest.mark.parametrize("pair", SURFACE_PAIRS)
def test_growth_lower_bound_exact_with_tiling_equality(pair):
    # Vol * (int phi)^{d-1} >= ((d-1)/d)^{d-1}, equality iff the base tiles
    d = pair.d
    lhs = pair_volume(pair) * phi_function(pair).integral() ** (d - 1)
    rhs = Rat(d - 1, d) ** (d - 1)
    assert lhs >= rhs
    assert (lhs == rhs) == is_tiler(pair)
    assert tiling_gap_B(pair) >= -1e-12


@pytest.mark.parametrize("pair", [plane_anticanonical(), symmetric_hexagon(),
                                  projective_line(2), hirzebruch(1, 2, 1)])
def test_report_translation_invariant(pair):
    rng = random.Random(1234 + pair.l)
    rep = hk_report(pair)
    for _ in range(2):
        shift = tuple(rng.randint(-5, 5) for _ in range(pair.d - 1))
        moved = ToricPair(translate(pair.polytope, shift))
        rep2 = hk_report(moved)
        assert pw_equal(rep.hkd, rep2.hkd)
        assert pw_equal(rep.phi, rep2.phi)
        assert (rep.e0, rep.h0, rep.e_hk, rep.phi_integral, rep.limit_A,
                rep.tiling_gap_B, rep.is_tiler) == (
            rep2.e0, rep2.h0, rep2.e_hk, rep2.phi_integral, rep2.limit_A,
            rep2.tiling_gap_B, rep2.is_tiler)


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
_RANDOM_SETTINGS = settings(max_examples=5, deadline=None, derandomize=True)


def _polygon_pair(points):
    P = lattice_hull(points)
    assume(P.pdim == 2)
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
    assert is_tiler(pair) == all(phi(lam) == 1 - vol * lam ** 2
                                 for lam in probes)


@_RANDOM_SETTINGS
@given(points=_POLYGON, maps=_UNIMODULAR, shift=_SHIFT)
def test_random_polygon_functions_unimodular_invariant(points, maps, shift):
    pair = _polygon_pair(points)
    image = pair.polytope.vertices
    for (a, b), (c, d) in maps:
        image = [(a * x + b * y, c * x + d * y) for x, y in image]
    moved = ToricPair(lattice_hull([(x + shift[0], y + shift[1])
                                    for x, y in image]))
    assert pw_equal(hkd_function(pair), hkd_function(moved))
    assert pw_equal(phi_function(pair), phi_function(moved))


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
            if all(big.contains([x + c for x, c in zip(v, corner)])
                   for corner in corners):
                return r
    return None


# a wider grid than _POLYGON, so thin triangles need covering scales up to 12
_COVER_POLYGON = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=3, max_size=5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=_COVER_POLYGON)
def test_random_polygon_cell_cover_scale_matches_corner_search(points):
    pair = _polygon_pair(points)
    assert cell_cover_scale(pair) == _corner_search_cover_scale(pair)


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_cell_cover_scale_matches_corner_search(pair):
    assert cell_cover_scale(pair) == _corner_search_cover_scale(pair)
