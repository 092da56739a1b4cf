import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdensity import (
    DimMismatchError,
    EmptyRegionError,
    NegativeScaleError,
    NonIntegralVertexError,
    Rat,
    UnboundedError,
    hrep_from_vrep,
    lattice_hull,
    lattice_points,
    polytope_from_divisor,
    scale,
    translate,
    volume,
    vrep_from_hrep,
)

from hkdensity.geometry import fiber_box, lattice_count, lattice_lines

from reference import intersect


def _vertex_set(poly):
    return set(poly.vertices)


def _facet_set(poly):
    return set(poly.halfspaces)


def hs(normal, offset):
    return tuple(Rat(c) for c in normal), Rat(offset)


# --- polytope_from_divisor --------------------------------------------------

def test_divisor_hexagon_blowup3():
    P = polytope_from_divisor(
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], [1] * 6)
    assert len(P.vertices) == 6
    assert volume(P) == 3


def test_divisor_plane_anticanonical_triangle():
    P = polytope_from_divisor([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert _vertex_set(P) == {(-1, -1), (2, -1), (-1, 2)}
    assert volume(P) == Rat(9, 2)


def test_divisor_ruled_surface_quadrilateral():
    P = polytope_from_divisor([(1, 0), (0, 1), (-1, 1), (0, -1)], [1, 0, 0, 1])
    assert _vertex_set(P) == {(-1, 0), (0, 0), (1, 1), (-1, 1)}
    assert volume(P) == Rat(3, 2)


def test_divisor_unbounded():
    with pytest.raises(UnboundedError):
        polytope_from_divisor([(1, 0)], [1])


def test_divisor_non_integral_vertex_carries_polytope():
    with pytest.raises(NonIntegralVertexError) as err:
        polytope_from_divisor([(1, 2), (-1, 0), (0, -1)], [0, 1, 1])
    poly = err.value.polytope
    assert poly is not None
    assert (Rat(1), Rat(-1, 2)) in poly.vertices


# --- vrep_from_hrep ---------------------------------------------------------

def test_vrep_unit_simplex():
    P = vrep_from_hrep(
        [hs((1, 0), 0), hs((0, 1), 0), hs((-1, -1), -1)], 2)
    assert _vertex_set(P) == {(0, 0), (1, 0), (0, 1)}


def test_vrep_ruled_surface_slab():
    P = vrep_from_hrep(
        [hs((1, 0), -1), hs((0, 1), 0), hs((-1, 1), 0), hs((0, -1), -1)], 2)
    assert _vertex_set(P) == {(-1, 0), (0, 0), (1, 1), (-1, 1)}


def test_vrep_infeasible():
    with pytest.raises(EmptyRegionError):
        vrep_from_hrep([hs((1,), 1), hs((-1,), 0)], 1)


def test_vrep_unbounded_slab():
    with pytest.raises(UnboundedError):
        vrep_from_hrep([hs((1, 0), 0), hs((-1, 0), -1)], 2)


# --- hrep_from_vrep ---------------------------------------------------------

def test_hrep_triangle():
    P = hrep_from_vrep([(0, 0), (1, 0), (0, 1)])
    assert _facet_set(P) == {
        ((Rat(1), Rat(0)), Rat(0)),
        ((Rat(0), Rat(1)), Rat(0)),
        ((Rat(-1), Rat(-1)), Rat(-1)),
    }


@pytest.mark.parametrize("n", [1, 3, 5])
def test_hrep_segment(n):
    P = hrep_from_vrep([(0,), (n,)])
    assert _facet_set(P) == {((Rat(1),), Rat(0)), ((Rat(-1),), Rat(-n))}


def test_hrep_square():
    P = hrep_from_vrep([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert _facet_set(P) == {
        ((Rat(1), Rat(0)), Rat(-1)), ((Rat(-1), Rat(0)), Rat(-1)),
        ((Rat(0), Rat(1)), Rat(-1)), ((Rat(0), Rat(-1)), Rat(-1)),
    }


def test_hrep_drops_non_extreme_points():
    P = hrep_from_vrep([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert _vertex_set(P) == {(0, 0), (2, 0), (0, 2)}


def test_hrep_lower_dimensional_segment_in_plane():
    P = hrep_from_vrep([(0, 0), (2, 1)])
    assert P.pdim == 1
    assert volume(P) == 0
    assert P.contains((1, Rat(1, 2)))
    assert not P.contains((1, 1))


# --- scale / translate ------------------------------------------------------

def test_scale_unit_square():
    P = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    Q = scale(P, 3)
    assert _vertex_set(Q) == {(0, 0), (3, 0), (0, 3), (3, 3)}


@pytest.mark.parametrize("k", [1, 2, 5])
def test_scale_anticanonical_area_grows_quadratically(k):
    P = polytope_from_divisor([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert volume(scale(P, k)) == Rat(9, 2) * k * k


def test_scale_identity_and_zero():
    P = lattice_hull([(0, 0), (1, 0), (0, 1)])
    assert scale(P, 1) == P
    origin = scale(P, 0)
    assert origin.vertices == ((Rat(0), Rat(0)),)
    assert volume(origin) == 0


def test_scale_negative_rejected():
    P = lattice_hull([(0,), (1,)])
    with pytest.raises(NegativeScaleError):
        scale(P, -1)


def test_translate_identity_and_cell():
    cell = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert translate(cell, (0, 0)) == cell
    moved = translate(cell, (2, 3))
    assert _vertex_set(moved) == {(2, 3), (3, 3), (2, 4), (3, 4)}


def test_translate_dim_mismatch():
    cell = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(DimMismatchError):
        translate(cell, (1,))


# --- canonical integer rows -------------------------------------------------

def _assert_canonical_rows(poly):
    """Each row is ints with no common factor (lattice_lines runs range
    and // on them), and the rows are those of the hull of the vertices."""
    for normal, offset in poly.halfspaces:
        row = (*normal, offset)
        assert all(type(c) is int for c in row)
        assert math.gcd(*row) == 1
    assert _facet_set(poly) == _facet_set(hrep_from_vrep(poly.vertices))


_SHIFT = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       min_size=3, max_size=6),
       t=st.fractions(min_value=0, max_value=4, max_denominator=6),
       shift=st.tuples(_SHIFT, _SHIFT))
def test_random_polygon_moved_rows_are_canonical(points, t, shift):
    P = lattice_hull(points)
    assume(P.pdim == 2 and t > 0)
    for poly in (P, scale(P, t), translate(P, shift)):
        _assert_canonical_rows(poly)


def test_divisor_with_non_primitive_ray_has_canonical_rows():
    P = polytope_from_divisor([(2, 0), (0, 1), (-1, -1)], [2, 1, 1])
    assert _facet_set(P) == {((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)}
    for poly in (P, scale(P, Rat(2, 3)), translate(P, (Rat(1, 2), 3))):
        _assert_canonical_rows(poly)


# --- intersect --------------------------------------------------------------

def test_intersect_disjoint_is_none():
    simplex = lattice_hull([(0, 0), (1, 0), (0, 1)])
    assert intersect(simplex, translate(simplex, (2, 2))) is None


def test_intersect_overlapping_squares():
    A = lattice_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    B = translate(A, (1, 1))
    I = intersect(A, B)
    assert _vertex_set(I) == {(1, 1), (2, 1), (1, 2), (2, 2)}


def test_intersect_shared_edge_is_degenerate():
    A = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    B = translate(A, (1, 0))
    I = intersect(A, B)
    assert I.pdim == 1
    assert volume(I) == 0


# --- volume -----------------------------------------------------------------

def test_volume_triangle():
    P = lattice_hull([(-1, -1), (2, -1), (-1, 2)])
    assert volume(P) == Rat(9, 2)


def test_volume_symmetric_hexagon_exact():
    P = lattice_hull([(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)])
    assert volume(P) == 9  # shoelace by hand


def test_volume_unit_cube():
    P = lattice_hull(list(itertools.product((0, 1), repeat=3)))
    assert volume(P) == 1


def _cross_polytope(dim):
    return lattice_hull([tuple(s if i == j else 0 for i in range(dim))
                         for j in range(dim) for s in (1, -1)])


def _unit_simplex(dim):
    return lattice_hull([(0,) * dim] + [tuple(1 if i == j else 0
                                              for i in range(dim))
                                        for j in range(dim)])


@pytest.mark.parametrize("poly,expected", [
    (_cross_polytope(3), Rat(4, 3)),
    (_unit_simplex(3), Rat(1, 6)),
    (_unit_simplex(4), Rat(1, 24)),
    (_cross_polytope(4), Rat(2, 3)),
], ids=["octahedron", "simplex3", "simplex4", "cross4"])
def test_volume_in_dimensions_three_and_four(poly, expected):
    assert volume(poly) == expected


# --- lattice points ---------------------------------------------------------

def test_lattice_points_anticanonical_triangle():
    P = polytope_from_divisor([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert len(lattice_points(P)) == 10


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_lattice_points_segment(n):
    P = lattice_hull([(0,), (n,)]) if n else hrep_from_vrep([(0,)])
    assert len(lattice_points(P)) == n + 1


@pytest.mark.parametrize("n", [1, 2, 5])
def test_lattice_points_scaled_simplex(n):
    P = scale(lattice_hull([(0, 0), (1, 0), (0, 1)]), n)
    assert len(lattice_points(P)) == (n + 1) * (n + 2) // 2


def _box_scan(P):
    """Reference: every point of the bounding box that P contains, in
    lexicographic order."""
    lo, hi = P.bounding_box()
    box = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
    return [p for p in itertools.product(*box) if P.contains(p)]


@pytest.mark.parametrize("points", [
    [(0,), (Rat(7, 2),)],
    [(Rat(1, 3), Rat(-1, 2)), (Rat(5, 2), Rat(1, 2)), (Rat(1, 2), Rat(7, 3))],
    [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)],
    [(0, 0, 0), (2, 1, 0), (1, 2, 0)],  # a triangle in a plane of R^3
    [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)],
    # triangle x square: slanted facets with no term in the last two axes
    [(x, y, z, w) for x, y in ((0, 0), (2, 1), (1, 3)) for z in (0, 1)
     for w in (0, 2)],
    [(Rat(1, 2), 1)],
])
def test_lattice_points_match_box_scan(points):
    P = hrep_from_vrep(points)
    assert lattice_points(P) == _box_scan(P)
    lines = lattice_lines(P.halfspaces, fiber_box(P))
    assert lattice_count(lines) == len(_box_scan(P))


def test_lattice_count_reads_empty_fibers():
    # (prefix, j0, bottoms, tops): a line whose one empty fiber has top =
    # bottom - 1 counts in closed form, one with an emptier fiber fiber by
    # fiber, and a line with no fibers counts nothing
    lines = [((), 0, [0, 5], [2, 4]), ((), 0, [0, 5, 9], [2, 4, 1]),
             ((), 0, [], [])]
    assert lattice_count(lines) == 6
    assert lattice_count(lines[1:2]) == 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       min_size=1, max_size=6))
def test_random_polygon_lattice_points_match_box_scan(points):
    P = lattice_hull(points)
    assert lattice_points(P) == _box_scan(P)


# --- contains ---------------------------------------------------------------

def test_contains_center_vertex_exterior():
    P = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert P.contains((Rat(1, 2), Rat(1, 2)))
    assert P.contains((1, 1))  # closed polytope
    assert not P.contains((10, 10))
    with pytest.raises(DimMismatchError):
        P.contains((1,))


def test_lattice_polytope_rejects_rational_vertices():
    square = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    half = scale(square, Rat(1, 2))
    with pytest.raises(NonIntegralVertexError) as err:
        lattice_hull(half.vertices)
    assert err.value.polytope.vertices == half.vertices


# --- invariants -------------------------------------------------------------

FIXTURE_POLYTOPES = [
    lattice_hull([(0,), (3,)]),
    lattice_hull([(0, 0), (1, 0), (0, 1)]),
    lattice_hull([(-1, -1), (2, -1), (-1, 2)]),
    lattice_hull([(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)]),
    lattice_hull(list(itertools.product((0, 1), repeat=3))),
]


@pytest.mark.parametrize("poly", FIXTURE_POLYTOPES)
def test_volume_scales_by_power_of_dimension(poly):
    rng = random.Random(20240811)
    base = volume(poly)
    for _ in range(5):
        t = Rat(rng.randint(0, 12), rng.randint(1, 4))
        assert volume(scale(poly, t)) == t ** poly.dim * base


@pytest.mark.parametrize("poly", FIXTURE_POLYTOPES)
def test_hrep_vrep_round_trip(poly):
    back = vrep_from_hrep(poly.halfspaces, poly.dim)
    assert _vertex_set(back) == _vertex_set(poly)
    assert _facet_set(back) == _facet_set(poly)
    again = hrep_from_vrep(poly.vertices)
    assert _vertex_set(again) == _vertex_set(poly)
    assert _facet_set(again) == _facet_set(poly)


@pytest.mark.parametrize("poly", FIXTURE_POLYTOPES)
def test_dilation_counts_have_volume_leading_term(poly):
    # leading Ehrhart coefficient via exact finite differences of the counts
    counts = [Rat(len(lattice_points(scale(poly, n)))) for n in range(7)]
    for _ in range(poly.dim):
        counts = [b - a for a, b in zip(counts, counts[1:])]
    fact = 1
    for k in range(2, poly.dim + 1):
        fact *= k
    assert counts[0] / fact == volume(poly)


@pytest.mark.parametrize("poly", FIXTURE_POLYTOPES)
def test_contains_vertices_and_centroid(poly):
    for v in poly.vertices:
        assert poly.contains(v)
    n = len(poly.vertices)
    centroid = tuple(sum(v[i] for v in poly.vertices) / Rat(n)
                     for i in range(poly.dim))
    assert poly.contains(centroid)
