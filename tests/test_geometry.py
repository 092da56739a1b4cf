import itertools
import math
import operator
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

from reference import _slack, contains, intersect


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


def test_vrep_24_cell():
    # the 24 rows <+-e_i +-e_j, x> >= -2 of R^4, each a facet through six
    # of the 24 vertices +-2e_i and (+-1, +-1, +-1, +-1)
    rows = [hs([s * (k == i) + t * (k == j) for k in range(4)], -2)
            for i, j in itertools.combinations(range(4), 2)
            for s in (1, -1) for t in (1, -1)]
    P = vrep_from_hrep(rows, 4)
    axes = {tuple(2 * s * (k == i) for k in range(4))
            for i in range(4) for s in (1, -1)}
    assert _vertex_set(P) == axes | set(itertools.product((1, -1), repeat=4))
    assert _facet_set(P) == set(rows)
    assert volume(P) == 32


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


@pytest.mark.parametrize("side, dim", [(16, 2), (2, 4)])
def test_lattice_hull_of_every_box_point_is_the_hull_of_its_corners(side, dim):
    # 289 and 81 input points, 4 and 16 of them vertices
    points = list(itertools.product(range(side + 1), repeat=dim))
    box = lattice_hull(points)
    corners = lattice_hull(list(itertools.product((0, side), repeat=dim)))
    assert _vertex_set(box) == _vertex_set(corners)
    assert _facet_set(box) == _facet_set(corners)
    assert box.pdim == dim and volume(box) == side ** dim


def test_hrep_drops_non_extreme_points():
    P = hrep_from_vrep([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert _vertex_set(P) == {(0, 0), (2, 0), (0, 2)}


def test_hrep_lower_dimensional_segment_in_plane():
    P = hrep_from_vrep([(0, 0), (2, 1)])
    assert P.pdim == 1
    assert volume(P) == 0
    assert contains(P, (1, Rat(1, 2)))
    assert not contains(P, (1, 1))


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


def test_divisor_rays_of_mixed_dimension_rejected():
    with pytest.raises(DimMismatchError, match="rays of mixed dimension"):
        polytope_from_divisor([(1, 0), (0,)], [1, 1])
    with pytest.raises(DimMismatchError, match="rays of mixed dimension"):
        polytope_from_divisor([(1, 0), (0, 1), (-1, -1, 0)], [1, 1, 1])
    with pytest.raises(DimMismatchError):
        vrep_from_hrep([hs((1, 0), 0), hs((0, 1), 0), hs((-1,), -1)], 2)


# --- pinned differential corpus ---------------------------------------------

# (function, arguments, (vertices, rows, pdim) or (error class, message)),
# recorded from a Fraction row-reduction hull over the same d-subsets, an
# implementation separate from the integer kernel; the strings are
# rationals.  Random hulls in dimensions 2-4, lower-dimensional and
# rational sets, redundant, tangent and zero rays, and failing fans.
PINNED = [
    ('hrep_from_vrep', (((1, 2, 5, -1), (1, -2, 3, 4), (4, 3, -3, 5), (-4, 3, 2, -5), (2, 2, 4, -4), (-4, -2, 1, -2), (-3, -3, 5, 2)),),
     (((-4, -2, 1, -2), (-4, 3, 2, -5), (-3, -3, 5, 2), (1, -2, 3, 4), (1, 2, 5, -1), (2, 2, 4, -4), (4, 3, -3, 5)), (((29, 89, -100, 115), -624), ((295, -133, 86, -193), -442), ((-60, 43, 142, 119), 58), ((-86, 174, -10, 75), -164), ((14, 18, 19, -18), -37), ((-262, 339, 178, 159), 230), ((7, 1, -26, 11), -132), ((235, -347, -154, -265), -964), ((-25, -215, -34, 3), -628), ((-43, 38, -61, 6), -278), ((38, -94, -77, -106), -429), ((-131, 5, -65, -22), -424)), 4)),
    ('hrep_from_vrep', (((-2, 0, -2, 8), (2, 4, 2, 0), (0, 2, -6, 3), (-2, 6, -2, 5), (1, 0, -8, 2), (0, 8, -6, 0), (-5, 4, -2, 11), (0, 8, -6, 0)),),
     (((-5, 4, -2, 11), (-2, 0, -2, 8), (-2, 6, -2, 5), (0, 8, -6, 0), (1, 0, -8, 2), (2, 4, 2, 0)), (((10, 3, -1, 6), 30), ((-10, -3, 1, -6), -30), ((4, 3, 2, 0), -12), ((4, 3, -7, 0), 6), ((4, -6, -1, 0), -42), ((4, -6, -7, 0), -30), ((20, -3, 22, 0), -156), ((-2, 3, -1, 0), 6), ((0, -2, -1, 0), -10), ((-6, -1, 1, 0), -14)), 3)),
    ('hrep_from_vrep', (((3, 4, 9, -12), (7, 2, 9, -20), (1, -3, -1, 2), (3, 0, 4, -7), (3, 4, 9, -12)),),
     (((1, -3, -1, 2), (3, 4, 9, -12), (7, 2, 9, -20)), (((-5, -10, 8, 0), 17), ((5, 10, -8, 0), -17), ((21, 10, 0, 8), 7), ((-21, -10, 0, -8), -7), ((7, -2, 0, 0), 13), ((-5, 6, 0, 0), -23), ((-1, -2, 0, 0), -11)), 2)),
    ('hrep_from_vrep', (((-2, -3, '-5/3', '1/3'),),),
     (((-2, -3, '-5/3', '1/3'),), (((1, 0, 0, 0), -2), ((-1, 0, 0, 0), 2), ((0, 1, 0, 0), -3), ((0, -1, 0, 0), 3), ((0, 0, 3, 0), -5), ((0, 0, -3, 0), 5), ((0, 0, 0, 3), 1), ((0, 0, 0, -3), -1)), 0)),
    ('hrep_from_vrep', (((-4, 1, 2), (-4, 1, 2), (-4, 1, 2)),),
     (((-4, 1, 2),), (((1, 0, 0), -4), ((-1, 0, 0), 4), ((0, 1, 0), 1), ((0, -1, 0), -1), ((0, 0, 1), 2), ((0, 0, -1), -2)), 0)),
    ('hrep_from_vrep', ((('-5/2', 5), (5, -1), (-3, 2), (-3, 2), (-1, 5), ('-13/18', 2), (-4, 5), (2, -1), (1, -1), (-1, 2)),),
     (((-4, 5), (-3, 2), (-1, 5), (1, -1), (5, -1)), (((3, 1), -7), ((0, -1), -5), ((3, 4), -1), ((-1, -1), -4), ((0, 1), -1)), 2)),
    ('hrep_from_vrep', (((-3, 2, 5), (3, -4, 4), (-1, -4, -2), (-5, -1, -1), (2, 4, 0), (1, -5, -3), (-3, 2, 5), (2, 4, 0)),),
     (((-5, -1, -1), (-3, 2, 5), (-1, -4, -2), (1, -5, -3), (2, 4, 0), (3, -4, 4)), (((27, -40, 11), -106), ((33, 38, -30), -173), ((1, 1, 1), -7), ((9, 14, -6), -53), ((3, -10, 29), -34), ((-32, -25, -42), -164), ((3, 8, -2), -31), ((-60, 1, 17), -116)), 3)),
    ('hrep_from_vrep', (((0, 1, 0),),),
     (((0, 1, 0),), (((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), 0)), 0)),
    ('hrep_from_vrep', (((6, -1, 0, 1), (4, '-1/2', -3, 5), (6, '-3/2', -2, -1), (0, '1/2', -4, -1), (1, '-3/2', 0, 5)),),
     (((0, '1/2', -4, -1), (1, '-3/2', 0, 5), (4, '-1/2', -3, 5), (6, '-3/2', -2, -1), (6, -1, 0, 1)), (((6, 36, 18, -1), -53), ((2, -300, -98, -35), 277), ((22, 28, -38, 31), 135), ((-30, -76, 14, 5), -99), ((-34, 108, 2, -29), -341)), 4)),
    ('hrep_from_vrep', (((3, '-2/3', 0), (2, '-2/3', 0), ('3/2', '-2/3', 0)),),
     ((('3/2', '-2/3', 0), (3, '-2/3', 0)), (((0, 3, 0), -2), ((0, -3, 0), 2), ((0, 0, 1), 0), ((0, 0, -1), 0), ((2, 0, 0), 3), ((-1, 0, 0), -3)), 1)),
    ('hrep_from_vrep', ((('2/9', '1/6', '2/15'), ('8/9', '3/2', '2/15'), ('14/9', '5/6', '2/15')),),
     ((('2/9', '1/6', '2/15'), ('8/9', '3/2', '2/15'), ('14/9', '5/6', '2/15')), (((0, 0, 15), 2), ((0, 0, -15), -2), ((36, -18, 0), 5), ((-9, 18, 0), 1), ((-18, -18, 0), -43)), 2)),
    ('hrep_from_vrep', (((0, 0, 0), (0, 0, '5/6'), (0, '5/6', 0), (0, '5/6', '5/6'), ('5/6', 0, 0), ('5/6', 0, '5/6'), ('5/6', '5/6', 0), ('5/6', '5/6', '5/6')),),
     (((0, 0, 0), (0, 0, '5/6'), (0, '5/6', 0), (0, '5/6', '5/6'), ('5/6', 0, 0), ('5/6', 0, '5/6'), ('5/6', '5/6', 0), ('5/6', '5/6', '5/6')), (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, -6), -5), ((0, -6, 0), -5), ((-6, 0, 0), -5)), 3)),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0)), (1, 1, 1, 5, 3)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)), 2)),
    ('polytope_from_divisor', (((2, 0), (1, 0), (0, 1), (-1, -1)), (2, 1, 1, 1)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)), 2)),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (1, 1)), (1, 1, 1, 2)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)), 2)),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, 2)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)), 2)),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, -1)),
     ('EmptyRegionError', 'half-space intersection is empty')),
    ('polytope_from_divisor', (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)), (1, 1, 1, 1)),
     ('UnboundedError', 'half-space intersection is unbounded')),
    ('polytope_from_divisor', (((1, 0), (-1, 0), (0, 1), (0, -1)), (-2, 1, 1, 1)),
     ('EmptyRegionError', 'half-space intersection is empty')),
    ('polytope_from_divisor', (((2, 1), (-1, 0), (0, -1), (1, -2)), (1, 1, 1, 1)),
     ('NonIntegralVertexError', 'divisor polytope has non-integral vertices')),
    ('polytope_from_divisor', (((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 0, 1, 1)),
     ('DegenerateError', 'divisor polytope has dimension 1 < 2')),
    ('polytope_from_divisor', (((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)), (0, 1, 0, 1, 0, 1, 0, 1)),
     (((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)), (((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0), ((0, 0, 0, -1), -1), ((0, 0, -1, 0), -1), ((0, -1, 0, 0), -1), ((-1, 0, 0, 0), -1)), 4)),
    ('vrep_from_hrep', ((((1, 0), '1/2'), ((0, '1/3'), 0), ((-1, -1), -2)), 2),
     ((('1/2', 0), ('1/2', '3/2'), (2, 0)), (((2, 0), 1), ((0, 1), 0), ((-1, -1), -2)), 2)),
    ('vrep_from_hrep', ((((2, '3/2', 1), -2), ((0, '1/3', 0), 0), (('-1/3', -3, '1/3'), '1/5'), ((1, -1, '1/2'), 1), (('-1/3', 0, -1), '-3/5')), 3),
     ('EmptyRegionError', 'half-space intersection is empty')),
]


def _rats(x):
    if isinstance(x, str):
        return Rat(x)
    return tuple(map(_rats, x)) if isinstance(x, (list, tuple)) else x


@pytest.mark.parametrize("call,args,expected", PINNED,
                         ids=[f"{c}{i}" for i, (c, *_) in enumerate(PINNED)])
def test_pinned_corpus(call, args, expected):
    fn = {"hrep_from_vrep": hrep_from_vrep, "vrep_from_hrep": vrep_from_hrep,
          "polytope_from_divisor": polytope_from_divisor}[call]
    if isinstance(expected[0], str):
        with pytest.raises(Exception) as err:
            fn(*_rats(args))
        assert (type(err.value).__name__, str(err.value)) == expected
        return
    P = fn(*_rats(args))
    assert (P.vertices, P.halfspaces, P.pdim) == _rats(expected)
    assert all(type(c) is Rat for v in P.vertices for c in v)
    _assert_canonical_rows(P)


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
    return [p for p in itertools.product(*box) if contains(P, p)]


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
    assert contains(P, (Rat(1, 2), Rat(1, 2)))
    assert contains(P, (1, 1))  # closed polytope
    assert not contains(P, (10, 10))
    with pytest.raises(DimMismatchError):
        contains(P, (1,))


def test_lattice_polytope_rejects_rational_vertices():
    square = lattice_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    half = scale(square, Rat(1, 2))
    with pytest.raises(NonIntegralVertexError) as err:
        lattice_hull(half.vertices)
    assert err.value.polytope.vertices == half.vertices


# --- invariants -------------------------------------------------------------

# point sets whose hulls the fixture ``poly`` builds test by test, so a slow
# hull fails its own tests instead of hanging collection
FIXTURE_POINTS = [
    [(0,), (3,)],
    [(0, 0), (1, 0), (0, 1)],
    [(-1, -1), (2, -1), (-1, 2)],
    [(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)],
    list(itertools.product((0, 1), repeat=3)),
    # dimensions 1, 3 and 4, and sets of lower dimension
    [(-2,), (1,), (5,)],
    [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)],
    list(itertools.product((0, 1), repeat=4)),
    [(x, y, z, w) for x, y in ((0, 0), (2, 1), (1, 3))
     for z in (0, 1) for w in (0, 2)],
    [(1, 2)],
    [(0, 0, 0), (2, 1, 0), (1, 2, 0), (1, 1, 0)],
    [(0, 1, 0, 0), (1, 3, 0, 1), (2, 5, 0, 2)],
    [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)],
]


@pytest.fixture
def poly(request):
    return lattice_hull(request.param)


@pytest.mark.parametrize("poly", FIXTURE_POINTS, indirect=True)
def test_volume_scales_by_power_of_dimension(poly):
    rng = random.Random(20240811)
    base = volume(poly)
    for _ in range(5):
        t = Rat(rng.randint(0, 12), rng.randint(1, 4))
        assert volume(scale(poly, t)) == t ** poly.dim * base


@pytest.mark.parametrize("poly", FIXTURE_POINTS, indirect=True)
def test_hrep_vrep_round_trip(poly):
    back = vrep_from_hrep(poly.halfspaces, poly.dim)
    assert _vertex_set(back) == _vertex_set(poly)
    assert _facet_set(back) == _facet_set(poly)
    again = hrep_from_vrep(poly.vertices)
    assert _vertex_set(again) == _vertex_set(poly)
    assert _facet_set(again) == _facet_set(poly)


@pytest.mark.parametrize("poly", FIXTURE_POINTS, indirect=True)
def test_dilation_counts_have_volume_leading_term(poly):
    # leading Ehrhart coefficient via exact finite differences of the counts
    counts = [Rat(len(lattice_points(scale(poly, n)))) for n in range(7)]
    for _ in range(poly.dim):
        counts = [b - a for a, b in zip(counts, counts[1:])]
    fact = 1
    for k in range(2, poly.dim + 1):
        fact *= k
    assert counts[0] / fact == volume(poly)


@pytest.mark.parametrize("poly", FIXTURE_POINTS, indirect=True)
def test_contains_vertices_and_centroid(poly):
    for v in poly.vertices:
        assert contains(poly, v)
    n = len(poly.vertices)
    centroid = tuple(sum(v[i] for v in poly.vertices) / Rat(n)
                     for i in range(poly.dim))
    assert contains(poly, centroid)


def _rank(vectors):
    """Rank by plain Fraction elimination, independent of the module."""
    rows, rank = [[Rat(c) for c in v] for v in vectors], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[c] / pivot[c]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


@st.composite
def _point_sets(draw, dim):
    """Integer point sets in R^dim, a third of them flattened onto a
    hyperplane x_n = <a, x'> + b so that lower dimensions come up."""
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7))
    if draw(st.integers(0, 2)) == 0:
        a = draw(st.tuples(*[st.integers(-2, 2)] * dim))
        pts = [(*p[:-1], sum(map(operator.mul, a, p[:-1])) + a[-1])
               for p in pts]
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(),
       t=st.fractions(min_value=0, max_value=4, max_denominator=6),
       shift=st.lists(_SHIFT, min_size=4, max_size=4),
       perm=st.permutations(range(4)),
       signs=st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
       move=st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_random_polytope_rows_vertices_and_volume(dim, data, t, shift, perm,
                                                  signs, move):
    points = data.draw(_point_sets(dim))
    P = hrep_from_vrep(points)
    for poly in (P, scale(P, t), translate(P, shift[:dim])):
        _assert_canonical_rows(poly)
    # every input point satisfies every row, and exactly the vertices are
    # tight on rows of rank dim
    for p in set(points):
        assert all(_slack(h, p) >= 0 for h in P.halfspaces)
        tight = [n for n, off in P.halfspaces if _slack((n, off), p) == 0]
        assert (_rank(tight) == dim) == (p in P.vertices)
    assert set(P.vertices) <= set(points)
    back = vrep_from_hrep(P.halfspaces, dim)
    assert (back.vertices, back.halfspaces, back.pdim) == (
        P.vertices, P.halfspaces, P.pdim)
    # volume is invariant under a signed permutation plus an integer shift
    order = [i for i in perm if i < dim]
    image = [tuple(signs[i] * p[i] + move[i] for i in order) for p in points]
    assert volume(hrep_from_vrep(image)) == volume(P)
