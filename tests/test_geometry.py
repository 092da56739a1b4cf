import itertools
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkdensity import (
    ConvexPolytope,
    DegenerateError,
    DimMismatchError,
    EmptyRegionError,
    NegativeScaleError,
    NonIntegralVertexError,
    Rat,
    UnboundedError,
    hrep_from_vrep,
    lattice_points,
    polytope_from_divisor,
    scale,
    translate,
    volume,
    vrep_from_hrep,
)

from hkdensity import geometry
from hkdensity.geometry import (anchored, fiber_box, lattice_count,
                                lattice_lines, product)

from conftest import (
    blowup3_anticanonical,
    hirzebruch,
    hull_or_none,
    plane_anticanonical,
    projective_line,
    quadric_anticanonical,
    symmetric_hexagon,
    unit_square,
)
from reference import _slack, contains


def _vertex_set(poly):
    return set(poly.vertices)


def _facet_set(poly):
    return set(poly.halfspaces)


def hs(normal, offset):
    return tuple(normal), offset


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


def test_divisor_non_integral_vertex_rejected():
    # the vertex (1, -1/2) is off the lattice, and no polytope is built
    with pytest.raises(NonIntegralVertexError,
                       match="^divisor polytope has non-integral vertices$"):
        polytope_from_divisor([(1, 2), (-1, 0), (0, -1)], [0, 1, 1])


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
    box = hrep_from_vrep(points)
    corners = hrep_from_vrep(list(itertools.product((0, side), repeat=dim)))
    assert _vertex_set(box) == _vertex_set(corners)
    assert _facet_set(box) == _facet_set(corners)
    assert volume(box) == side ** dim


def test_hrep_drops_non_extreme_points():
    P = hrep_from_vrep([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert _vertex_set(P) == {(0, 0), (2, 0), (0, 2)}


def test_hrep_lower_dimensional_segment_in_plane():
    with pytest.raises(DegenerateError, match="^hull has dimension 1 < 2$"):
        hrep_from_vrep([(0, 0), (2, 1), (4, 2)])


# --- scale / translate ------------------------------------------------------

def test_scale_unit_square():
    P = hrep_from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
    Q = scale(P, 3)
    assert _vertex_set(Q) == {(0, 0), (3, 0), (0, 3), (3, 3)}


@pytest.mark.parametrize("k", [1, 2, 5])
def test_scale_anticanonical_area_grows_quadratically(k):
    P = polytope_from_divisor([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert volume(scale(P, k)) == Rat(9, 2) * k * k


def test_scale_identity_and_zero():
    # 0*P is one point, not a polytope
    P = hrep_from_vrep([(0, 0), (1, 0), (0, 1)])
    assert scale(P, 1) == P
    with pytest.raises(NegativeScaleError):
        scale(P, 0)


def test_scale_negative_rejected():
    P = hrep_from_vrep([(0,), (1,)])
    with pytest.raises(NegativeScaleError):
        scale(P, -1)


def test_translate_identity_and_cell():
    cell = hrep_from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert translate(cell, (0, 0)) == cell
    moved = translate(cell, (2, 3))
    assert _vertex_set(moved) == {(2, 3), (3, 3), (2, 4), (3, 4)}


def test_translate_dim_mismatch():
    cell = hrep_from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(DimMismatchError):
        translate(cell, (1,))


# --- integer vertices -------------------------------------------------------

def _seeded_hulls(count):
    """The first ``count`` full-dimensional hulls of seeded random integer
    point sets in dimensions 1-4."""
    rng, hulls = random.Random(31), []
    while len(hulls) < count:
        dim = rng.randint(1, 4)
        P = hull_or_none([tuple(rng.randint(-3, 3) for _ in range(dim))
                          for _ in range(rng.randint(dim + 1, dim + 4))])
        if P is not None:
            hulls.append(P)
    return hulls


def test_every_constructor_builds_int_vertices():
    # the catalog's fans go through polytope_from_divisor, its vertex lists
    # through hrep_from_vrep
    bases = [pair.polytope for pair in (
        projective_line(3), hirzebruch(1, 2, 1), plane_anticanonical(),
        quadric_anticanonical(), blowup3_anticanonical(), symmetric_hexagon(),
        unit_square())] + _seeded_hulls(12)
    segment = hrep_from_vrep([(0,), (2,)])
    built = []
    for P in bases:
        shift = (2, -1, 3, -4)[:P.dim]
        built += [P, hrep_from_vrep(P.vertices),
                  vrep_from_hrep(P.halfspaces, P.dim), scale(P, 3),
                  translate(P, shift), anchored(translate(P, shift)),
                  product(P, segment)]
    built.append(polytope_from_divisor([(2, 0), (0, 1), (-1, -1)], [2, 1, 1]))
    for poly in built:
        assert all(type(c) is int for v in poly.vertices for c in v), poly


# --- canonical integer rows -------------------------------------------------

def _assert_canonical_rows(poly):
    """Each row is ints with no common factor (lattice_lines runs range
    and // on them), and the rows are those of the hull of the vertices."""
    for normal, offset in poly.halfspaces:
        row = (*normal, offset)
        assert all(type(c) is int for c in row)
        assert math.gcd(*row) == 1
    assert _facet_set(poly) == _facet_set(hrep_from_vrep(poly.vertices))


_SHIFT = st.integers(-3, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       min_size=3, max_size=6),
       t=st.integers(1, 4), shift=st.tuples(_SHIFT, _SHIFT))
def test_random_polygon_moved_rows_are_canonical(points, t, shift):
    P = hull_or_none(points)
    assume(P is not None)
    for poly in (P, scale(P, t), translate(P, shift)):
        _assert_canonical_rows(poly)


def test_divisor_with_non_primitive_ray_has_canonical_rows():
    P = polytope_from_divisor([(2, 0), (0, 1), (-1, -1)], [2, 1, 1])
    assert _facet_set(P) == {((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)}
    for poly in (P, scale(P, 2), translate(P, (1, 3))):
        _assert_canonical_rows(poly)


def test_divisor_rays_of_mixed_dimension_rejected():
    with pytest.raises(DimMismatchError, match="rays of mixed dimension"):
        polytope_from_divisor([(1, 0), (0,)], [1, 1])
    with pytest.raises(DimMismatchError, match="rays of mixed dimension"):
        polytope_from_divisor([(1, 0), (0, 1), (-1, -1, 0)], [1, 1, 1])
    with pytest.raises(DimMismatchError):
        vrep_from_hrep([hs((1, 0), 0), hs((0, 1), 0), hs((-1,), -1)], 2)


# --- pinned differential corpus ---------------------------------------------

# (function, arguments, (vertices, rows) or (error class, message)),
# recorded from a Fraction row-reduction hull over the same d-subsets, an
# implementation separate from the integer kernel.  Random hulls in
# dimensions 2-4, lower-dimensional sets, redundant, tangent and zero rays,
# and failing fans.  Rational point sets and rows were recorded too: they
# appear scaled to integers, each point set by its common denominator L
# (vertices times L, each row (n, L*off) over the gcd of n) and each row by
# its own, and a rational vertex is a NonIntegralVertexError.
PINNED = [
    ('hrep_from_vrep', (((1, 2, 5, -1), (1, -2, 3, 4), (4, 3, -3, 5), (-4, 3, 2, -5), (2, 2, 4, -4), (-4, -2, 1, -2), (-3, -3, 5, 2)),),
     (((-4, -2, 1, -2), (-4, 3, 2, -5), (-3, -3, 5, 2), (1, -2, 3, 4), (1, 2, 5, -1), (2, 2, 4, -4), (4, 3, -3, 5)), (((29, 89, -100, 115), -624), ((295, -133, 86, -193), -442), ((-60, 43, 142, 119), 58), ((-86, 174, -10, 75), -164), ((14, 18, 19, -18), -37), ((-262, 339, 178, 159), 230), ((7, 1, -26, 11), -132), ((235, -347, -154, -265), -964), ((-25, -215, -34, 3), -628), ((-43, 38, -61, 6), -278), ((38, -94, -77, -106), -429), ((-131, 5, -65, -22), -424)))),
    ('hrep_from_vrep', (((-2, 0, -2, 8), (2, 4, 2, 0), (0, 2, -6, 3), (-2, 6, -2, 5), (1, 0, -8, 2), (0, 8, -6, 0), (-5, 4, -2, 11), (0, 8, -6, 0)),),
     ('DegenerateError', 'hull has dimension 3 < 4')),
    ('hrep_from_vrep', (((3, 4, 9, -12), (7, 2, 9, -20), (1, -3, -1, 2), (3, 0, 4, -7), (3, 4, 9, -12)),),
     ('DegenerateError', 'hull has dimension 2 < 4')),
    ('hrep_from_vrep', (((-6, -9, -5, 1),),),
     ('DegenerateError', 'hull has dimension 0 < 4')),
    ('hrep_from_vrep', (((-4, 1, 2), (-4, 1, 2), (-4, 1, 2)),),
     ('DegenerateError', 'hull has dimension 0 < 3')),
    ('hrep_from_vrep', (((-45, 90), (90, -18), (-54, 36), (-54, 36), (-18, 90), (-13, 36), (-72, 90), (36, -18), (18, -18), (-18, 36)),),
     (((-72, 90), (-54, 36), (-18, 90), (18, -18), (90, -18)), (((3, 1), -126), ((0, -1), -90), ((3, 4), -18), ((-1, -1), -72), ((0, 1), -18)))),
    ('hrep_from_vrep', (((-3, 2, 5), (3, -4, 4), (-1, -4, -2), (-5, -1, -1), (2, 4, 0), (1, -5, -3), (-3, 2, 5), (2, 4, 0)),),
     (((-5, -1, -1), (-3, 2, 5), (-1, -4, -2), (1, -5, -3), (2, 4, 0), (3, -4, 4)), (((27, -40, 11), -106), ((33, 38, -30), -173), ((1, 1, 1), -7), ((9, 14, -6), -53), ((3, -10, 29), -34), ((-32, -25, -42), -164), ((3, 8, -2), -31), ((-60, 1, 17), -116)))),
    ('hrep_from_vrep', (((0, 1, 0),),),
     ('DegenerateError', 'hull has dimension 0 < 3')),
    ('hrep_from_vrep', (((12, -2, 0, 2), (8, -1, -6, 10), (12, -3, -4, -2), (0, 1, -8, -2), (2, -3, 0, 10)),),
     (((0, 1, -8, -2), (2, -3, 0, 10), (8, -1, -6, 10), (12, -3, -4, -2), (12, -2, 0, 2)), (((6, 36, 18, -1), -106), ((2, -300, -98, -35), 554), ((22, 28, -38, 31), 270), ((-30, -76, 14, 5), -198), ((-34, 108, 2, -29), -682)))),
    ('hrep_from_vrep', (((18, -4, 0), (12, -4, 0), (9, -4, 0)),),
     ('DegenerateError', 'hull has dimension 1 < 3')),
    ('hrep_from_vrep', (((20, 15, 12), (80, 135, 12), (140, 75, 12)),),
     ('DegenerateError', 'hull has dimension 2 < 3')),
    ('hrep_from_vrep', (((0, 0, 0), (0, 0, 5), (0, 5, 0), (0, 5, 5), (5, 0, 0), (5, 0, 5), (5, 5, 0), (5, 5, 5)),),
     (((0, 0, 0), (0, 0, 5), (0, 5, 0), (0, 5, 5), (5, 0, 0), (5, 0, 5), (5, 5, 0), (5, 5, 5)), (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), -5), ((0, -1, 0), -5), ((-1, 0, 0), -5)))),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0)), (1, 1, 1, 5, 3)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)))),
    ('polytope_from_divisor', (((2, 0), (1, 0), (0, 1), (-1, -1)), (2, 1, 1, 1)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)))),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (1, 1)), (1, 1, 1, 2)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)))),
    ('polytope_from_divisor', (((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, 2)),
     (((-1, -1), (-1, 2), (2, -1)), (((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)))),
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
     (((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)), (((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0), ((0, 0, 0, -1), -1), ((0, 0, -1, 0), -1), ((0, -1, 0, 0), -1), ((-1, 0, 0, 0), -1)))),
    ('vrep_from_hrep', ((((2, 0), 1), ((0, 1), 0), ((-1, -1), -2)), 2),
     ('NonIntegralVertexError', 'half-space intersection has non-integral vertices')),
    ('vrep_from_hrep', ((((4, 3, 2), -4), ((0, 1, 0), 0), ((-5, -45, 5), 3), ((2, -2, 1), 2), ((-5, 0, -15), -9)), 3),
     ('EmptyRegionError', 'half-space intersection is empty')),
]


@pytest.mark.parametrize("call,args,expected", PINNED,
                         ids=[f"{c}{i}" for i, (c, *_) in enumerate(PINNED)])
def test_pinned_corpus(call, args, expected):
    fn = {"hrep_from_vrep": hrep_from_vrep, "vrep_from_hrep": vrep_from_hrep,
          "polytope_from_divisor": polytope_from_divisor}[call]
    if isinstance(expected[0], str):
        with pytest.raises(Exception) as err:
            fn(*args)
        assert (type(err.value).__name__, str(err.value)) == expected
        return
    P = fn(*args)
    assert (P.vertices, P.halfspaces) == expected
    assert all(type(c) is int for v in P.vertices for c in v)
    _assert_canonical_rows(P)


# --- intersect --------------------------------------------------------------

def _intersect(p, q):
    """The polytope of the rows of p and q together."""
    return vrep_from_hrep(p.halfspaces + q.halfspaces, p.dim)


def test_intersect_disjoint_is_none():
    simplex = hrep_from_vrep([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(EmptyRegionError):
        _intersect(simplex, translate(simplex, (2, 2)))


def test_intersect_overlapping_squares():
    A = hrep_from_vrep([(0, 0), (2, 0), (0, 2), (2, 2)])
    B = translate(A, (1, 1))
    I = _intersect(A, B)
    assert _vertex_set(I) == {(1, 1), (2, 1), (1, 2), (2, 2)}


def test_intersect_shared_edge_is_degenerate():
    A = hrep_from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
    B = translate(A, (1, 0))
    with pytest.raises(DegenerateError, match="^half-space intersection "
                       "has dimension 1 < 2$"):
        _intersect(A, B)


# --- volume -----------------------------------------------------------------

def test_volume_triangle():
    P = hrep_from_vrep([(-1, -1), (2, -1), (-1, 2)])
    assert volume(P) == Rat(9, 2)


def test_volume_symmetric_hexagon_exact():
    P = hrep_from_vrep([(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)])
    assert volume(P) == 9  # shoelace by hand


def test_volume_unit_cube():
    P = hrep_from_vrep(list(itertools.product((0, 1), repeat=3)))
    assert volume(P) == 1


def _cross_polytope(dim):
    return hrep_from_vrep([tuple(s if i == j else 0 for i in range(dim))
                         for j in range(dim) for s in (1, -1)])


def _unit_simplex(dim):
    return hrep_from_vrep([(0,) * dim] + [tuple(1 if i == j else 0
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


@pytest.mark.parametrize("n", [1, 4, 9])
def test_lattice_points_segment(n):
    P = hrep_from_vrep([(0,), (n,)])
    assert len(lattice_points(P)) == n + 1


@pytest.mark.parametrize("n", [1, 2, 5])
def test_lattice_points_scaled_simplex(n):
    P = scale(hrep_from_vrep([(0, 0), (1, 0), (0, 1)]), n)
    assert len(lattice_points(P)) == (n + 1) * (n + 2) // 2


def _box_scan(P):
    """Reference: every point of the bounding box that P contains, in
    lexicographic order."""
    lo, hi = P.bounding_box()
    box = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
    return [p for p in itertools.product(*box) if contains(P, p)]


@pytest.mark.parametrize("points", [
    [(0,), (7,)],
    [(2, -3), (15, 3), (3, 14)],
    [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)],
    [(0, 0, 0), (2, 1, 0), (1, 2, 0), (1, 1, 3)],  # a slanted pyramid
    [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)],
    # triangle x square: slanted facets with no term in the last two axes
    [(x, y, z, w) for x, y in ((0, 0), (2, 1), (1, 3)) for z in (0, 1)
     for w in (0, 2)],
    [(1, 1), (4, 2), (2, 5)],
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
    P = hull_or_none(points)
    assume(P is not None)
    assert lattice_points(P) == _box_scan(P)


# --- contains ---------------------------------------------------------------

def test_contains_center_vertex_exterior():
    P = hrep_from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert contains(P, (Rat(1, 2), Rat(1, 2)))
    assert contains(P, (1, 1))  # closed polytope
    assert not contains(P, (10, 10))
    with pytest.raises(DimMismatchError):
        contains(P, (1,))


def test_lattice_polytope_rejects_rational_vertices():
    # the rows of the square [0, 1/2]^2
    rows = [((1, 0), 0), ((0, 1), 0), ((-2, 0), -1), ((0, -2), -1)]
    with pytest.raises(NonIntegralVertexError, match="^half-space "
                       "intersection has non-integral vertices$"):
        vrep_from_hrep(rows, 2)


@pytest.mark.parametrize("bad", [Rat(3, 2), Rat(2), 2.0],
                         ids=["fraction", "integral_fraction", "float"])
def test_non_integer_entries_are_type_errors_naming_the_input(bad,
                                                              monkeypatch):
    # the entries are read through operator.index before any elimination
    def eliminate(*args):
        raise AssertionError("elimination ran on a non-integer entry")

    monkeypatch.setattr(geometry, "_echelon", eliminate)
    monkeypatch.setattr(geometry, "_extreme_rays", eliminate)
    calls = [  # in a point, a row normal and a row offset
        lambda: hrep_from_vrep([(0, 0), (bad, 0), (0, 1)], "tri"),
        lambda: vrep_from_hrep(
            [((1, 0), 0), ((bad, 1), 0), ((-1, -1), -2)], 2, "tri"),
        lambda: vrep_from_hrep(
            [((1, 0), 0), ((0, 1), 0), ((-1, -1), bad)], 2, "tri"),
    ]
    for call in calls:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == f"tri needs integer entries, not {bad!r}"


# --- invariants -------------------------------------------------------------

# point sets whose hulls the fixture ``poly`` builds test by test, so a slow
# hull fails its own tests instead of hanging collection
FIXTURE_POINTS = [
    [(0,), (3,)],
    [(0, 0), (1, 0), (0, 1)],
    [(-1, -1), (2, -1), (-1, 2)],
    [(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)],
    list(itertools.product((0, 1), repeat=3)),
    # dimensions 1, 3 and 4, and sets with a point on a face
    [(-2,), (1,), (5,)],
    [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)],
    list(itertools.product((0, 1), repeat=4)),
    [(x, y, z, w) for x, y in ((0, 0), (2, 1), (1, 3))
     for z in (0, 1) for w in (0, 2)],
    [(1, 2), (2, 2), (1, 3)],
    [(0, 0, 0), (2, 1, 0), (1, 2, 0), (1, 1, 0), (1, 1, 1)],
    [(0, 1, 0, 0), (1, 3, 0, 1), (2, 5, 0, 2), (0, 1, 1, 0), (0, 2, 0, 0),
     (1, 1, 0, 0)],
    [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1), (1, 0, 0, 0),
     (0, 0, 1, 0)],
]


@pytest.fixture
def poly(request):
    return hrep_from_vrep(request.param)


@pytest.mark.parametrize("poly", FIXTURE_POINTS, indirect=True)
def test_volume_scales_by_power_of_dimension(poly):
    rng = random.Random(20240811)
    base = volume(poly)
    for _ in range(5):
        t = rng.randint(1, 12)
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
    # 0*P is the origin
    counts = [1] + [len(lattice_points(scale(poly, n))) for n in range(1, 7)]
    for _ in range(poly.dim):
        counts = [b - a for a, b in zip(counts, counts[1:])]
    fact = 1
    for k in range(2, poly.dim + 1):
        fact *= k
    assert Rat(counts[0], fact) == volume(poly)


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
    hyperplane x_n = <a, x'> + b so that lower dimensions come up, as they
    do for small sets."""
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7))
    if draw(st.integers(0, 2)) == 0:
        a = draw(st.tuples(*[st.integers(-2, 2)] * dim))
        pts = [(*p[:-1], sum(map(operator.mul, a, p[:-1])) + a[-1])
               for p in pts]
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(), t=st.integers(1, 4),
       shift=st.lists(_SHIFT, min_size=4, max_size=4),
       perm=st.permutations(range(4)),
       signs=st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
       move=st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_random_polytope_rows_vertices_and_volume(dim, data, t, shift, perm,
                                                  signs, move):
    points = data.draw(_point_sets(dim))
    rank = _rank([[a - b for a, b in zip(p, points[0])] for p in points])
    if rank < dim:
        with pytest.raises(DegenerateError,
                           match=f"^hull has dimension {rank} < {dim}$"):
            hrep_from_vrep(points)
        return
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
    assert (back.vertices, back.halfspaces) == (P.vertices, P.halfspaces)
    # volume is invariant under a signed permutation plus an integer shift
    order = [i for i in perm if i < dim]
    image = [tuple(signs[i] * p[i] + move[i] for i in order) for p in points]
    assert volume(hrep_from_vrep(image)) == volume(P)


@pytest.mark.parametrize("build,error,code", [
    (lambda: hrep_from_vrep([]), EmptyRegionError, "empty"),
    (lambda: hrep_from_vrep([(0, 0), (1,)]), DimMismatchError, "dim_mismatch"),
    (lambda: polytope_from_divisor([], []), DegenerateError, "degenerate"),
    (lambda: polytope_from_divisor([(1, 0), (0, 1), (-1, -1)], [1, 1]),
     DimMismatchError, "dim_mismatch"),
    (lambda: ConvexPolytope(2, (), ()), EmptyRegionError, "empty"),
    (lambda: ConvexPolytope(2, ((0,),), ()), DimMismatchError,
     "dim_mismatch"),
], ids=["no_points", "mixed_points", "no_rays", "coefficient_short",
        "no_vertices", "short_vertex"])
def test_malformed_input_raises_its_engine_error(build, error, code):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and info.value.code == code
