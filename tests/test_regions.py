import itertools
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity import regions
from hkdensity.analysis import cell_cover_scale
from hkdensity import (
    BreakpointVerificationError,
    PiecewisePoly,
    Poly,
    Rat,
    SliceFamily,
    ToricPair,
    UnsupportedDimensionError,
    family_volume_function,
    hk_family,
    hkd_function,
    hrep_from_vrep,
    phi_family,
    translate,
)

from conftest import (
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
from reference import (area, brute_events, hk_slice, phi_slice,
                       ring_difference_area, ring_meet)


# --- slices -------------------------------------------------------------------

def test_hk_slice_line_degree_two():
    assert area(hk_slice(projective_line(2), Rat(5, 4))) == 1  # 6 - 4*(5/4)


def test_hk_slice_origin_at_zero():
    # 0*P is one point: no ring, no area
    assert hk_slice(plane_anticanonical(), 0) == []


def test_hk_slice_below_one_is_dilate():
    rings = hk_slice(plane_anticanonical(), Rat(1, 2))
    assert len(rings) == 1
    assert area(rings) == Rat(9, 8)


def test_hk_slice_empty_beyond_support_bound():
    pair = plane_anticanonical()
    for z in (1 + pair.l, 1 + pair.l + 2):
        assert area(hk_slice(pair, z)) == 0


def test_hk_slice_pieces_have_disjoint_interiors():
    slices = [
        hk_slice(quadric_anticanonical(), Rat(5, 4)),
        # several translates overlap the minuend and each other
        hk_slice(symmetric_hexagon(), Rat(7, 6)),
        phi_slice(hirzebruch(1, 1, 2), Rat(2, 5)),
    ]
    for rings in slices:
        assert len(rings) > 1
        for i, a in enumerate(rings):
            assert area([a]) > 0
            for b in rings[i + 1:]:
                assert area([ring_meet(a, b)]) == 0


def test_phi_slice_line():
    # at t < 1/n the cell keeps length 1 - n*t
    pair = projective_line(3)
    assert area(phi_slice(pair, Rat(1, 6))) == Rat(1, 2)


def test_phi_slice_at_zero_is_full_cell():
    assert area(phi_slice(plane_anticanonical(), 0)) == 1


def test_phi_slice_plane_anticanonical():
    assert area(phi_slice(plane_anticanonical(), Rat(1, 3))) == Rat(1, 2)


def hirzebruch_112():
    """Ruled surface whose translates overhang the minuend and cover it."""
    return hirzebruch(1, 1, 2)


# --- families -------------------------------------------------------------------

def test_family_rejects_higher_dimension():
    cube = hrep_from_vrep(list(itertools.product((0, 1), repeat=3)))
    with pytest.raises(UnsupportedDimensionError):
        family_volume_function(hk_family(cube), 1, 2)
    with pytest.raises(UnsupportedDimensionError):
        family_volume_function(phi_family(cube, 1), 0, 1)


def test_family_rejects_negative_dilate():
    # the minuend (1 - t)*cell is a reflected cell past t = 1
    cell = unit_square().polytope
    fam = SliceFamily(minuend=(cell, 1, -1), translates=(), shape=(cell, 0, 1))
    with pytest.raises(ValueError, match="negative"):
        family_volume_function(fam, 0, 2)


def test_family_rejects_segment():
    # a segment is answered in closed form by analysis, never by the engine
    segment = projective_line(2).polytope
    with pytest.raises(UnsupportedDimensionError):
        family_volume_function(hk_family(segment), 1, 3)
    with pytest.raises(UnsupportedDimensionError):
        family_volume_function(phi_family(segment, 1), 0, 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_hk_family_line(n):
    # past z = 1 the density of a segment is the area function of its family
    # (1+t)P minus u + tP; the reference slices a thickened segment
    pair = projective_line(n)
    f = hkd_function(pair)
    tail = PiecewisePoly.build([0, Rat(1, n)], [Poly.of(n, -n * n)])
    for k in range(4 * n + 9):
        z = Rat(k, 4 * n)
        expected = n * z if z <= 1 else tail(z - 1)
        assert f(z) == expected == area(hk_slice(pair, z))


@pytest.mark.parametrize("n", range(1, 13))
def test_phi_family_line(n):
    from hkdensity import phi_function
    pair = projective_line(n)
    phi = phi_function(pair)
    for t in [Rat(k, 4 * n) for k in range(9)]:
        assert phi(t) == max(0, 1 - n * t) == area(phi_slice(pair, t))


def test_phi_family_square_side_two():
    f = family_volume_function(
        phi_family(hrep_from_vrep([(0, 0), (2, 0), (0, 2), (2, 2)]), 1), 0, 1)
    assert f == PiecewisePoly.build([0, Rat(1, 2)], [Poly.of(1, 0, -4)])


def test_constant_family():
    square = hrep_from_vrep([(0, 0), (2, 0), (0, 2), (2, 2)])
    fam = SliceFamily(minuend=(square, 1, 0), translates=(),
                      shape=(square, 0, 1))
    f = family_volume_function(fam, 0, 3)
    assert f == PiecewisePoly.build([0, 3], [Poly.of(4)])


def test_missed_events_fail_certificate(monkeypatch):
    # without its events the plane's density tail is one candidate interval,
    # on which no single quadratic passes the verification sample
    monkeypatch.setattr(regions, "_events", lambda scan: set())
    pair = plane_anticanonical()
    with pytest.raises(BreakpointVerificationError, match="polynomial piece"):
        family_volume_function(hk_family(pair.polytope), 1, 1 + pair.l)


def test_missed_event_on_the_last_interval_fails_certificate(monkeypatch):
    # hirzebruch(1, 1, 2)'s hk family has events 4/3, 3/2, 5/3 and 2, and its
    # area vanishes from z = 2.  Without the event 2 the last interval
    # [5/3, 19/9] spans that kink, and no later piece checks its right end
    events = regions._events
    monkeypatch.setattr(regions, "_events",
                        lambda record: events(record) - {Rat(2)})
    family = hk_family(hirzebruch(1, 1, 2).polytope)
    with pytest.raises(BreakpointVerificationError, match="polynomial piece"):
        family_volume_function(family, 1, Rat(19, 9))


def test_edge_landing_inside_a_parallel_edge_is_an_event():
    # the base P has the edge x = -3 of length 1 on its lowest facet line
    # and the edge x = 1 of length 3.  At t = z - 1 = 1/4 the left edge of
    # (-2, -1) + tP lands strictly inside the right edge of (-3, -1) + tP:
    # the parallel pair gives no moving point, so the scan meets the triple
    # from the left edge's neighbours
    pair = ToricPair.from_vertices(
        [(-3, -1), (-3, 0), (0, -2), (1, -2), (1, 1)])
    f = hkd_function(pair)
    assert Rat(5, 4) in f.breakpoints
    for z in (Rat(9, 8), Rat(5, 4), Rat(21, 16)):
        assert f(z) == area(hk_slice(pair, z))


def _parallel_landing_family():
    # the minuend [0, 10 + t]^2 and the translate (20, 3) + t*[0, 1]^2: at
    # t = 10 the translate's left edge lands strictly inside the minuend's
    # right edge, two parallel lines that coincide once
    cell = hrep_from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
    return SliceFamily(minuend=(cell, 10, 1), translates=((20, 3),),
                       shape=(cell, 0, 1))


def test_edge_landing_inside_a_parallel_line_of_another_body_is_an_event():
    # the triple is met only from the minuend's line and the translate's
    # top or bottom line, with the parallel left edge as third line
    f = family_volume_function(_parallel_landing_family(), 0, 15)
    assert f == PiecewisePoly.build(
        [0, 10, 15], [Poly.of(100, 20, 1), Poly.of(100, 30)])


_THIN = hrep_from_vrep([(0, 0), (2, 0), (0, 1)])
_UNIT = hrep_from_vrep([(0, 0), (1, 0), (0, 1)])


@pytest.mark.parametrize("translates,shape,breakpoints,pieces", [
    ((), _THIN, [0, 2], [(0, 0, 1)]),
    (((0, 0), (1, 0)), _UNIT, [0, Rat(1, 2), 1, 2],
     [(0, 0, Rat(1, 2)), (Rat(-1, 4), 1, Rat(-1, 2)),
      (Rat(3, 4), -1, Rat(1, 2))]),
])
def test_minuend_sampled_at_scale_zero(translates, shape, breakpoints, pieces):
    # the minuend t*P is one point at t = 0: its edges have zero length and
    # no subtrahend edge runs through it, so the sample there is 0
    fam = SliceFamily(minuend=(_THIN, 0, 1), translates=translates,
                      shape=(shape, 0, 1))
    f = family_volume_function(fam, 0, 2)
    assert f == PiecewisePoly.build(
        breakpoints, [Poly.of(*p) for p in pieces])
    assert regions._FamilyRecord(fam, Rat(0), Rat(2)).area(Rat(0)) == 0


def _hk_range(pair):
    return hk_family(pair.polytope), 1, 1 + pair.l


def _phi_range(pair):
    r = cell_cover_scale(pair)
    return phi_family(pair.polytope, r), 0, r


_SMALL_SURFACES = (hirzebruch(1, 2, 1), plane_anticanonical(),
                   plane_degree_one(), quadric_anticanonical())


@pytest.mark.parametrize("family, lo, hi", [
    *map(_hk_range, _SMALL_SURFACES),
    *map(_phi_range, _SMALL_SURFACES + (hirzebruch(1, 1, 2),)),
    (_parallel_landing_family(), 0, 15),
])
def test_events_match_brute_force_over_every_line_triple(family, lo, hi):
    record = regions._FamilyRecord(family, Rat(lo), Rat(hi))
    assert regions._events(record) == brute_events(record)


@pytest.mark.parametrize("pair", [
    hirzebruch(1, 1, 2), hirzebruch(1, 2, 1), plane_anticanonical(),
    blowup3_anticanonical(),
], ids=["hirzebruch112", "hirzebruch121", "plane", "blowup3"])
def test_density_breakpoints_are_events_of_the_hk_family(pair):
    # the hk family runs in the level z, so the density's breakpoints past
    # z = 1 are among its events as they are
    family, lo, hi = _hk_range(pair)
    events = regions._events(regions._FamilyRecord(family, Rat(lo), Rat(hi)))
    breakpoints = {b for b in hkd_function(pair).breakpoints if b > 1}
    assert breakpoints and breakpoints <= events


@pytest.mark.parametrize("pair", [hirzebruch(1, 1, 2), symmetric_hexagon()],
                         ids=["hirzebruch112", "hexagon"])
def test_hk_family_reads_any_translate_alike(pair):
    # hk_family reads P where it lies: the picture for P + v is the one for
    # P shifted by z*v, so every translate has the same area function
    P, hi = pair.polytope, 1 + pair.l
    f = family_volume_function(hk_family(P), 1, hi)
    for v in [(1, 0), (-3, 2), (4, -5), (-6, -1)]:
        assert family_volume_function(hk_family(translate(P, v)), 1, hi) == f


@pytest.mark.parametrize("pair_factory", [
    projective_line, quadric_anticanonical, plane_anticanonical,
    blowup3_anticanonical, symmetric_hexagon, unit_square, hirzebruch_112,
])
def test_density_agrees_with_slices_at_random_levels(pair_factory):
    pair = pair_factory(2) if pair_factory is projective_line else pair_factory()
    f = hkd_function(pair)
    rng = random.Random(zlib.crc32(pair_factory.__name__.encode()))
    end = f.breakpoints[-1]
    levels = [end * Rat(rng.randint(0, 48), 48) for _ in range(20)]
    for z in levels:
        assert area(hk_slice(pair, z)) == f(z)


def test_phi_matches_slices_at_breakpoints_and_midpoints():
    from hkdensity import phi_function
    for factory in (plane_anticanonical, symmetric_hexagon, hirzebruch_112):
        pair = factory()
        phi = phi_function(pair)
        probes = list(phi.breakpoints)
        probes += [(a + b) / 2 for a, b in zip(phi.breakpoints, phi.breakpoints[1:])]
        for lam in probes:
            assert area(phi_slice(pair, lam)) == phi(lam)


def test_family_with_rational_offsets_matches_exact_intersections():
    # the square [0, 3]^2 + (0, 1/4) minus (1/3, 0) and (1, 1/2) plus
    # (1/2 + t)*T, T the triangle (0, 0), (2, 0), (0, 1), scaled by 12 to
    # integer data: areas scale by 144.  They are checked by
    # inclusion-exclusion over intersections of the clipped rings
    from hkdensity import scale, translate
    from hkdensity.regions import _ccw
    square = translate(scale(hrep_from_vrep([(0, 0), (3, 0), (0, 3), (3, 3)]),
                             12), (0, 3))
    triangle = hrep_from_vrep([(0, 0), (2, 0), (0, 1)])
    shifts = ((4, 0), (12, 6))
    fam = SliceFamily(minuend=(square, 1, 0), translates=shifts,
                      shape=(triangle, 6, 12))
    f = family_volume_function(fam, 0, 2)
    minuend = _ccw(square)

    def vol(*rings):
        return area([ring_meet(*rings)])

    for t in [Rat(k, 7) for k in range(15)] + list(f.breakpoints):
        s1, s2 = ([(ux + (6 + 12 * t) * x, uy + (6 + 12 * t) * y)
                   for x, y in _ccw(triangle)] for ux, uy in shifts)
        expected = (vol(minuend) - vol(minuend, s1) - vol(minuend, s2)
                    + vol(minuend, s1, s2))
        assert f(t) == expected


def test_covered_area_consistent_with_exact_intersection():
    # the area kernel's covered area for one translate must equal the area
    # of the two bodies' intersection, clipped as rings: at z = 4/3, zP
    # minus (1, 0) + (z - 1)P taken at scale 3
    from hkdensity import scale, translate, volume
    from hkdensity.regions import _boundary_area, _ccw
    P = plane_anticanonical().polytope
    minuend = scale(P, 4)
    rings = [_ccw(minuend), _ccw(translate(P, (3, 0)))]
    uncovered = Rat(_boundary_area(rings)) / 2
    assert volume(minuend) - uncovered == area([ring_meet(*rings)]) > 0


# --- the boundary-area kernel on random rings -----------------------------------

_RING_POINTS = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                        min_size=3, max_size=6)


def _ring(points):
    """The counterclockwise integer vertex ring of the hull of points, or
    None when the hull is not a polygon."""
    from hkdensity.regions import _ccw
    hull = hull_or_none(points)
    return None if hull is None else _ccw(hull)


@st.composite
def _ring_sets(draw):
    """A minuend and 2-6 subtrahends.  Besides fresh random rings, a
    subtrahend may copy an earlier ring (same edges, covers with the same
    start), slide it along one of its edges (overlapping covers on a common
    line) or turn it a half turn about an edge midpoint (the same edge
    running the other way)."""
    minuend = draw(_RING_POINTS.map(_ring).filter(bool))
    rings = [minuend]
    for _ in range(draw(st.integers(2, 6))):
        how = draw(st.sampled_from(["fresh", "copy", "slide", "turn"]))
        if how == "fresh":
            rings.append(draw(_RING_POINTS.map(_ring).filter(bool)))
            continue
        base = draw(st.sampled_from(rings))
        i = draw(st.integers(0, len(base) - 1))
        (ax, ay), (bx, by) = base[i], base[(i + 1) % len(base)]
        if how == "copy":
            rings.append(base[i:] + base[:i])
        elif how == "slide":
            s = draw(st.sampled_from([-1, 1]))
            rings.append([(x + s * (bx - ax), y + s * (by - ay))
                          for x, y in base])
        else:
            rings.append([(ax + bx - x, ay + by - y) for x, y in base])
    return rings


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rings=_ring_sets())
def test_boundary_area_matches_clipped_rings(rings):
    from hkdensity.regions import _boundary_area
    assert _boundary_area(rings) == 2 * ring_difference_area(rings)


@pytest.mark.parametrize("lo,hi", [(1, 1), (2, 1)])
def test_empty_parameter_interval_is_a_value_error(lo, hi):
    family = hk_family(plane_anticanonical().polytope)
    with pytest.raises(ValueError, match="empty parameter interval"):
        family_volume_function(family, lo, hi)
