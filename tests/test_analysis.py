import itertools
import math

import pytest

from hkdensity import (
    DegenerateError,
    PiecewisePoly,
    Poly,
    Rat,
    SegrePair,
    ToricPair,
    UnsupportedDimensionError,
    e_hk,
    ehk_power,
    h0,
    hk_report,
    hkd_function,
    hrep_from_vrep,
    limit_values,
    pair_volume,
    phi_function,
    phi_scaled,
    segre,
    tiling_values,
)
from hkdensity.analysis import _factors, _hkd_cached, _phi_cached
from hkdensity.cli import pw_to_json

from conftest import (
    FANO_TABLE,
    blowup1_anticanonical,
    blowup2_anticanonical,
    hirzebruch,
    hirzebruch_defect_form,
    hirzebruch_density_form,
    line_defect_form,
    line_density_form,
    plane_anticanonical,
    plane_degree_one,
    projective_line,
    quadric_anticanonical,
    symmetric_hexagon,
    unit_square,
)
from reference import product_rule


# --- line pairs -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_line_density_and_defect(n):
    pair = projective_line(n)
    assert hkd_function(pair) == line_density_form(n)
    assert phi_function(pair) == line_defect_form(n)
    assert e_hk(pair) == Rat(n + 1, 2)


def test_line_density_value_example():
    f = hkd_function(projective_line(2))
    assert f(0) == 0 and f(Rat(5, 4)) == 1


# --- ruled surfaces ---------------------------------------------------------------

@pytest.mark.parametrize("acd", [(1, 2, 1), (2, 3, 1), (1, 1, 2), (2, 1, 3)])
def test_hirzebruch_density_and_defect(acd):
    pair = hirzebruch(*acd)
    assert hkd_function(pair) == hirzebruch_density_form(*acd)
    assert phi_function(pair) == hirzebruch_defect_form(*acd)


def test_hirzebruch_first_piece_and_breakpoints():
    f = hkd_function(hirzebruch(1, 2, 1))
    assert f.pieces[0].coeffs == (Rat(0), Rat(0), Rat(5, 2))
    assert f.breakpoints == (Rat(0), Rat(1), Rat(4, 3), Rat(3, 2), Rat(2))


def test_hirzebruch_balanced_case_boundary():
    # at c == d the two case formulas overlap; both must match the engine
    pair = hirzebruch(1, 2, 2)
    assert hkd_function(pair) == hirzebruch_density_form(1, 2, 2)
    assert phi_function(pair) == hirzebruch_defect_form(1, 2, 2)
    assert e_hk(pair) == Rat(33, 8)


# --- Fano table --------------------------------------------------------------------

@pytest.mark.parametrize("factory,int_phi,coeff_a,vol", FANO_TABLE)
def test_fano_defect_integrals_and_growth(factory, int_phi, coeff_a, vol):
    pair = factory()
    _, phi_int, a = limit_values(pair)
    assert pair_volume(pair) == vol
    assert phi_int == int_phi
    assert a == coeff_a
    assert a == pair_volume(pair) * phi_function(pair).integral()


def test_plane_defect_form():
    expected = PiecewisePoly.build(
        [0, Rat(1, 3), Rat(2, 3)],
        [Poly.of(1, 0, Rat(-9, 2)), Poly.of(2, -6, Rat(9, 2))])
    assert phi_function(plane_anticanonical()) == expected


def test_blowup1_defect_middle_piece():
    # (t^2 - 6t + 3)/2 between 1/3 and 1/2
    phi = phi_function(blowup1_anticanonical())
    assert phi.breakpoints == (Rat(0), Rat(1, 3), Rat(1, 2), Rat(2, 3))
    assert phi.pieces[1].coeffs == (Rat(3, 2), Rat(-3), Rat(1, 2))


# --- defect scaling ------------------------------------------------------------------

def test_phi_scaled_identity_and_shrink():
    pair = projective_line(2)
    assert phi_scaled(pair, 1) == phi_function(pair)
    scaled = phi_scaled(pair, 2)
    assert scaled == PiecewisePoly.build([0, Rat(1, 4)], [Poly.of(1, -4)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_phi_scaled_integral_scaling(k):
    pair = plane_anticanonical()
    assert phi_scaled(pair, k).integral() == limit_values(pair)[1] / k


# --- growth coefficient ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5])
def test_line_growth_coefficient_is_half(n):
    assert limit_values(projective_line(n))[2] == Rat(1, 2)


def test_veronese_expansion_line():
    # e_HK over m^k grows as (e0/d!) k^d + A k^{d-1}
    pair = projective_line(3)
    e0, _, second = limit_values(pair)
    lead = e0 / math.factorial(pair.d)
    assert (lead, second) == (Rat(3, 2), Rat(1, 2))
    # exact multiplicities over powers of the maximal ideal: k(kn+1)/2
    for k in (1, 2, 3, 4):
        assert ehk_power(pair, k) == Rat(k * (k * 3 + 1), 2)
        assert ehk_power(pair, k) == lead * k ** 2 + second * k
        assert limit_values(pair.scaled(k))[0] == k ** (pair.d - 1) * e0


def test_ehk_power_k1_matches_e_hk():
    pair = quadric_anticanonical()
    assert ehk_power(pair, 1) == e_hk(pair)


# --- tiling ----------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [unit_square, quadric_anticanonical,
                                     symmetric_hexagon])
def test_tilers(factory):
    assert tiling_values(factory()) == (True, 0.0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_segments_tile(n):
    assert tiling_values(projective_line(n)) == (True, 0.0)


def test_hexagon_defect_form():
    phi = phi_function(symmetric_hexagon())
    assert phi == PiecewisePoly.build([0, Rat(1, 3)], [Poly.of(1, 0, -9)])


@pytest.mark.parametrize("factory", [plane_anticanonical, blowup1_anticanonical])
def test_non_tilers_have_positive_gap(factory):
    tiles, gap = tiling_values(factory())
    assert not tiles
    assert gap > 1e-9


def test_gap_orders_the_blowups():
    gaps = [tiling_values(factory())[1] for factory, *_ in FANO_TABLE[1:]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] > 0


# --- products -----------------------------------------------------------------------------

@pytest.mark.parametrize("x,y", [
    (projective_line(1), projective_line(1)),
    (projective_line(2), projective_line(1)),
    (plane_degree_one(), projective_line(2)),
    (symmetric_hexagon(), projective_line(3)),
    (plane_anticanonical(), plane_degree_one()),
], ids=["line1-line1", "line2-line1", "simplex-line2", "hexagon-line3",
        "plane-simplex"])
def test_product_rule_in_piecewise_arithmetic(x, y):
    phi, hkd = product_rule(x, y)
    assert phi_function(segre(x, y)) == phi
    assert hkd_function(segre(x, y)) == hkd


def test_segre_square_phi():
    phi, _ = product_rule(projective_line(1), projective_line(1))
    assert phi == PiecewisePoly.build([0, 1], [Poly.of(1, 0, -1)])
    assert phi == phi_function(unit_square()) == _phi_cached(unit_square())


@pytest.mark.parametrize("a,b", itertools.product(range(1, 6), repeat=2))
def test_rectangle_phi_obeys_product_rule(a, b):
    # the planar engine on [0,a]x[0,b] against the closed forms of the lines
    rectangle = ToricPair.from_vertices([(0, 0), (a, 0), (0, b), (a, b)])
    expected, _ = product_rule(projective_line(a), projective_line(b))
    assert _phi_cached(rectangle) == expected
    assert phi_function(rectangle) == expected


def test_segre_triple_cube():
    p = projective_line(1)
    cube = segre(p, p, p)
    assert phi_function(cube) == PiecewisePoly.build(
        [0, 1], [Poly.of(1, 0, 0, -1)])
    assert cube.d == 4 and cube.l == 8
    assert pair_volume(cube) == 1 and h0(cube) == 8
    assert limit_values(cube)[0] == 6
    assert tiling_values(cube)[0]
    f = hkd_function(cube)
    assert f(Rat(5, 4)) == Rat(117, 64) and f(Rat(3, 2)) == Rat(19, 8)
    assert e_hk(cube) == 2


def test_segre_of_two_lines_materializes():
    pair = segre(projective_line(1), projective_line(1))
    assert e_hk(pair) == Rat(4, 3)


@pytest.mark.parametrize("a,b", itertools.product(range(1, 5), repeat=2))
def test_rectangle_density_obeys_product_rule(a, b):
    # the fold over the factors against the planar engine on [0,a]x[0,b],
    # as the CLI emits them
    rectangle = ToricPair.from_vertices([(0, 0), (a, 0), (0, b), (a, b)])
    product = segre(projective_line(a), projective_line(b))
    assert pw_to_json(hkd_function(product)) == pw_to_json(
        _hkd_cached(rectangle)) == pw_to_json(hkd_function(rectangle))
    if a * b <= 4:  # the doubled rectangle is slow in the planar engine
        assert ehk_power(product, 2) == 2 * _hkd_cached(
            rectangle.scaled(2)).integral() == ehk_power(rectangle, 2)


# unimodular images of [0,a]x[0,b]: (a, b, vertices)
BOX_IMAGES = [
    (1, 1, [(0, 0), (2, 1), (1, 1), (3, 2)]),      # [[2,1],[1,1]]
    (1, 2, [(0, 0), (1, 0), (2, 2), (3, 2)]),      # a shear
    (2, 1, [(0, 0), (0, -2), (1, 0), (1, -2)]),     # a reflection
]


@pytest.mark.parametrize("a,b,vertices", BOX_IMAGES)
def test_box_images_obey_product_rule(a, b, vertices):
    # the planar engine on an image of a rectangle against the rule
    image = ToricPair.from_vertices(vertices)
    product = segre(projective_line(a), projective_line(b))
    assert _hkd_cached(image) == hkd_function(product)
    assert hkd_function(image) == hkd_function(product)
    assert _phi_cached(image) == phi_function(product)
    assert phi_function(image) == phi_function(product)


@pytest.mark.parametrize("pair,sides", [
    (ToricPair.from_vertices([(0, 0), (3, 0), (0, 1), (3, 1)]), [1, 3]),
    (ToricPair.from_vertices([(2, -1), (2, 4), (5, -1), (5, 4)]), [3, 5]),
    (quadric_anticanonical(), [2, 2]),
    (ToricPair.from_vertices([(0, 0), (2, 1), (1, 1), (3, 2)]), [1, 1]),
    # non-primitive edges 2*(2,1) and 3*(1,1): the image of [0,2]x[0,3]
    (ToricPair.from_vertices([(0, 0), (4, 2), (3, 3), (7, 5)]), [2, 3]),
], ids=["rectangle", "offset", "quadric", "image", "nonprimitive"])
def test_box_recognized(pair, sides):
    assert sorted(_factors(pair), key=pair_volume) == [
        projective_line(n) for n in sides]


@pytest.mark.parametrize("pair", [
    ToricPair.from_vertices([(0, 0), (1, 0), (1, 2), (2, 2)]),  # det 2
    ToricPair.from_vertices([(0, 0), (2, 1), (1, 2), (3, 3)]),  # det 3
    hirzebruch(1, 1, 2),
    # one opposite pair, whose normal alone has determinant 1
    ToricPair.from_vertices([(0, 0), (2, 0), (2, 1), (0, 3)]),
    blowup2_anticanonical(),  # two opposite pairs of det 1 and a fifth row
    plane_degree_one(),
    symmetric_hexagon(),
    projective_line(3),
    segre(projective_line(1), projective_line(2)),
], ids=["det2", "det3", "hirzebruch112", "trapezoid", "pentagon", "triangle",
        "hexagon", "line", "product"])
def test_non_box_kept(pair):
    # a product is flattened into its factors, here none of them a box
    factors = pair.factors if isinstance(pair, SegrePair) else (pair,)
    assert _factors(pair) == list(factors)


_LINE1, _LINE2 = projective_line(1), projective_line(2)
_BOX21 = ToricPair.from_vertices([(0, 0), (2, 0), (0, 1), (2, 1)])
_TRIANGLE = plane_degree_one()


@pytest.mark.parametrize("group,ehk,limit,sections,volume", [
    ([segre(segre(_LINE1, _LINE2), _BOX21),
      segre(_LINE1, _LINE2, _LINE2, _LINE1),
      segre(_LINE1, _LINE2, _LINE1, _LINE2)],
     Rat(283, 30), Rat(41, 15), 36, 4),
    ([segre(_TRIANGLE, _BOX21), segre(_TRIANGLE, segre(_LINE2, _LINE1)),
      segre(_TRIANGLE, _LINE2, _LINE1)],
     Rat(867, 160), Rat(2003, 1920), 18, 1),
], ids=["lines_and_box", "triangle_and_box"])
def test_nesting_and_order_do_not_change_a_product(group, ehk, limit,
                                                   sections, volume):
    # every invariant folds over the flat list of factors, so a nested, a
    # reordered and a box-carrying product emit the same functions
    assert len({(str(pw_to_json(hkd_function(p))),
                 str(pw_to_json(phi_function(p)))) for p in group}) == 1
    for pair in group:
        assert (e_hk(pair), limit_values(pair)[2], h0(pair),
                pair_volume(pair)) == (
            ehk, limit, sections, volume)


def test_segre_quadruple_lines():
    p = projective_line(1)
    quad = segre(p, p, p, p)
    assert quad.d == 5
    assert phi_function(quad) == PiecewisePoly.build(
        [0, 1], [Poly.of(1, 0, 0, 0, -1)])
    assert tiling_values(quad) == (True, 0.0)


def test_mixed_product_tiles_only_at_matching_threshold():
    # a segment tiles at 1/n and the hexagon at 1/3; the product tiles
    # exactly when the thresholds agree
    hexagon = symmetric_hexagon()
    good = segre(projective_line(3), hexagon)
    assert tiling_values(good) == (True, 0.0)
    assert phi_function(good) == PiecewisePoly.build(
        [0, Rat(1, 3)], [Poly.of(1, 0, 0, -27)])
    bad = segre(projective_line(2), hexagon)
    tiles, gap = tiling_values(bad)
    assert not tiles
    assert gap > 1e-9


# --- reports and miscellany -----------------------------------------------------------------

def test_report_fields_consistent():
    rep = hk_report(plane_anticanonical())
    assert rep.d == 3 and rep.l == 3
    assert rep.e0 == 9 and rep.h0 == 10
    assert rep.e_hk == rep.hkd.integral()
    assert rep.phi_integral == Rat(1, 3)
    assert rep.limit_A == Rat(3, 2)
    assert rep.is_tiler is False


def test_e0_and_h0():
    assert limit_values(projective_line(4))[0] == 4
    assert h0(projective_line(4)) == 5
    assert limit_values(plane_anticanonical())[0] == 9


def test_direct_high_dimension_rejected():
    simplex = ToricPair.from_vertices(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(UnsupportedDimensionError):
        phi_function(simplex)
    with pytest.raises(UnsupportedDimensionError):
        hkd_function(simplex)


@pytest.mark.parametrize("sides", [(1, 1, 1), (1, 2, 1), (1, 1, 1, 1)])
def test_higher_dimensional_box_matches_its_product(sides):
    box = ToricPair(hrep_from_vrep(list(itertools.product(
        *[(0, n) for n in sides]))))
    product = segre(*[projective_line(n) for n in sides])
    assert hkd_function(box) == hkd_function(product)
    assert phi_function(box) == phi_function(product)
    assert ehk_power(box, 2) == ehk_power(product, 2)
    assert hk_report(box) == hk_report(product)
    if sides == (1, 1, 1):
        f = hkd_function(box)
        assert e_hk(box) == 2
        assert f(Rat(5, 4)) == Rat(117, 64) and f(Rat(3, 2)) == Rat(19, 8)


def test_degenerate_base_rejected():
    with pytest.raises(DegenerateError):
        ToricPair(hrep_from_vrep([(0, 0), (1, 1)]))


def test_scaled_pair():
    pair = quadric_anticanonical().scaled(2)
    assert pair_volume(pair) == 16
    assert e_hk(pair) == Rat(25, 3)


def test_unit_simplex_regular_ring():
    # the plane with its hyperplane class: three-variable polynomial ring
    pair = plane_degree_one()
    expected = PiecewisePoly.build(
        [0, 1, 2, 3],
        [Poly.of(0, 0, Rat(1, 2)),
         Poly.of(Rat(-3, 2), 3, -1),        # (-2z^2+6z-3)/2
         Poly.of(Rat(9, 2), -3, Rat(1, 2))  # (3-z)^2/2
         ])
    assert hkd_function(pair) == expected
    assert e_hk(pair) == 1
    # the simplex does not tile by translates alone; its defect function
    # carries the same renormalized gap as the triple-area anticanonical
    # triangle (the gap is invariant under dilation of the base)
    phi = phi_function(pair)
    assert phi == PiecewisePoly.build(
        [0, 1, 2],
        [Poly.of(1, 0, Rat(-1, 2)), Poly.of(2, -2, Rat(1, 2))])
    assert phi.integral() == 1
    tiles, gap = tiling_values(pair)
    assert not tiles
    assert gap == tiling_values(plane_anticanonical())[1]


@pytest.mark.parametrize("call", [
    lambda pair, k: pair.scaled(k),
    phi_scaled,
    ehk_power,
], ids=["scaled", "phi_scaled", "ehk_power"])
def test_nonpositive_multiples_are_value_errors(call):
    for pair in (plane_anticanonical(), segre(projective_line(1),
                                              projective_line(2))):
        for k in (0, -1, 1.5):
            with pytest.raises(ValueError, match="positive integer"):
                call(pair, k)
