import itertools

import pytest

from hkdensity import (
    FacetParallelToBaseError,
    PiecewisePoly,
    Poly,
    Rat,
    lattice_hull,
    pw_combine,
    pw_equal,
    pw_from_json,
    pw_to_json,
    sectional_volume_function,
    volume,
)

from conftest import line_density_form, projective_line


# --- polynomial arithmetic ---------------------------------------------------

def test_poly_square():
    p = Poly.of(1, -1)
    assert (p * p).coeffs == (Rat(1), Rat(-2), Rat(1))


def test_poly_integral_exact():
    assert Poly.of(1, 0, -4).integrate(0, Rat(1, 2)) == Rat(1, 3)


def test_poly_eval_exact():
    assert Poly.of(1, 0, Rat(-9, 2))(Rat(1, 3)) == Rat(1, 2)


def test_poly_add_strips_trailing_zeros():
    assert (Poly.of(1, 2, 3) + Poly.of(0, 0, -3)).coeffs == (Rat(1), Rat(2))


def test_poly_compose_affine():
    # p(z) = z^2 evaluated along z = 2x + 1
    assert Poly.of(0, 0, 1).compose_affine(2, 1).coeffs == (Rat(1), Rat(4), Rat(4))


# --- piecewise combine / equality ---------------------------------------------

def _ramp():
    return PiecewisePoly.build([0, 1], [Poly.of(1, -1)])


def test_combine_with_zero_is_identity():
    f = _ramp()
    assert pw_equal(pw_combine(f, PiecewisePoly.zero(), "add"), f)


def test_combine_complement_product():
    # (1-f)^2 inside the window [0,2], where f = 1-x on [0,1] and 0 after
    one = PiecewisePoly.build([0, 2], [Poly.of(1)])
    g = pw_combine(one, _ramp(), "sub")
    prod = pw_combine(g, g, "mul")
    expected = PiecewisePoly.build([0, 1, 2], [Poly.of(0, 0, 1), Poly.of(1)])
    assert pw_equal(prod, expected)


def test_combine_sub_equal_functions_is_zero():
    f = _ramp()
    assert pw_equal(pw_combine(f, f, "sub"), PiecewisePoly.zero())


def test_equal_ignores_redundant_breakpoints():
    f = _ramp()
    g = PiecewisePoly.build([0, Rat(1, 2), 1], [Poly.of(1, -1), Poly.of(1, -1)])
    assert pw_equal(f, g)


def test_equal_distinguishes_coefficients():
    a = PiecewisePoly.build([0, 1], [Poly.of(1, 0, -4)])
    b = PiecewisePoly.build([0, 1], [Poly.of(1, 0, -3)])
    assert not pw_equal(a, b)


def test_equal_on_line_fixture():
    from hkdensity import hkd_function
    assert pw_equal(hkd_function(projective_line(2)), line_density_form(2))


def test_eval_outside_domain_is_zero():
    f = _ramp()
    assert f(-1) == 0 and f(2) == 0 and f(0) == 1 and f(1) == 0


def test_scale_arg():
    f = _ramp()
    g = f.scale_arg(2)
    assert g.breakpoints == (Rat(0), Rat(1, 2))
    assert g.pieces[0].coeffs == (Rat(1), Rat(-2))


# --- json round trip ----------------------------------------------------------

def test_json_round_trip():
    f = PiecewisePoly.build([0, 1, Rat(3, 2)], [Poly.of(0, 2), Poly.of(6, -4)])
    data = pw_to_json(f)
    assert data == {"breakpoints": ["0", "1", "3/2"],
                    "pieces": [["0", "2"], ["6", "-4"]]}
    assert pw_equal(pw_from_json(data), f)


def test_json_accepts_unicode_minus():
    data = {"breakpoints": ["0", "1"], "pieces": [["6", "−4"]]}
    f = pw_from_json(data)
    assert f.pieces[0].coeffs == (Rat(6), Rat(-4))


# --- sectional volume ----------------------------------------------------------

def _simplex3():
    return lattice_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _bipyramid():
    return lattice_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                         (0, 0, 1), (0, 0, -1)])


def test_sectional_simplex_with_base_facet():
    sv = sectional_volume_function(_simplex3(), allow_base_facets=True)
    assert pw_equal(sv, PiecewisePoly.build(
        [0, 1], [Poly.of(Rat(1, 2), -1, Rat(1, 2))]))


def test_sectional_base_facet_rejected_by_default():
    with pytest.raises(FacetParallelToBaseError):
        sectional_volume_function(_simplex3())


def test_sectional_bipyramid():
    sv = sectional_volume_function(_bipyramid())
    expected = PiecewisePoly.build(
        [-1, 0, 1], [Poly.of(2, 4, 2), Poly.of(2, -4, 2)])
    assert pw_equal(sv, expected)
    assert sv(0) == 2 and sv(Rat(1, 2)) == Rat(1, 2)


def test_sectional_endpoints_vanish_without_base_facets():
    sv = sectional_volume_function(_bipyramid())
    assert sv(sv.breakpoints[0]) == 0
    assert sv(sv.breakpoints[-1]) == 0


SLICED_FIXTURES = [
    (_bipyramid(), False),
    (_simplex3(), True),
    (lattice_hull([(0, 0, 0, 0)] + [tuple(1 if i == j else 0 for i in range(4))
                                    for j in range(4)]), True),
    (lattice_hull([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                   (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]),
     False),
]


@pytest.mark.parametrize("poly,needs_flag", SLICED_FIXTURES)
def test_sectional_integral_equals_volume(poly, needs_flag):
    sv = sectional_volume_function(poly, allow_base_facets=needs_flag)
    assert sv.integral() == volume(poly)


@pytest.mark.parametrize("poly,needs_flag", SLICED_FIXTURES)
def test_sectional_degree_bound_and_continuity(poly, needs_flag):
    sv = sectional_volume_function(poly, allow_base_facets=needs_flag)
    assert all(p.degree <= poly.dim - 1 for p in sv.pieces)
    assert sv.is_continuous()


def test_sectional_breakpoints_are_vertex_levels():
    sv = sectional_volume_function(_bipyramid())
    levels = sorted({v[-1] for v in _bipyramid().vertices})
    assert set(sv.breakpoints) <= set(levels)
