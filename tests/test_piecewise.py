import pytest

from hkdensity import (
    PiecewisePoly,
    Poly,
    Rat,
    pw_equal,
    pw_from_json,
    pw_to_json,
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


# --- piecewise arithmetic / equality ---------------------------------------------

def _ramp():
    return PiecewisePoly.build([0, 1], [Poly.of(1, -1)])


def test_combine_with_zero_is_identity():
    f = _ramp()
    assert pw_equal(f + PiecewisePoly.zero(), f)


def test_combine_complement_product():
    # (1-f)^2 inside the window [0,2], where f = 1-x on [0,1] and 0 after
    one = PiecewisePoly.build([0, 2], [Poly.of(1)])
    g = one - _ramp()
    prod = g * g
    expected = PiecewisePoly.build([0, 1, 2], [Poly.of(0, 0, 1), Poly.of(1)])
    assert pw_equal(prod, expected)


def test_combine_sub_equal_functions_is_zero():
    f = _ramp()
    assert pw_equal(f - f, PiecewisePoly.zero())


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


@pytest.mark.parametrize("call", [
    lambda f: PiecewisePoly.build([0, 1], []),
    lambda f: PiecewisePoly.build([1, 0], [Poly.of(1)]),
    lambda f: f.scale_arg(0),
], ids=["piece_missing", "decreasing_breakpoints", "zero_scale"])
def test_malformed_arguments_are_value_errors(call):
    with pytest.raises(ValueError):
        call(_ramp())


def test_jump_is_not_continuous():
    f = PiecewisePoly.build([0, 1, 2], [Poly.of(1), Poly.of(2)])
    assert not f.is_continuous()
    assert _ramp().is_continuous()


def test_scale_arg():
    f = _ramp()
    g = f.scale_arg(2)
    assert g.breakpoints == (Rat(0), Rat(1, 2))
    assert g.pieces[0].coeffs == (Rat(1), Rat(-2))
    # x -> f(3x) takes the coefficient c_i to c_i * 3^i
    f = PiecewisePoly.build([0, 1, 3], [Poly.of(1, 0, -4), Poly.of(-3, 2)])
    assert f.scale_arg(3) == PiecewisePoly.build(
        [0, Rat(1, 3), 1], [Poly.of(1, 0, -36), Poly.of(-3, 6)])


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
