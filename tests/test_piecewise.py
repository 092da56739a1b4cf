import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity import PiecewisePoly, Poly, Rat, pw_to_json

from conftest import line_density_form, projective_line
from reference import pw_from_json


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

ZERO = PiecewisePoly.build([0], [])


def _ramp():
    return PiecewisePoly.build([0, 1], [Poly.of(1, -1)])


def test_combine_with_zero_is_identity():
    f = _ramp()
    assert f + ZERO == f


def test_combine_complement_product():
    # (1-f)^2 inside the window [0,2], where f = 1-x on [0,1] and 0 after
    one = PiecewisePoly.build([0, 2], [Poly.of(1)])
    g = one - _ramp()
    prod = g * g
    expected = PiecewisePoly.build([0, 1, 2], [Poly.of(0, 0, 1), Poly.of(1)])
    assert prod == expected


def test_combine_sub_equal_functions_is_zero():
    f = _ramp()
    assert f - f == ZERO


def test_equal_ignores_redundant_breakpoints():
    f = _ramp()
    g = PiecewisePoly.build([0, Rat(1, 2), 1], [Poly.of(1, -1), Poly.of(1, -1)])
    assert f == g


def test_equal_distinguishes_coefficients():
    a = PiecewisePoly.build([0, 1], [Poly.of(1, 0, -4)])
    b = PiecewisePoly.build([0, 1], [Poly.of(1, 0, -3)])
    assert a != b


def test_equal_on_line_fixture():
    from hkdensity import hkd_function
    assert hkd_function(projective_line(2)) == line_density_form(2)


def test_eval_outside_domain_is_zero():
    f = _ramp()
    assert f(-1) == 0 and f(2) == 0 and f(0) == 1 and f(1) == 0


@pytest.mark.parametrize("call", [
    lambda f: PiecewisePoly.build([0, 1], []),
    lambda f: PiecewisePoly.build([1, 0], [Poly.of(1)]),
    lambda f: f.scale_arg(0),
    lambda f: PiecewisePoly.build([0, 1], [(1, -1)]),
    lambda f: f.scale_arg(Rat(1, 2)),
], ids=["piece_missing", "decreasing_breakpoints", "zero_scale",
        "coefficient_list", "fractional_scale"])
def test_malformed_arguments_are_value_errors(call):
    with pytest.raises(ValueError):
        call(_ramp())


@pytest.mark.parametrize("breakpoints, pieces", [
    ((Rat(0), Rat(1), Rat(2)), (Poly.of(1), Poly.of(1))),
    ((Rat(0), Rat(1), Rat(2)), (Poly.of(1), Poly.of())),
    ((Rat(0), Rat(1), Rat(2)), (Poly.of(), Poly.of(1))),
    ((Rat(3),), ()),
    ((Rat(1), Rat(0)), (Poly.of(1),)),
    ((Rat(0), Rat(1)), ()),
    ((0, 1), (Poly.of(1),)),
    ((Rat(0), Rat(1)), ((Rat(1),),)),
    ([Rat(0), Rat(1)], [Poly.of(1)]),
], ids=["equal_neighbours", "zero_last_piece", "zero_first_piece",
        "lone_breakpoint_not_0", "decreasing_breakpoints", "piece_missing",
        "int_breakpoints", "coefficient_tuple", "lists"])
def test_non_canonical_values_are_refused(breakpoints, pieces):
    # build is the one way to a value: each of these is some function's
    # value in a second form, or no function at all
    with pytest.raises(ValueError):
        PiecewisePoly(breakpoints, pieces)


@pytest.mark.parametrize("coeffs", [(Rat(1), Rat(0)), (Rat(0),), [Rat(1)]],
                         ids=["trailing_zero", "zero", "list"])
def test_non_canonical_polynomials_are_refused(coeffs):
    # a second form of a polynomial would be a second form of every
    # piecewise value that holds it: (0,) is the zero polynomial
    with pytest.raises(ValueError):
        Poly(coeffs)


def test_build_makes_the_canonical_value():
    merged = PiecewisePoly.build([0, 1, 2], [Poly.of(1), Poly.of(1)])
    assert merged == PiecewisePoly((Rat(0), Rat(2)), (Poly.of(1),))
    trimmed = PiecewisePoly.build(
        [-1, 0, 1, 2, 3], [Poly.of(), Poly.of(1), Poly.of(0, 1), Poly.of()])
    assert trimmed == PiecewisePoly((Rat(0), Rat(1), Rat(2)),
                                    (Poly.of(1), Poly.of(0, 1)))
    assert PiecewisePoly.build([3], []) == ZERO == PiecewisePoly((Rat(0),), ())


# fractions in [-2, 2] with denominator at most 4, each one draw from the
# list of them; a value draws its breakpoints and all its coefficients as
# two lists, which keeps Hypothesis' per-draw cost small
_SMALL = st.sampled_from(sorted(
    {Rat(n, d) for d in range(1, 5) for n in range(-2 * d, 2 * d + 1)}))


@st.composite
def _pairs(draw, max_degree):
    """(f, g): a random value f, and g either drawn on its own or f rebuilt
    on extra breakpoints with one piece perhaps shifted by a constant, so
    that f == g holds in many draws and fails in many."""
    size = max_degree + 1

    def value():
        bps = sorted(draw(st.sets(_SMALL, min_size=1, max_size=5)))
        n = (len(bps) - 1) * size
        coeffs = draw(st.lists(_SMALL, min_size=n, max_size=n))
        return PiecewisePoly.build(bps, [Poly.of(*coeffs[i:i + size])
                                         for i in range(0, n, size)])

    f = value()
    if draw(st.booleans()):
        return f, value()
    cuts = sorted(set(f.breakpoints) | draw(st.sets(_SMALL, max_size=3)))
    pieces = [f.piece_at((a + b) / 2) for a, b in zip(cuts, cuts[1:])]
    if pieces and draw(st.booleans()):
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = pieces[i] + Poly.of(draw(_SMALL))
    return f, PiecewisePoly.build(cuts, pieces)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=_pairs(3))
def test_equality_is_a_zero_difference(pair):
    f, g = pair
    assert (f == g) == (f - g == ZERO) == (g - f == ZERO)
    assert f != g or hash(f) == hash(g)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=_pairs(1))
def test_equality_is_agreement_at_breakpoints_and_midpoints(pair):
    # the samples are every breakpoint of f and g and the midpoint between
    # each two neighbouring ones; on each such interval a piece of degree
    # at most 1 is fixed by its value at the midpoint and at one end (a
    # degree 2 piece is not, so the pieces here are linear)
    f, g = pair
    cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
    samples = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    assert (f == g) == all(f(x) == g(x) for x in samples)


def test_jump_is_not_continuous():
    f = PiecewisePoly.build([0, 1, 2], [Poly.of(1), Poly.of(2)])
    assert not f.is_continuous()
    assert _ramp().is_continuous()


def test_scale_arg():
    f = _ramp()
    g = f.scale_arg(2)
    assert f.scale_arg(2.0) == g
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
    assert pw_from_json(data) == f


def test_json_accepts_unicode_minus():
    data = {"breakpoints": ["0", "1"], "pieces": [["6", "−4"]]}
    f = pw_from_json(data)
    assert f.pieces[0].coeffs == (Rat(6), Rat(-4))
