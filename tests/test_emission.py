"""Emission: the integer grid sampler of CSV and SVG against the one-point-at-
a-time reference, the types of every JSON leaf, and every recorded benchmark
output, byte for byte."""

import json
import re
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity import PiecewisePoly, Poly, Rat
from hkdensity.cli import function_csv_rows, function_svg, run_command

import reference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_RATS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_POSITIVE = st.fractions(min_value=Rat(1, 12), max_value=3, max_denominator=12)


@st.composite
def _piece(draw):
    """A polynomial of degree 0-3 that is not identically zero, so that
    no end piece is trimmed and the breakpoints stay as drawn."""
    coeffs = draw(st.lists(_RATS, min_size=1, max_size=4))
    if not any(coeffs):
        coeffs[0] = Rat(1)
    return Poly.of(*coeffs)


@st.composite
def _sampled_functions(draw):
    """(f, samples): random pieces with jumps between them, on breakpoints
    that all lie on the sample grid, start above 0, end at or below 0, or
    lie anywhere; or the zero function."""
    samples = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["grid", "above", "nonpositive", "free", "zero"]))
    if kind == "zero":
        # build trims zero pieces drawn on any breakpoints to the one zero
        bps = sorted(draw(st.sets(_RATS, min_size=1, max_size=4)))
        return PiecewisePoly.build(bps, [Poly.of()] * (len(bps) - 1)), samples
    if kind == "grid":
        # the support ends at end = last breakpoint, so sample j sits on
        # the breakpoint end*j/samples
        end = draw(_POSITIVE)
        steps = draw(st.lists(st.integers(0, samples - 1), min_size=1,
                              max_size=5, unique=True))
        bps = [end * j / samples for j in sorted(steps)] + [end]
    else:
        values = {"above": _POSITIVE, "free": _RATS,
                  "nonpositive": st.fractions(min_value=-3, max_value=0,
                                              max_denominator=12)}[kind]
        bps = sorted(draw(st.sets(values, min_size=2, max_size=6)))
        if kind == "nonpositive" and draw(st.booleans()):
            bps[-1] = Rat(0)
    pieces = [draw(_piece()) for _ in bps[1:]]
    return PiecewisePoly.build(bps, pieces), samples


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_sampled_functions())
def test_grid_emission_matches_pointwise_reference(case):
    f, samples = case
    assert function_csv_rows(f, samples) == reference.function_csv_rows(f, samples)
    assert function_svg(f, samples, "f") == reference.function_svg(f, samples, "f")


def test_every_zero_value_emits_the_same_rows():
    # the zero function has one value, however it is reached, so one
    # emission: samples over [0, 1]
    f = PiecewisePoly.build([Rat(1, 2), 1, 2], [Poly.of(1), Poly.of(0, -3)])
    zeros = [PiecewisePoly.build([0], []), PiecewisePoly.build([3], []),
             PiecewisePoly.build([1, 2, 3], [Poly.of(), Poly.of()]),
             f - f, (f - f).scale_arg(3), f * PiecewisePoly.build([0], [])]
    assert all(z == PiecewisePoly.build([0], []) for z in zeros)
    rows = [("lambda", "value"), ("0", "0"), ("1/3", "0"), ("2/3", "0"),
            ("1", "0")]
    assert all(function_csv_rows(z, 3) == rows for z in zeros)


def test_svg_spans_the_csv_samples_when_the_support_ends_below_zero():
    # the samples then sit in [0, 1], and so does the plot's x-span
    f = PiecewisePoly.build([-2, -1], [Poly.of(1)])
    assert function_csv_rows(f, 4)[-1] == ("1", "0")
    points = re.search(r'<polyline points="([^"]*)"', function_svg(f, 4, "f"))
    xs = [float(point.split(",")[0]) for point in points.group(1).split()]
    assert len(xs) == 5 and all(40 <= x <= 640 - 40 for x in xs)
    assert (xs[0], xs[-1]) == (40, 600)


def test_grid_samples_take_the_right_hand_piece_and_vanish_outside():
    f = PiecewisePoly.build([Rat(1, 2), 1, 2], [Poly.of(1), Poly.of(0, -3)])

    def values(end, n):
        pairs = f.grid(end, n)
        assert all(d > 0 for _, d in pairs)
        return [Rat(n, d) for n, d in pairs]

    # samples 0, 1/2, 1, 3/2, 2 over end 2; 1 is a breakpoint with a jump
    assert values(Rat(2), 4) == [0, 1, -3, Rat(-9, 2), -6]
    # samples 0, 2, 4 over end 4: the right end takes the last piece
    assert values(Rat(4), 2) == [0, -6, 0]
    with pytest.raises(ValueError):
        f.grid(Rat(0), 4)


# run_path compiles the file without writing a bytecode cache next to it
_WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
_BENCHMARKS = ("surfaces", "multiples", "oracle", "cli_small")


def _expected(workload):
    return json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())


def _recorded_ops():
    for workload in _BENCHMARKS:
        expected = _expected(workload)
        for op_id, argv, spec in _WORKLOADS["WORKLOADS"][workload]:
            yield pytest.param(argv, spec, expected[op_id],
                               id=f"{workload}/{op_id}")


@pytest.mark.parametrize("argv, spec, expected", list(_recorded_ops()))
def test_recorded_benchmark_output(argv, spec, expected):
    status, text, _ = run_command(argv[0], json.dumps(spec), argv[1:])
    assert (status, text) == (0, expected)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", _BENCHMARKS)
def test_seeded_benchmark_output(workload, seed):
    # each seed moves every input by a signed permutation and a translation,
    # and each op with a planar factor also runs mirrored: the benchmark's
    # inputs, which must print the recorded bytes of the unmoved op
    expected = _expected(workload)
    wrong = [op_id for op_id, argv, spec
             in _WORKLOADS["seeded_ops"](workload, seed)
             if run_command(argv[0], spec, argv[1:])[:2]
             != (0, expected[_WORKLOADS["expected_key"](op_id)])]
    assert wrong == []


# One of each catalog surface (plane, quadric, the three blow-ups, the
# symmetric hexagon), a line, and the product of the line and the plane.
_SURFACES = [
    '{"rays": [[1,0],[0,1],[-1,-1]], "coeffs": [1,1,1]}',
    '{"rays": [[1,0],[-1,0],[0,1],[0,-1]], "coeffs": [1,1,1,1]}',
    '{"rays": [[1,0],[0,1],[-1,1],[0,-1]], "coeffs": [1,1,1,1]}',
    '{"rays": [[1,0],[1,1],[0,1],[-1,-1],[0,-1]], "coeffs": [1,1,1,1,1]}',
    '{"rays": [[1,0],[0,1],[-1,1],[-1,0],[0,-1],[1,-1]], "coeffs": [1,1,1,1,1,1]}',
    '{"vertices": [[2,1],[1,2],[-1,1],[-2,-1],[-1,-2],[1,-1]]}',
]
_LINE = '{"vertices": [[0], [2]]}'
_PRODUCT = '{"segre": [%s, %s]}' % (_LINE, _SURFACES[0])
# no exact function, so convergence has no exact value and no gaps
_INEXACT = ('{"segre": [{"vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}, '
            '{"vertices": [[0],[1]]}]}')
_COUNTS = ["--q", "2,3", "--lambda", "1/2"]


def _json_calls():
    for spec in _SURFACES + [_LINE, _PRODUCT]:
        for command, options in [
                ("density", []), ("phi", []), ("ehk", []), ("ehk", ["--k", "2"]),
                ("limit", []), ("tiling", []), ("report", []),
                ("oracle", ["--q", "2", "--lambda", "1"]),
                ("convergence", _COUNTS)]:
            yield command, spec, options
    yield "segre", _PRODUCT, []
    yield "convergence", _INEXACT, _COUNTS


def _leaves(document, key=None):
    """(key, value) of each leaf; a list's items sit under the list's key."""
    if isinstance(document, dict):
        for name, value in document.items():
            yield from _leaves(value, name)
    elif isinstance(document, list):
        for value in document:
            yield from _leaves(value, key)
    else:
        yield key, document


def test_json_leaves_are_exact_strings_or_the_declared_scalars():
    kinds = set()
    for command, spec, options in _json_calls():
        status, text, ext = run_command(command, spec, options)
        assert (status, ext) == (0, "json"), (command, spec, text)
        for key, value in _leaves(json.loads(text)):
            where = (command, spec, key, value)
            if isinstance(value, bool):
                assert key == "is_tiler", where
            elif isinstance(value, int):
                assert key in ("d", "l", "h0", "k", "q", "m", "count"), where
            elif key in ("B", "tiling_gap_B"):
                assert value == "0" or value == repr(float(value)), where
            elif value is None:
                assert command == "convergence", where
            else:
                assert isinstance(value, str) and str(Rat(value)) == value, where
            kinds.add(("B = 0" if value == "0" else "B > 0")
                      if key in ("B", "tiling_gap_B") else type(value).__name__)
    # every kind of leaf occurs, a nonzero B and a null among them
    assert kinds == {"bool", "int", "str", "NoneType", "B = 0", "B > 0"}
