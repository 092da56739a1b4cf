"""Semantics of the package's immutable value types."""

import copy
import pickle

import pytest

import hkdensity
from hkdensity import (
    ConvergenceReport,
    ConvexPolytope,
    DegenerateError,
    HKReport,
    NonIntegralVertexError,
    OracleSample,
    PiecewisePoly,
    Poly,
    Rat,
    SegrePair,
    SliceFamily,
    ToricPair,
    UnsupportedDimensionError,
    convergence_report,
    f_n,
    hk_family,
    hk_report,
    hrep_from_vrep,
    lattice_hull,
    phi_family,
    segre,
)

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _line(n):
    return ToricPair.from_vertices([(0,), (n,)])


# class -> (build a value, a value that must differ from it); each build
# makes fresh objects, so equal values are never the same object
VALUES = {
    ConvexPolytope: (lambda: hrep_from_vrep(SQUARE),
                     lambda: hrep_from_vrep(SQUARE[:3])),
    Poly: (lambda: Poly.of(1, 2), lambda: Poly.of(1, 2, 3)),
    PiecewisePoly: (lambda: PiecewisePoly.build([0, 1], [Poly.of(1, -1)]),
                    lambda: PiecewisePoly.build([0, 2], [Poly.of(1, -1)])),
    SliceFamily: (lambda: hk_family(lattice_hull(SQUARE)),
                  lambda: phi_family(lattice_hull(SQUARE), 1)),
    ToricPair: (lambda: ToricPair.from_vertices(SQUARE),
                lambda: (lattice_hull(SQUARE), "vertices")),
    SegrePair: (lambda: segre(_line(1), _line(2)),
                lambda: segre(_line(2), _line(1))),
    HKReport: (lambda: hk_report(_line(2)), lambda: hk_report(_line(3))),
    OracleSample: (lambda: f_n(_line(2), 4, 1), lambda: f_n(_line(2), 8, 1)),
    ConvergenceReport: (lambda: convergence_report(_line(2), 1, [4, 8]),
                        lambda: convergence_report(_line(2), 1, [4])),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_type_semantics(cls):
    build, build_other = VALUES[cls]
    a, b, other = build(), build(), build_other()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    # exact class and fields: a plain tuple of the same data is a different
    # value
    assert a != other and other != a
    assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
    assert repr(a).startswith(cls.__name__ + "(")
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_value_types_validate_at_construction_and_exports_resolve():
    with pytest.raises(DegenerateError):
        ToricPair(lattice_hull([(0, 0), (1, 1)]))
    simplex5 = [tuple(int(i == j) for j in range(5)) for i in range(6)]
    with pytest.raises(UnsupportedDimensionError):
        ToricPair(lattice_hull(simplex5))
    half = hrep_from_vrep([(0, 0), (Rat(3, 2), 0), (0, 1)])
    with pytest.raises(NonIntegralVertexError) as err:
        ToricPair(half)
    assert err.value.polytope == half
    with pytest.raises(ValueError):
        SegrePair((_line(1),))
    with pytest.raises(TypeError):
        Poly()
    for name in hkdensity.__all__:
        assert getattr(hkdensity, name) is not None
    with pytest.raises(AttributeError):
        hkdensity.no_such_name
