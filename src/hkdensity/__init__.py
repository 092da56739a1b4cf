"""Exact Hilbert-Kunz density functions for projective toric pairs.

The package computes, entirely over exact rationals: the density function
of a toric pair (as a piecewise polynomial), its integral (the Hilbert-Kunz
multiplicity), the compactly supported unit-cell defect function phi that
governs the second-order growth of the multiplicity along powers of the
maximal ideal, the associated growth coefficient, and the exact criterion
for the base polytope to tile space under lattice translates.  A
dimension-agnostic lattice-counting oracle validates everything from the
combinatorial side.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a command line call
loads only the layers it runs.
"""

import importlib

_EXPORTS = {
    "analysis": (
        "HKReport", "e_hk", "h0", "hk_report", "hkd_function",
        "limit_values", "pair_volume", "phi_function", "tiling_values",
    ),
    "cli": ("pw_to_json",),
    "errors": (
        "BreakpointVerificationError", "DegenerateError", "DimMismatchError",
        "EmptyRegionError", "EngineError", "NonIntegralVertexError",
        "SpecParseError", "UnboundedError", "UnsupportedDimensionError",
    ),
    "geometry": (
        "ConvexPolytope", "hrep_from_vrep", "lattice_points",
        "polytope_from_divisor", "scale", "translate", "volume",
        "vrep_from_hrep",
    ),
    "oracle": (
        "ConvergenceReport", "OracleSample", "convergence_report", "f_n",
        "oracle_ehk", "slice_count",
    ),
    "pairs": ("SegrePair", "ToricPair", "segre"),
    "piecewise": ("PiecewisePoly", "Poly"),
    "rationals": ("Rat", "parse_rat", "rat_str"),
    "regions": (
        "SliceFamily", "family_volume_function", "hk_family", "phi_family",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
