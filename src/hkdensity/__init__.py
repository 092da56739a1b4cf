"""Exact Hilbert-Kunz density functions for projective toric pairs.

The package computes, entirely over exact rationals: the density function
of a toric pair (as a piecewise polynomial), its integral (the Hilbert-Kunz
multiplicity), the compactly supported unit-cell defect function phi that
governs the second-order growth of the multiplicity along powers of the
maximal ideal, the associated growth coefficient, and the exact criterion
for the base polytope to tile space under lattice translates.  A
dimension-agnostic lattice-counting oracle validates everything from the
combinatorial side.
"""

from .analysis import (
    HKReport,
    SegrePair,
    ToricPair,
    e0,
    e_hk,
    ehk_power,
    h0,
    hk_report,
    hkd_function,
    is_tiler,
    limit_A,
    pair_volume,
    phi_function,
    phi_integral,
    phi_scaled,
    segre,
    segre_phi,
    tiling_gap_B,
)
from .errors import (
    BreakpointVerificationError,
    DegenerateError,
    DimMismatchError,
    EmptyRegionError,
    EngineError,
    NegativeScaleError,
    NonIntegralVertexError,
    SpecParseError,
    UnboundedError,
    UnsupportedDimensionError,
)
from .geometry import (
    ConvexPolytope,
    HalfSpace,
    LatticePolytope,
    hrep_from_vrep,
    lattice_hull,
    lattice_points,
    polytope_from_divisor,
    scale,
    translate,
    volume,
    vrep_from_hrep,
)
from .oracle import (
    ConvergenceReport,
    OracleSample,
    convergence_report,
    ehrhart_count,
    f_n,
    oracle_ehk,
    slice_count,
)
from .piecewise import (
    PiecewisePoly,
    Poly,
    pw_combine,
    pw_equal,
    pw_from_json,
    pw_to_json,
)
from .rationals import Rat, parse_rat, rat_str
from .regions import (
    SliceFamily,
    family_volume_function,
    hk_family,
    phi_family,
)

__version__ = "0.1.0"
