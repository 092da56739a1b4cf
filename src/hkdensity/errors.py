"""Engine error hierarchy.

Every error carries a stable machine-readable ``code`` that the CLI emits in
its error JSON; exit status is nonzero exactly when one of these is raised.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""

    code = "engine_error"


class UnboundedError(EngineError):
    """Half-space intersection has a nontrivial recession cone."""

    code = "unbounded"


class EmptyRegionError(EngineError):
    """Half-space system is infeasible."""

    code = "empty"


class DegenerateError(EngineError):
    """Polytope is not full-dimensional where full dimension is required."""

    code = "degenerate"


class NonIntegralVertexError(EngineError):
    """Divisor data produced a rational, non-lattice polytope.

    The rational polytope is attached so the caller may still proceed.
    """

    code = "non_integral_vertex"

    def __init__(self, message, polytope=None):
        super().__init__(message)
        self.polytope = polytope


class NegativeScaleError(EngineError):
    code = "negative_scale"


class DimMismatchError(EngineError):
    code = "dim_mismatch"


class UnsupportedDimensionError(EngineError):
    """A base the exact functions do not cover: they answer segments,
    polygons, and products and lattice boxes of any dimension folded over
    their factors; every other base of dimension 3 or more is refused."""

    code = "unsupported_dimension"


class BreakpointVerificationError(EngineError):
    """An exact self-check of a computed function failed: an interpolated
    piece missed its verification sample, or the assembled function broke
    continuity or a known value."""

    code = "breakpoint_verification_failed"


class SpecParseError(EngineError):
    """Malformed input describing a toric pair."""

    code = "parse_error"
