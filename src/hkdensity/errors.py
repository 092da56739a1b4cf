"""Engine error hierarchy.

Every error carries a stable machine-readable ``code`` that the CLI emits in
its error JSON; exit status is nonzero exactly when one of these is raised.
"""


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
    """Half-spaces, such as divisor data, whose intersection has a vertex
    off the lattice; no polytope is built."""

    code = "non_integral_vertex"


class DimMismatchError(EngineError):
    code = "dim_mismatch"


class UnsupportedDimensionError(EngineError):
    """A base the exact functions do not cover: they fold products and
    lattice boxes of any dimension over their factors and answer segments
    and polygons; any other factor, of dimension 3 or more, is refused."""

    code = "unsupported_dimension"


class BreakpointVerificationError(EngineError):
    """An exact self-check of a computed function failed: an interpolated
    piece missed its verification sample, or the assembled function broke
    continuity or a known value."""

    code = "breakpoint_verification_failed"


class SpecParseError(EngineError):
    """Malformed input describing a toric pair."""

    code = "parse_error"
