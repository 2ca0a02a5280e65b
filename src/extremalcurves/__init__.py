"""Exact commutative algebra for non-degenerate projective curves with
maximal cohomology: construction, invariants, and closed-form verification.
"""

from .cohomology import (
    CurveAnalysis,
    FiniteLengthModule,
    HilbertTable,
    InternalCheckError,
    NotACurveError,
    NotLocallyCohenMacaulayError,
    deficiency_module,
    h2_table,
    hilbert_table,
    hyperplane_section,
    planar_subcurve_check,
    verify_extremal,
)
from .construct import (
    ConstructionInput,
    construct_curve,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
)
from .formulas import (
    BoundProfile,
    CurveSpec,
    bound_profile,
    expected_betti,
    expected_gin,
    expected_rao_hf,
    h1_bound,
    h2_bound,
    max_genus,
)
from .groebner import GroebnerBasis, buchberger
from .ideals import (
    Ideal,
    intersect,
    kernel_of_map,
    quotient,
    saturate,
)
from .idealfile import emit_ideal, parse_ideal
from .modules import ResolutionData, free_resolution_from_gb
from .monomials import (
    BettiTable,
    MonomialIdeal,
    ek_betti,
    is_strongly_stable,
)
from .oracle import minimal_generators, oracle_quotient_dims
from .report import CurveReport
from .ring import QQ, PolyRing, Polynomial, PrimeField

__all__ = [
    "BettiTable",
    "BoundProfile",
    "ConstructionInput",
    "CurveAnalysis",
    "CurveReport",
    "CurveSpec",
    "FiniteLengthModule",
    "GroebnerBasis",
    "HilbertTable",
    "Ideal",
    "InternalCheckError",
    "MonomialIdeal",
    "NotACurveError",
    "NotLocallyCohenMacaulayError",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "QQ",
    "ResolutionData",
    "bound_profile",
    "buchberger",
    "construct_curve",
    "cubic_alternate_curve_ideal",
    "deficiency_module",
    "ek_betti",
    "emit_ideal",
    "expected_betti",
    "expected_gin",
    "expected_rao_hf",
    "extremal_curve_ideal",
    "free_resolution_from_gb",
    "h1_bound",
    "h2_bound",
    "h2_table",
    "hilbert_table",
    "hyperplane_section",
    "intersect",
    "is_strongly_stable",
    "kernel_of_map",
    "max_genus",
    "minimal_generators",
    "non_extremal_witness",
    "oracle_quotient_dims",
    "parse_ideal",
    "planar_subcurve_check",
    "quotient",
    "saturate",
    "verify_extremal",
]
