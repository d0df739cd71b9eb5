"""Loci of triangle centers over one-parameter Poncelet triangle families.

Six families are covered — three with circular outer and caustic
conics (closing pair, fixed incircle pair, three-caustic pencil) and
three with confocal-ellipse caustics (closing parameter, free
parameter, three-caustic pencil).  The package traces triangle-center
loci over each family, classifies them as points, circles, ellipses,
or higher-degree algebraic curves, and numerically verifies the
closed-form descriptions that exist.
"""

from .geom import (
    Conic,
    GeometryError,
    Line,
    Point,
    classify_conic,
    conic_span_residual,
    line_tangent_to_conic_residual,
)
from .families import (
    BicentricParams,
    ConfocalParams,
    FamilyConfig,
    TangentBranch,
    Triangle,
    bic1_config,
    bic2_config,
    bic2_envelope,
    bic3_config,
    chapple_distance,
    conf1_config,
    conf2_config,
    conf2_envelope,
    conf3_config,
    critical_lambda,
    degenerate_envelope_inradius,
    envelope_points,
)
from .centers import builtin_centers, center, excenters
from .loci import (
    CurveFit,
    Locus,
    classify_locus,
    convexity_check,
    convexity_lambda_root,
    fit_curve,
    sextic_coefficients_x2,
    stationarity_spread,
    trace_locus,
    verdict_letter,
    verify_implicit_sextic_x2,
)
from .claims import ClaimReport, all_claims, claim_ids, run_claims
from .svgplot import render_family

__version__ = "0.1.0"

__all__ = [
    "BicentricParams",
    "ClaimReport",
    "ConfocalParams",
    "Conic",
    "CurveFit",
    "FamilyConfig",
    "GeometryError",
    "Line",
    "Locus",
    "Point",
    "TangentBranch",
    "Triangle",
    "all_claims",
    "bic1_config",
    "bic2_config",
    "bic2_envelope",
    "bic3_config",
    "builtin_centers",
    "center",
    "chapple_distance",
    "claim_ids",
    "classify_conic",
    "classify_locus",
    "conf1_config",
    "conf2_config",
    "conf2_envelope",
    "conf3_config",
    "conic_span_residual",
    "convexity_check",
    "convexity_lambda_root",
    "critical_lambda",
    "degenerate_envelope_inradius",
    "envelope_points",
    "excenters",
    "fit_curve",
    "line_tangent_to_conic_residual",
    "render_family",
    "run_claims",
    "sextic_coefficients_x2",
    "stationarity_spread",
    "trace_locus",
    "verdict_letter",
    "verify_implicit_sextic_x2",
    "__version__",
]
