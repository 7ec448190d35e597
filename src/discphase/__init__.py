"""Modulus-only reconstruction of analytic functions on the unit disc.

The package recovers f = (finite Blaschke product) x (outer factor), up to
a unimodular constant, from |f| sampled on the unit circle and one interior
centred circle; certifies uniqueness from finitely many modulus agreements
via a degree bound; classifies two-circle configurations inside the disc;
and generates the function families that show where uniqueness fails.
"""

from .blaschke import (
    BlaschkeProduct,
    ExplicitPoints,
    ModulusData,
    ModulusSamples,
    align_constant,
    equal_up_to_unimodular,
    modulus_samples,
)
from .counterexamples import (
    FunctionExpr,
    InversePointsReport,
    MoebiusOf,
    PowerComposite,
    ProductExpr,
    RightAnglePair,
    StripMap,
    finite_set_pair,
    function_expr_from_json,
    function_expr_to_json,
    inverse_points_demo,
    perpendicular_lines_pair,
    rational_angle_pair,
    two_circle_right_angle_pair,
)
from .errors import (
    AllOfCircle,
    CircleNotInsideDisc,
    DegenerateAlignment,
    DegreeCapExceeded,
    DiscPhaseError,
    EvaluationAtPole,
    EvaluationTooCloseToBoundary,
    IdenticalCircles,
    ModulusMismatchOnCircle,
    NonConvergence,
    PointsNotOnCommonCircle,
    PoleAmbiguity,
    ResidualTooLarge,
    UEqualsV,
    ZeroOnBoundary,
    ZeroOnCircle,
)
from .geometry import (
    AngleClass,
    Circle,
    CircleConfig,
    GeneralizedCircle,
    Line,
    MoebiusMap,
    PairKind,
    PresumedIrrational,
    RationalMultipleOfPi,
    UNIT_CIRCLE,
    circle_as_automorphism_image,
    classify_angle,
    classify_pair,
    disc_automorphism,
    inverse_point,
    map_circle,
)
from .outer import BoundaryModulus, OuterFunction, boundary_modulus_of
from .rational import (
    ModulusEquation,
    Polynomial,
    RationalFunction,
    build_modulus_product,
    equality_points_on_circle,
    modulus_equation,
    poly_roots,
)
from .retrieval import (
    EqualityCertificate,
    EqualModulusReport,
    ModulusFit,
    RetrievalConfig,
    RetrievalDiagnostics,
    RetrievalResult,
    certify_finite_points,
    fit_modulus_rational,
    parametrize_pair,
    retrieve_two_circles,
    sample_modulus,
    verify_equal_modulus,
)

__version__ = "0.1.0"
