"""The public surface of ``discphase``: its exports, and every parameter with a default.

A numerical policy with one value in use is a module constant, not a
parameter, and a name with no caller outside the tests is not exported.
A new option or export therefore shows up as a one-line change to
``OPTIONS`` or ``EXPORTS``.
"""

import inspect

import discphase

EXPORTS = [
    "AllOfCircle",
    "AngleClass",
    "BlaschkeProduct",
    "BoundaryModulus",
    "Circle",
    "CircleConfig",
    "CircleNotInsideDisc",
    "DegenerateAlignment",
    "DegreeCapExceeded",
    "DiscPhaseError",
    "EqualModulusReport",
    "EqualityCertificate",
    "EvaluationAtPole",
    "EvaluationTooCloseToBoundary",
    "ExplicitPoints",
    "FunctionExpr",
    "GeneralizedCircle",
    "IdenticalCircles",
    "InversePointsReport",
    "Line",
    "ModulusData",
    "ModulusEquation",
    "ModulusFit",
    "ModulusMismatchOnCircle",
    "ModulusSamples",
    "MoebiusMap",
    "MoebiusOf",
    "NonConvergence",
    "OuterFunction",
    "PairKind",
    "PointsNotOnCommonCircle",
    "PoleAmbiguity",
    "Polynomial",
    "PowerComposite",
    "PresumedIrrational",
    "ProductExpr",
    "RationalFunction",
    "RationalMultipleOfPi",
    "ResidualTooLarge",
    "RetrievalConfig",
    "RetrievalDiagnostics",
    "RetrievalResult",
    "RightAnglePair",
    "StripMap",
    "UEqualsV",
    "UNIT_CIRCLE",
    "ZeroOnBoundary",
    "ZeroOnCircle",
    "align_constant",
    "boundary_modulus_of",
    "build_modulus_product",
    "certify_finite_points",
    "circle_as_automorphism_image",
    "classify_angle",
    "classify_pair",
    "disc_automorphism",
    "equal_up_to_unimodular",
    "equality_points_on_circle",
    "finite_set_pair",
    "fit_modulus_rational",
    "function_expr_from_json",
    "function_expr_to_json",
    "inverse_point",
    "inverse_points_demo",
    "map_circle",
    "modulus_equation",
    "modulus_samples",
    "parametrize_pair",
    "perpendicular_lines_pair",
    "poly_roots",
    "rational_angle_pair",
    "retrieve_two_circles",
    "sample_modulus",
    "two_circle_right_angle_pair",
    "verify_equal_modulus",
]

OPTIONS = [
    "Circle.sample_points(phase_offset)",
    "CircleConfig.__init__(angle)",
    "EqualModulusReport.__init__(tol)",
    "RetrievalConfig.__init__(degree_max)",
    "RetrievalConfig.__init__(residual_tol)",
    "certify_finite_points(tol)",
    "inverse_points_demo(n_samples)",
    "retrieve_two_circles(config)",
    "two_circle_right_angle_pair(c1)",
    "two_circle_right_angle_pair(c2)",
    "verify_equal_modulus(tol)",
]


def public_names() -> list[str]:
    """The names ``discphase/__init__.py`` imports, submodules excluded."""
    return sorted(
        name for name in dir(discphase)
        if not name.startswith("_") and not inspect.ismodule(getattr(discphase, name))
    )


def _defaulted(label: str, fn) -> list[str]:
    params = inspect.signature(fn).parameters.values()
    return [f"{label}({p.name})" for p in params if p.default is not p.empty]


def public_options() -> list[str]:
    """Defaulted parameters of the exported functions, and of the ``__init__``
    and public methods of the exported classes other than exceptions."""
    found = []
    for name in public_names():
        obj = getattr(discphase, name)
        if inspect.isfunction(obj):
            found += _defaulted(name, obj)
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in vars(obj).items():
                fn = getattr(raw, "__func__", raw)  # unwrap classmethod / staticmethod
                if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                    found += _defaulted(f"{name}.{attr}", fn)
    return sorted(found)


def test_public_options_are_pinned():
    assert public_options() == OPTIONS


def test_public_names_are_pinned():
    assert public_names() == EXPORTS
