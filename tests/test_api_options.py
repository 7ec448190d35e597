"""The public option count: every parameter with a default in the ``discphase`` API.

A numerical policy with one value in use is a module constant, not a
parameter.  A new option therefore shows up as a one-line change to
``OPTIONS``.
"""

import inspect

import discphase

OPTIONS = [
    "BlaschkeProduct.__init__(constant)",
    "BlaschkeProduct.__init__(zeros)",
    "Circle.sample_points(phase_offset)",
    "CircleConfig.__init__(angle)",
    "CircleGrid.__init__(phase_offset)",
    "EqualModulusReport.__init__(tol)",
    "Line.sample_points(half_width)",
    "Polynomial.from_roots(leading)",
    "RetrievalConfig.__init__(degree_max)",
    "RetrievalConfig.__init__(residual_tol)",
    "RetrievalDiagnostics.__init__(notes)",
    "RetrievalResult.to_json(outer_csv)",
    "boundary_modulus_of(n)",
    "certify_finite_points(tol)",
    "estimate_degree(config)",
    "inverse_points_demo(n_samples)",
    "retrieve_two_circles(config)",
    "two_circle_right_angle_pair(c1)",
    "two_circle_right_angle_pair(c2)",
    "verify_equal_modulus(tol)",
]


def _defaulted(label: str, fn) -> list[str]:
    params = inspect.signature(fn).parameters.values()
    return [f"{label}({p.name})" for p in params if p.default is not p.empty]


def public_options() -> list[str]:
    """Defaulted parameters of the exported functions, and of the ``__init__``
    and public methods of the exported classes other than exceptions."""
    found = []
    for name in dir(discphase):
        if name.startswith("_"):
            continue
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
