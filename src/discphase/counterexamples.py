"""Explicit function families with equal moduli on lines, circles, or finite sets.

Each generator builds declarative function expressions (not closures);
this module owns their JSON descriptor format, with ``function_expr_to_json``
its one encoder and ``function_expr_from_json`` its one decoder.
``rational_angle_pair``, ``perpendicular_lines_pair`` and ``finite_set_pair``
return the pair (f, g); ``two_circle_right_angle_pair`` returns the pair
together with the two circles on which the moduli agree;
``inverse_points_demo`` returns the moduli of one quotient on two circles.
No generator returns a witness point: a caller that wants one evaluates
the pair off the advertised set (``verify_equal_modulus``).  These families
mark the sharp edge of the uniqueness theory: equality of moduli on two
lines at a rational-multiple-of-pi angle, or on the unit circle plus a
finite set, does not force equality of functions.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .blaschke import BlaschkeProduct, equal_up_to_unimodular
from .errors import UEqualsV
from .geometry import _MAX_DENOMINATOR, Circle, Line, MoebiusMap, disc_automorphism, map_circle
from .rational import Polynomial, RationalFunction

_MAX_DEPTH = 8


@dataclass(frozen=True)
class MoebiusOf:
    """Composition map(inner(z)) of a Moebius map with another expression.

    The Moebius map acts on the sphere, so where the inner expression is
    infinite the composition takes the value a/c (infinity for an affine
    map), and compositions stay well defined across removable
    singularities of the inner expression.
    """

    map: MoebiusMap
    inner: "FunctionExpr"

    def __post_init__(self):
        depth = expression_depth(self)
        if depth > _MAX_DEPTH:
            raise ValueError(f"composition depth {depth} exceeds {_MAX_DEPTH}")

    def __call__(self, z):
        return self.map(self.inner(z))


@dataclass(frozen=True)
class PowerComposite:
    """z -> inner(z^k) for a rational ``inner`` in the power variable."""

    k: int
    inner: RationalFunction

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"power must be >= 1 and an integer, got k = {self.k!r}")
        # numpy raises z to k as a float, exact up to 2^53; a larger k is not
        # echoed, since it may have thousands of digits
        if self.k > 2**53:
            raise ValueError("power must be at most 2^53")

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self.inner(zz**self.k)
        return complex(out) if zz.ndim == 0 else out


@dataclass(frozen=True)
class StripMap:
    """s -> (i - exp(pi s)) / (i + exp(pi s)).

    exp(pi s) is real exactly on the horizontal lines Im s = n, so the map
    is unimodular there; it sends the open strip 0 < Im s < 1 conformally
    into the unit disc.  Zeros sit at i(1/2 + 2n) and poles at
    i(-1/2 + 2n), a vertical ladder that is not summable the way the zero
    set of a disc-class quotient would have to be.  Within 1e-15 relative
    of a pole the value is complex(inf, 0).  Where exp(pi s) overflows
    (Re s above about 226) the quotient is divided through by it:
    (i q - 1) / (i q + 1) with q = exp(-pi s).  The points s = +-inf map to
    the real-axis limits -+1.
    """

    def __call__(self, s):
        ss = np.asarray(s, dtype=complex)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e = np.exp(np.pi * ss)
            den = 1j + e
            out = (1j - e) / den
            out = np.where(np.abs(den) <= 1e-15 * (1.0 + np.abs(e)), complex(np.inf, 0.0), out)
            far = ~np.isfinite(e)
            if np.any(far):
                q = np.exp(-np.pi * ss[far])
                out[far] = (1j * q - 1.0) / (1j * q + 1.0)
        return complex(out) if ss.ndim == 0 else out


@dataclass(frozen=True)
class ProductExpr:
    """Pointwise product of sub-expressions."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        depth = expression_depth(self)
        if depth > _MAX_DEPTH:
            raise ValueError(f"composition depth {depth} exceeds {_MAX_DEPTH}")

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        vals = [np.asarray(f(zz), dtype=complex) for f in self.factors]
        out = np.ones(zz.shape, dtype=complex)
        with np.errstate(invalid="ignore", over="ignore"):
            for v in vals:
                out = out * v
        # complex arithmetic turns inf * inf into nan components; restore a
        # clean infinity whenever some factor is infinite and none vanishes
        inf_any = np.zeros(zz.shape, dtype=bool)
        zero_any = np.zeros(zz.shape, dtype=bool)
        for v in vals:
            v_inf = np.isinf(v.real) | np.isinf(v.imag)
            inf_any |= v_inf
            zero_any |= (v == 0) & ~v_inf
        fix = inf_any & ~zero_any
        if np.any(fix):
            out = np.where(fix, complex(np.inf, 0.0), out)
        return complex(out) if zz.ndim == 0 else out


FunctionExpr = Union[
    BlaschkeProduct, Polynomial, RationalFunction, MoebiusOf, PowerComposite, StripMap,
    ProductExpr,
]


def expression_depth(expr) -> int:
    if isinstance(expr, MoebiusOf):
        return 1 + expression_depth(expr.inner)
    if isinstance(expr, PowerComposite):
        return 2
    if isinstance(expr, ProductExpr):
        return 1 + max(expression_depth(f) for f in expr.factors)
    return 1


#: descriptor type -> (class, {field: kind}); each field is an attribute and a
#: constructor argument of the class.  Kinds: "pair" ([re, im]), "map" (a-d as
#: pairs), "int", "expr" (any descriptor), a pinned descriptor type, or a plural list.
_FORMAT = {
    "blaschke": (BlaschkeProduct, {"constant": "pair", "zeros": "pairs"}),
    "poly": (Polynomial, {"coeffs": "pairs"}),
    "rational": (RationalFunction, {"num": "poly", "den": "poly"}),
    "moebius_of": (MoebiusOf, {"map": "map", "inner": "expr"}),
    "power_composite": (PowerComposite, {"k": "int", "inner": "rational"}),
    "strip": (StripMap, {}),
    "product": (ProductExpr, {"factors": "exprs"}),
}


def function_expr_to_json(expr) -> dict:
    for t, (cls, fields) in _FORMAT.items():
        if isinstance(expr, cls):
            return {"type": t, **{key: _encode(getattr(expr, key), f) for key, f in fields.items()}}
    raise TypeError(f"not a function expression: {type(expr).__name__}")


def _encode(value, kind: str):
    if kind == "pair":
        return [float(value.real), float(value.imag)]
    if kind in ("pairs", "exprs"):
        return [_encode(v, kind[:-1]) for v in value]
    if kind == "map":
        return {k: _encode(getattr(value, k), "pair") for k in "abcd"}
    return int(value) if kind == "int" else function_expr_to_json(value)


def function_expr_from_json(obj: dict):
    """The expression of a descriptor; a malformed one raises ValueError naming the field."""
    return _decode(obj, "expr", "", 1)


def _decode(value, kind: str, path: str, depth: int):
    """The field ``value`` found at ``path``, ``depth`` objects deep, read as ``kind``."""
    where = f"{path}: " if path else ""
    if kind == "pair":
        with suppress(TypeError, OverflowError):  # not numbers, or beyond the float range
            if isinstance(value, list) and len(value) == 2 and bool not in map(type, value):
                z = complex(*value)
                abs(z)  # a modulus beyond the float range raises OverflowError
                return z
        raise ValueError(f"{where}expected an [re, im] pair of finite modulus, got {value!r}")
    if kind in ("pairs", "exprs"):
        if not isinstance(value, list):
            raise ValueError(f"{where}expected a list, got {type(value).__name__}")
        return tuple(_decode(v, kind[:-1], f"{path}[{i}]", depth) for i, v in enumerate(value))
    if kind == "int":
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{where}expected a JSON object, got {type(value).__name__}")
    t = value.get("type")
    if kind == "map":
        make, fields = MoebiusMap, dict.fromkeys("abcd", "pair")
    elif depth > _MAX_DEPTH + 1:  # the polynomials of a rational function sit one below the cap
        raise ValueError(f"{where}composition depth exceeds {_MAX_DEPTH}")
    elif kind not in ("expr", t):
        raise ValueError(f"{where}expected a {kind!r} descriptor, got type {t!r}")
    elif t not in tuple(_FORMAT):  # compares, so an unhashable type is unknown too
        raise ValueError(f"{where}unknown function expression type: {t!r}")
    else:
        make, fields = _FORMAT[t]
    prefix = f"{path}." if path else ""
    if missing := [key for key in fields if key not in value]:
        raise ValueError(f"{prefix}{missing[0]}: missing field")
    args = [_decode(value[key], f, prefix + key, depth + 1) for key, f in fields.items()]
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from exc


def _half_turn_moebius(c: float) -> RationalFunction:
    # w -> (w - c i) / (w + c i), unimodular on the real axis
    return RationalFunction(Polynomial([-c * 1j, 1.0]), Polynomial([c * 1j, 1.0]))


def rational_angle_pair(
    k: int, c1: float, c2: float
) -> tuple[PowerComposite, PowerComposite]:
    """Distinct functions sharing a modulus on all k lines at angles m pi / k.

    f = (z^k - c1 i) / (z^k + c1 i) and the same with c2: on every line
    through 0 at angle m pi / k the power z^k is real, so both factors are
    unimodular there, yet f is not a constant multiple of g.  ``k`` is at
    most 64, the largest denominator ``classify_angle`` recognises, so the
    classifier calls every pair of these lines non-unique.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > _MAX_DENOMINATOR:
        raise ValueError(f"k must be <= {_MAX_DENOMINATOR}, got {k}")
    if not (c1 > 0 and c2 > 0):
        raise ValueError("c1 and c2 must be positive")
    if c1 == c2:
        raise ValueError("c1 and c2 must differ")
    return (
        PowerComposite(k, _half_turn_moebius(float(c1))),
        PowerComposite(k, _half_turn_moebius(float(c2))),
    )


def perpendicular_lines_pair() -> tuple[PowerComposite, PowerComposite]:
    """The classic pair unimodular on [-1, 1] and i[-1, 1] but not proportional."""
    return rational_angle_pair(2, 2.0, 3.0)


def finite_set_pair(
    x_points,
    alpha: complex,
    u: BlaschkeProduct,
    v: BlaschkeProduct,
) -> tuple[MoebiusOf, MoebiusOf]:
    """Distinct inner functions agreeing in modulus on T and equal on a finite set.

    With B vanishing exactly on ``x_points`` and psi the automorphism
    sending 0 to ``alpha``, the pair psi(B u), psi(B v) takes the value
    ``alpha`` at every x, is unimodular on the unit circle, and is not
    related by a unimodular constant as long as u and v are not.
    """
    if equal_up_to_unimodular(u, v) is not None:
        raise UEqualsV("u and v coincide up to a unimodular constant")
    alpha = complex(alpha)
    if not abs(alpha) < 1.0:
        raise ValueError("alpha must lie in the open disc")
    xs = tuple(complex(x) for x in x_points)
    if not xs:
        raise ValueError("x_points must not be empty")
    if not all(abs(x) < 1.0 for x in xs):
        raise ValueError("x_points must lie in the open disc")
    b = BlaschkeProduct(1.0, xs)
    psi = disc_automorphism(1.0, alpha)
    f = MoebiusOf(psi, ProductExpr((b, u)))
    g = MoebiusOf(psi, ProductExpr((b, v)))
    return f, g


@dataclass(frozen=True)
class RightAnglePair:
    """Two functions with equal moduli on two orthogonally crossing circles."""

    f: MoebiusOf
    g: MoebiusOf
    circle1: Circle
    circle2: Circle
    base_angle: float


def two_circle_right_angle_pair(c1: float = 2.0, c2: float = 3.0) -> RightAnglePair:
    """Equal-modulus pair on the radius-1/3 circles centred at +-1/(3 sqrt 2).

    The circles cross at right angles at +-a with a = i/(3 sqrt 2); the
    map w = (z + a)/(z - a) straightens them into two perpendicular lines
    through 0.  The base direction of the first image line is computed
    numerically (angle ``base_angle``), the lines are rotated onto the real
    and imaginary axes, and squaring makes both real, so
    (w^2 - c i)/(w^2 + c i) is unimodular on both circles for any c > 0.
    Distinct parameters c1, c2 give distinct functions.
    """
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError("c1 and c2 must be finite")
    if c1 == c2:
        raise ValueError("c1 and c2 must differ")
    a = 1j / (3.0 * math.sqrt(2.0))
    circle1 = Circle(1.0 / (3.0 * math.sqrt(2.0)), 1.0 / 3.0)
    circle2 = Circle(-1.0 / (3.0 * math.sqrt(2.0)), 1.0 / 3.0)
    cayley = MoebiusMap(1.0, a, 1.0, -a)
    line1 = map_circle(cayley, circle1)
    line2 = map_circle(cayley, circle2)
    if not isinstance(line1, Line) or not isinstance(line2, Line):
        raise RuntimeError("circles through the map pole must straighten to lines")
    if line1.distance_to(0.0) > 1e-12 or line2.distance_to(0.0) > 1e-12:
        raise RuntimeError("image lines are expected to pass through 0")
    ratio = line2.direction / line1.direction
    if abs(ratio.real) > 1e-12:
        raise RuntimeError("image lines are expected to be perpendicular")
    phi = math.atan2(line1.direction.imag, line1.direction.real)
    rot = complex(math.cos(-phi), math.sin(-phi))
    straightened = RationalFunction(
        Polynomial([rot * a, rot]), Polynomial([-a, 1.0])
    )
    # keep the square factored: the linear denominator evaluates without
    # cancellation near the crossing point a, where the expanded quadratic
    # would lose all digits
    squared = ProductExpr((straightened, straightened))
    f = MoebiusOf(MoebiusMap(1.0, -c1 * 1j, 1.0, c1 * 1j), squared)
    g = MoebiusOf(MoebiusMap(1.0, -c2 * 1j, 1.0, c2 * 1j), squared)
    return RightAnglePair(f=f, g=g, circle1=circle1, circle2=circle2, base_angle=phi)


@dataclass(frozen=True)
class InversePointsReport:
    """Moduli of (z - z_plus)/(z - z_minus) on two circles sharing the inverse pair.

    The quotient has constant modulus on each circle (the defining property
    of a common inverse-point pair) but the two constants differ, so no
    equal-modulus pair on both circles arises this way.
    """

    circle1: Circle
    circle2: Circle
    z_plus: float
    z_minus: float
    constant_on_c1: float
    constant_on_c2: float
    spread_c1: float
    spread_c2: float
    constants_gap: float

    def to_json(self) -> dict:
        return {
            **asdict(self),
            "circle1": self.circle1.to_json(),
            "circle2": self.circle2.to_json(),
        }


def inverse_points_demo(n_samples: int = 256) -> InversePointsReport:
    """Constant-modulus quotient on two circles with a common inverse pair."""
    circle1 = Circle(3.0 / 5.0, 1.0 / 5.0)
    circle2 = Circle(-3.0 / 5.0, 1.0 / 5.0)
    z_plus = math.sqrt(8.0) / 5.0
    z_minus = -z_plus
    q = RationalFunction(Polynomial([-z_plus, 1.0]), Polynomial([-z_minus, 1.0]))
    mods1 = np.abs(q(circle1.sample_points(n_samples)))
    mods2 = np.abs(q(circle2.sample_points(n_samples)))
    spread1 = float(mods1.max() - mods1.min())
    spread2 = float(mods2.max() - mods2.min())
    if max(spread1, spread2) > 1e-10:
        raise RuntimeError(
            f"modulus should be constant on each circle (spreads {spread1:.3e}, {spread2:.3e})"
        )
    c1 = float(mods1.mean())
    c2 = float(mods2.mean())
    return InversePointsReport(
        circle1=circle1,
        circle2=circle2,
        z_plus=z_plus,
        z_minus=z_minus,
        constant_on_c1=c1,
        constant_on_c2=c2,
        spread_c1=spread1,
        spread_c2=spread2,
        constants_gap=abs(c1 - c2),
    )
