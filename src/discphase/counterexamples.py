"""Explicit function families with equal moduli on lines, circles, or finite sets.

Each generator returns declarative, serializable function expressions (not
closures) together with the geometric set on which the advertised modulus
identity holds, plus a witness showing the two functions are genuinely
different.  These families mark the sharp edge of the uniqueness theory:
equality of moduli on two lines at a rational-multiple-of-pi angle, or on
the unit circle plus a finite set, does not force equality of functions.
"""

from __future__ import annotations

import math
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
        if self.k < 1:
            raise ValueError("power must be >= 1")

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
    of a pole the value is complex(inf, 0).
    """

    def __call__(self, s):
        ss = np.asarray(s, dtype=complex)
        e = np.exp(np.pi * ss)
        den = 1j + e
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (1j - e) / den
        out = np.where(np.abs(den) <= 1e-15 * (1.0 + np.abs(e)), complex(np.inf, 0.0), out)
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


def function_expr_to_json(expr) -> dict:
    if isinstance(expr, (BlaschkeProduct, Polynomial, RationalFunction)):
        return expr.to_json()
    if isinstance(expr, MoebiusOf):
        return {
            "type": "moebius_of",
            "map": expr.map.to_json(),
            "inner": function_expr_to_json(expr.inner),
        }
    if isinstance(expr, PowerComposite):
        return {"type": "power_composite", "k": expr.k, "inner": expr.inner.to_json()}
    if isinstance(expr, StripMap):
        return {"type": "strip"}
    if isinstance(expr, ProductExpr):
        return {
            "type": "product",
            "factors": [function_expr_to_json(f) for f in expr.factors],
        }
    raise TypeError(f"not a function expression: {type(expr).__name__}")


def function_expr_from_json(obj: dict):
    kind = obj.get("type")
    if kind == "blaschke":
        return BlaschkeProduct.from_json(obj)
    if kind == "poly":
        return Polynomial.from_json(obj)
    if kind == "rational":
        return RationalFunction.from_json(obj)
    if kind == "moebius_of":
        return MoebiusOf(
            MoebiusMap.from_json(obj["map"]), function_expr_from_json(obj["inner"])
        )
    if kind == "power_composite":
        return PowerComposite(int(obj["k"]), RationalFunction.from_json(obj["inner"]))
    if kind == "strip":
        return StripMap()
    if kind == "product":
        return ProductExpr(tuple(function_expr_from_json(f) for f in obj["factors"]))
    raise ValueError(f"unknown function expression type: {kind!r}")


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
    witness_point: complex
    witness_deviation: float


def two_circle_right_angle_pair(c1: float = 2.0, c2: float = 3.0) -> RightAnglePair:
    """Equal-modulus pair on the radius-1/3 circles centred at +-1/(3 sqrt 2).

    The circles cross at right angles at +-a with a = i/(3 sqrt 2); the
    map w = (z + a)/(z - a) straightens them into two perpendicular lines
    through 0.  The base direction of the first image line is computed
    numerically (angle ``base_angle``), the lines are rotated onto the real
    and imaginary axes, and squaring makes both real, so
    (w^2 - c i)/(w^2 + c i) is unimodular on both circles for any c > 0.
    Distinct parameters c1, c2 give distinct functions; a witness point off
    the circles with modulus gap > 1e-3 is returned.
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

    witness_point = 0j
    witness_dev = 0.0
    for radius in (0.2, 0.45, 0.7):
        pts = radius * np.exp(2j * np.pi * np.arange(256) / 256)
        gap = np.abs(np.abs(f(pts)) - np.abs(g(pts)))
        k = int(np.argmax(gap))
        if float(gap[k]) > witness_dev:
            witness_dev = float(gap[k])
            witness_point = complex(pts[k])
    if witness_dev <= 1e-3:
        raise RuntimeError("failed to find a witness separating the pair")
    return RightAnglePair(
        f=f,
        g=g,
        circle1=circle1,
        circle2=circle2,
        base_angle=phi,
        witness_point=witness_point,
        witness_deviation=witness_dev,
    )


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
