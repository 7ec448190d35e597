"""Where modulus data does NOT determine the function: the full gallery.

Each family below produces genuinely different analytic functions whose
moduli agree on an advertised set; together they mark the boundary of the
uniqueness theory.

  * two lines crossing at a rational multiple of pi (the k-line family);
  * the unit circle plus any finite interior set;
  * two circles crossing at a right angle;
  * the strip map, unimodular on two parallel lines but outside the
    disc-quotient class;
  * and the near-miss: circles sharing an inverse-point pair give
    constant-modulus quotients, but the two constants disagree.
"""

import numpy as np

from discphase import (
    BlaschkeProduct,
    Circle,
    StripMap,
    UNIT_CIRCLE,
    finite_set_pair,
    inverse_points_demo,
    rational_angle_pair,
    two_circle_right_angle_pair,
    verify_equal_modulus,
)


def show(name, set_residual, witness):
    print(f"{name:<34} equal-modulus residual {set_residual:8.1e}   "
          f"witness gap {witness:8.1e}")


print("family                             advertised set                witness off-set")
print("-" * 86)

# k lines through the origin at multiples of pi/k
for k in (2, 3, 5):
    f, g = rational_angle_pair(k, 2.0, 3.0)
    dev = 0.0
    for m in range(k):
        d = np.exp(1j * np.pi * m / k)
        rep = verify_equal_modulus(f, g, d * np.linspace(-0.9, 0.9, 400))
        dev = max(dev, rep.max_deviation)
    wit = verify_equal_modulus(f, g, Circle(0.0, 0.5).sample_points(400)).max_deviation
    show(f"{k} lines at angles m*pi/{k}", dev, wit)

# unit circle + finite set
u, v = BlaschkeProduct(1.0, (0.2,)), BlaschkeProduct(1.0, (0.6,))
f, g = finite_set_pair((0.5, -0.5), 0.3, u, v)
dev = max(
    verify_equal_modulus(f, g, UNIT_CIRCLE.sample_points(512)).max_deviation,
    abs(f(0.5) - g(0.5)),
    abs(f(-0.5) - g(-0.5)),
)
wit = verify_equal_modulus(f, g, Circle(0.0, 0.5).sample_points(401)).max_deviation
show("unit circle + X = {0.5, -0.5}", dev, wit)
print(f"{'':<34} both functions take the value 0.3 on X: "
      f"f(0.5) = {f(0.5):.3f}, g(0.5) = {g(0.5):.3f}")

# right-angle circles
built = two_circle_right_angle_pair()
dev = max(
    verify_equal_modulus(built.f, built.g, built.circle1.sample_points(512)).max_deviation,
    verify_equal_modulus(built.f, built.g, built.circle2.sample_points(512)).max_deviation,
)
wit = verify_equal_modulus(built.f, built.g, Circle(0.0, 0.45).sample_points(512)).max_deviation
show("two circles crossing at pi/2", dev, wit)

# strip map: one function, unimodular on both edges of the strip
strip = StripMap()
t = np.linspace(-3.0, 3.0, 500)
dev = max(
    float(np.abs(np.abs(strip(t.astype(complex))) - 1).max()),
    float(np.abs(np.abs(strip(1j + t)) - 1).max()),
)
print(f"{'strip map on Im s in {0, 1}':<34} unimodularity residual {dev:8.1e}   "
      "(zeros i(1/2 + 2n): not a disc-class quotient)")

# the inverse-points non-example
report = inverse_points_demo()
print(f"\ninverse-points near miss: q = (z - {report.z_plus:.4f})/(z + {report.z_plus:.4f})")
print(f"  |q| on circle at +3/5 : {report.constant_on_c1:.6f}  (spread {report.spread_c1:.1e})")
print(f"  |q| on circle at -3/5 : {report.constant_on_c2:.6f}  (spread {report.spread_c2:.1e})")
print(f"  constants differ by {report.constants_gap:.3f} -> no counterexample arises here")
