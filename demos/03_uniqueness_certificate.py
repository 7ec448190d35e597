"""Certify equality of Blaschke-product moduli from finitely many points.

For products of degrees M and N, agreement of |B1| and |B2| at more than
2M + 2N - 1 distinct points of one interior centred circle already forces
agreement on the whole circle (and hence B2 = c B1): the squared moduli
extend to rational functions whose cross-multiplied difference is a
polynomial of degree at most 2M + 2N - 1, because the top coefficients
cancel.

The script walks through both sides of the criterion: a rotated copy is
certified from exactly 2M + 2N points, while genuinely different products
are correctly left uncertified, including with the agreement count the
polynomial predicts.
"""

import numpy as np

from discphase import (
    AllOfCircle,
    BlaschkeProduct,
    certify_finite_points,
    equality_points_on_circle,
    modulus_equation,
)

r = 0.5
b1 = BlaschkeProduct(1.0, (0.3, -0.4j))
b2 = b1.with_constant(np.exp(2j))  # same function up to a unimodular constant
bound = 2 * b1.degree + 2 * b2.degree - 1
k = bound + 1

print(f"degrees M = {b1.degree}, N = {b2.degree} -> agreement bound 2M+2N-1 = {bound}")
pts = r * np.exp(2j * np.pi * np.arange(k) / k)
cert = certify_finite_points(b1, b2, pts)
print(f"\nrotated copy, {k} circle points:")
print(f"  agreeing points      : {cert.agreeing_count} > {cert.bound}")
print(f"  difference polynomial: identically zero = {cert.equation_identically_zero}"
      f" (max coeff {cert.equation_max_coeff:.1e} vs scale {cert.equation_scale:.1e})")
print(f"  verdict              : {cert.verdict}")

b3 = BlaschkeProduct(1.0, (0.5, -0.4j))
cert3 = certify_finite_points(b1, b3, r * np.exp(2j * np.pi * np.arange(64) / 64))
print(f"\ndistinct product (zero 0.3 moved to 0.5), 64 circle points:")
print(f"  agreeing points      : {cert3.agreeing_count} (bound {cert3.bound})")
print(f"  verdict              : {cert3.verdict}")

d = modulus_equation(b1, b3, r).poly
print(f"\nthe difference polynomial has degree {d.degree} <= {bound}, so |B1| = |B3|")
print("at no more than that many circle points; the actual equality points are:")
try:
    points = sorted(set(equality_points_on_circle(b1, b3, r)), key=np.angle)
    for w in points:
        gap = abs(abs(b1(w)) - abs(b3(w)))
        print(f"  z = {w:.6f}   | |B1|-|B3| | = {gap:.1e}")
    print(f"  ({len(points)} points; no sample budget can beat the bound)")
except AllOfCircle:
    print("  (moduli agree on the whole circle)")
