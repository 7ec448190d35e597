"""Exception types shared across the package.

Every failure a caller may want to catch selectively gets its own class;
purely internal contract violations raise ``RuntimeError``.  Errors raised
inside the retrieval pipeline carry a ``stage`` attribute naming the
pipeline stage that failed.
"""

from __future__ import annotations


class DiscPhaseError(Exception):
    """Base class for all errors raised by this package."""

    #: set by pipeline code to tag the failing stage; None outside pipelines
    stage: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage:
            return f"[stage: {self.stage}] {base}"
        return base


class PoleAtInput(DiscPhaseError):
    """A Moebius map was evaluated at (or too close to) its pole."""


class CircleNotInsideDisc(DiscPhaseError):
    """A circle required to lie strictly inside the unit disc does not."""


class IdenticalCircles(DiscPhaseError):
    """Two-circle classification received indistinguishable circles."""


class EvaluationAtPole(DiscPhaseError):
    """A function was evaluated at (or too close to) one of its poles."""


class DegenerateAlignment(DiscPhaseError):
    """Unimodular alignment is undefined: the sample correlation vanishes."""


class NonConvergence(DiscPhaseError):
    """Iterative root finding failed to reach the residual target."""


class AllOfCircle(DiscPhaseError):
    """Signal: the two modulus functions agree on the whole circle.

    Raised by :func:`discphase.rational.equality_points_on_circle` when the
    difference polynomial is identically zero, i.e. there is no finite
    equality set to report.  This is a signal, not a failure.
    """


class EvaluationTooCloseToBoundary(DiscPhaseError):
    """Outer-function evaluation requested beyond the trusted radius."""


class ZeroOnBoundary(DiscPhaseError):
    """Boundary modulus data contains values too close to zero."""


class ZeroOnCircle(DiscPhaseError):
    """Sampled moduli vanish on the sampling circle; divide the zeros out first."""


class ResidualTooLarge(DiscPhaseError):
    """Data is inconsistent with the assumed rational-inner model."""


class PoleAmbiguity(DiscPhaseError):
    """A fitted pole landed in the separation dead band; sorting is unsafe."""


class DegreeCapExceeded(DiscPhaseError):
    """No degree up to the configured cap explains the data."""


class PointsNotOnCommonCircle(DiscPhaseError):
    """Certification points do not lie on a single centred circle."""


class ModulusMismatchOnCircle(DiscPhaseError):
    """The two functions do not share a modulus on the required circle."""


class UEqualsV(DiscPhaseError):
    """The two inner seeds coincide up to a unimodular constant."""
