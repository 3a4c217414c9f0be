"""Error taxonomy shared by all dilatorus modules.

Every failure mode that callers are expected to branch on gets its own
exception class; anything else surfaces as ValueError from validation.
"""

from __future__ import annotations


class DilatorusError(Exception):
    """Base class for all domain errors raised by this package."""


# --- room construction ---

class NonOrientedBasis(DilatorusError):
    """Basis determinant is zero or negative."""


class OutsideQ(DilatorusError):
    """Log-dilation parameters lie in the excluded open negative quadrant."""


class DegenerateDoor(DilatorusError):
    """Both parameters vanish, collapsing the door segment to a point."""


class NonSimplePentagon(DilatorusError):
    """The five model vertices fail to bound a simple pentagon."""


# --- twist moves and words ---

class InadmissibleAtStep(DilatorusError):
    """A word prefix left the positive parameter quadrant.

    The offending 0-based step index is stored in `step`.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"word leaves the positive quadrant at step {step}")


class RationalRatio(DilatorusError):
    """Parameter contraction hit a rationally dependent pair and cannot continue."""


class OrientationLostToRounding(DilatorusError):
    """A word's float basis came out with a nonpositive determinant.

    Every move multiplies the true determinant by a positive dilation
    factor, so only rounding of the ever larger basis entries can flip it.
    """


class BudgetExhausted(DilatorusError):
    """An iteration or search budget ran out before the goal was reached.

    `partial` optionally carries whatever was computed before the cutoff.
    """

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


# --- interval maps ---

class AtDiscontinuity(DilatorusError):
    """Evaluation requested exactly at the discontinuity point."""


class NotInHole(DilatorusError):
    """The discontinuity is not inside the image gap, so no trapped cycle exists."""


class NotReducible(DilatorusError):
    """Map cannot be normalized to the two-slope form by restriction."""


# --- renormalization ---

class NotRenormalizable(DilatorusError):
    """Induction step requested on a map whose verdict is Halt or Boundary."""


# --- surface dynamics ---

class NotTransverse(DilatorusError):
    """Direction is parallel (within tolerance) to the chosen cross-section."""


class VertexHit(DilatorusError):
    """Trajectory met a vertex of the pentagon (a singular leaf).

    `trace` optionally carries the partial trace up to the hit.
    """

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


class NonConvergence(DilatorusError):
    """Estimator failed to converge within its cap.

    `bracket` carries the best (lower, upper) enclosure found.
    """

    def __init__(self, message: str, bracket=None):
        self.bracket = bracket
        super().__init__(message)
