"""Exception hierarchy for the jcm4 package.

Every validation failure raises a subclass of :class:`JcmError`, so callers
(and the CLI) can catch one base class and map it to exit code 2.
"""


class JcmError(Exception):
    """Base class for all jcm4 validation errors."""


class NonPositiveTolerance(JcmError):
    """A tolerance argument was zero or negative."""


class TailTooHeavy(JcmError):
    """The Fock cutoff leaves more probability mass above it than allowed."""

    def __init__(self, tail_mass: float, cutoff: int, tail_tol: float):
        self.tail_mass = tail_mass
        self.cutoff = cutoff
        self.tail_tol = tail_tol
        super().__init__(
            f"tail mass {tail_mass:.3e} above cutoff {cutoff} exceeds "
            f"tolerance {tail_tol:.3e}; increase the cutoff"
        )


class NonFiniteValue(JcmError):
    """A NaN or infinite number where a finite one is required."""


class CutoffMismatch(JcmError):
    """Two states with different Fock cutoffs were combined."""


class QuadraticRequiresK4(JcmError):
    """The quadratic Rabi-frequency approximation is derived for k=4 only."""


class TargetsRequireK4(JcmError):
    """The Kerr and Kerr-cat target states and the dip offsets are derived
    for k=4 only."""


class NegligibleBranch(JcmError):
    """Post-selection on an atomic outcome with vanishing probability."""


class EvenR(JcmError):
    """Dip offsets are defined for odd r only."""


class DegenerateWindow(JcmError):
    """A phase-space window with non-ordered bounds or too few points."""


class EmptyGrid(JcmError):
    """A phase-space grid with no positive values to threshold."""


class ParseError(JcmError):
    """A malformed symbolic time expression."""
