"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so
that batch drivers can branch on the type instead of parsing messages.
"""


class CritEdgeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CritEdgeError):
    """Eigenvalue/multiplicity arrays disagree, or multiplicities do not sum to n."""


class ZeroEigenvalue(CritEdgeError):
    """An operation requiring an invertible deformation met a zero eigenvalue."""


class DegenerateHessian(CritEdgeError):
    """Hessian has no positive eigenvalue; shape/scaling parameters undefined."""


class InvalidEta(CritEdgeError):
    """Spectral parameter eta must be strictly positive."""


class NoConvergence(CritEdgeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class SingularIterate(CritEdgeError):
    """A matrix iterate became singular during a full Dyson solve."""


class ConditionViolated(CritEdgeError):
    """A precondition failed: raised by every precondition check, from the
    flow builders' gate to the estimators and ``compare``, not only for the
    two-point trace map.  Carries the list of failures in ``failures``.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class ContractionFailed(CritEdgeError):
    """Implicit-function solve: the sampled contraction bound exceeded 1/2."""


class RadiusExceeded(CritEdgeError):
    """Implicit-function solve: requested input lies outside the certified radius."""


class MeshTooCoarse(CritEdgeError):
    """No mesh width in the calibration ladder yielded a contractive solve."""


class ChainExhausted(CritEdgeError):
    """Bisection ran out of depth before certificates covered the continuation."""


class ResidualExceeded(CritEdgeError):
    """A path violates its per-grid-point residual or norm invariants."""


class SizePreconditionFailed(CritEdgeError):
    """Partition matching size precondition violated; message names the inequality."""


class PairingInfeasible(CritEdgeError):
    """A finite-support pairing cannot be built at the current mesh width.

    Raised for a pairing with one empty side, outer classes too small to
    donate units toward the inner strips, no partition matching for the
    outer pairing, and matched centers outside the trace map's admissible
    region.
    """


class DeltaTvExceeded(CritEdgeError):
    """Endpoint spectra are farther apart than the allowed perturbation budget."""


class NoValidConstant(CritEdgeError):
    """No dyadic half-plane mass constant satisfies the two-sided count bound."""


class NotReal(CritEdgeError):
    """Hermitian-only flow called on a spectrum with non-real eigenvalues."""


class UnknownModel(CritEdgeError):
    """Requested matrix ensemble name is not recognised."""


class QuadratureUnstable(CritEdgeError):
    """Quadrature nodes could not be separated from log singularities."""


class ConfigError(CritEdgeError):
    """Run configuration is malformed (unknown keys, bad types, bad values)."""
