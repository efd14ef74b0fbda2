"""Exception types shared across the package.

Every exception message states the violated precondition in full; the CLI
prints the message verbatim and maps the class to an exit code (config
problems exit 2, numeric failures exit 3, a missing applicable bound exits 4).
"""

__all__ = [
    "LevyTailError",
    "ConfigError",
    "NumericError",
    "NonIntegrableTail",
    "InvalidCutoff",
    "QuadratureFailure",
    "UndeclaredVariation",
    "AlphaOutOfRange",
    "DegenerateSigma",
    "MissingGlobalM",
    "WrongVariation",
    "NotSymmetric",
    "MissingLipschitzCert",
    "CertTooWeak",
    "WindowViolated",
    "LambdaOutOfRange",
    "NoApplicableBound",
    "UnsupportedJumpLaw",
    "SchemeInfeasible",
    "TruthUnavailable",
    "TooFewPoints",
]


class LevyTailError(Exception):
    """Base class for all package errors."""


class ConfigError(LevyTailError):
    """A precondition on user-supplied configuration was violated (exit 2)."""


class NumericError(LevyTailError):
    """A numeric routine could not certify its result (exit 3)."""


class NonIntegrableTail(NumericError):
    """The density's tail exceeds its declared envelope or does not converge."""


class InvalidCutoff(ConfigError):
    """A cutoff or level argument is outside its admissible range."""


class QuadratureFailure(NumericError):
    """Adaptive quadrature did not reach the configured tolerance."""


class UndeclaredVariation(ConfigError):
    """The model does not declare finite or infinite variation."""


class AlphaOutOfRange(ConfigError):
    """The class exponent alpha is outside the range a routine requires."""


class DegenerateSigma(NumericError):
    """sigma2 is zero where a positive small-jump variance is required."""


class MissingGlobalM(ConfigError):
    """The model declares no global sup bound on the density."""


class WrongVariation(ConfigError):
    """The requested bound applies to the other variation regime."""


class NotSymmetric(ConfigError):
    """The requested bound requires a symmetric jump density."""


class MissingLipschitzCert(ConfigError):
    """No Lipschitz certificate covers the required window."""


class CertTooWeak(ConfigError):
    """The Lipschitz certificate's constant exceeds what the bound allows."""


class WindowViolated(ConfigError):
    """The stable-type bound's window in t * lambda_eps is unusable."""


class LambdaOutOfRange(ConfigError):
    """A Poisson intensity argument is outside the stated range."""


class NoApplicableBound(LevyTailError):
    """No theorem bound is valid for the given model, eps and t (exit 4)."""


class UnsupportedJumpLaw(ConfigError):
    """The jump law does not support exact n-fold tail computation."""


class SchemeInfeasible(ConfigError):
    """No small-jump cutoff meets the requested bias budget."""


class TruthUnavailable(ConfigError):
    """No closed-form tail is available for the requested model."""


class TooFewPoints(NumericError):
    """Fewer than three usable points remain for the rate fit."""
