"""Exception types shared across the package."""


class RtdLabError(Exception):
    """Base class for all package-specific errors."""


class NotUnichain(RtdLabError):
    """The eigenvalue 1 of the transition matrix is not simple."""


class SingularSystem(RtdLabError):
    """A fundamental-matrix or Poisson linear system is numerically singular."""


class SingularResolvent(RtdLabError):
    """(I - beta*P) is too ill-conditioned to invert reliably."""


class NotSimple(RtdLabError):
    """The tracked eigenvalue is not numerically simple."""


class NonZeroMean(RtdLabError):
    """A noise sequence expected to be centered has a nonzero stationary mean."""


class NumericalDivergence(RtdLabError):
    """Iterate norm exceeded the divergence threshold during a run."""


class MissingSplitSample(RtdLabError):
    """Split-sampling evaluation requested but no independent action sample given."""


class ConfigError(RtdLabError):
    """Invalid or inconsistent learner/experiment configuration."""
