"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad schema, out-of-range parameter, inconsistent shapes."""


class NumericalError(RuntimeError):
    """A numerical failure while integrating chains.

    Attributes
    ----------
    step : int or None
        Index of the step at which the failure appeared.
    t : float or None
        Time of the failure: of the non-finite state, or of the drift evaluation.
    chains : list[int] or None
        Indices of the chains that failed (global ids in ensemble runs).
    """

    def __init__(self, message, step=None, t=None, chains=None):
        super().__init__(message)
        self.step = step
        self.t = t
        self.chains = chains


class DivergenceError(NumericalError):
    """A chain produced a non-finite state."""


class ZeroMassError(NumericalError):
    """All Monte Carlo weights underflowed to zero mass in a drift evaluation."""


class GradientUnavailable(RuntimeError):
    """The target does not provide an analytic gradient."""
