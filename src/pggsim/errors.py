"""Exception types shared across the package."""


class NoGameError(RuntimeError):
    """Raised when a round has no participants, so no game takes place.

    Distinct from a zero payoff: a played game can also pay 0.
    """


class NoEventError(RuntimeError):
    """Raised when event selection is asked to pick from all-zero propensities."""


class IntegrationError(RuntimeError):
    """Raised when a trajectory escapes the simplex beyond tolerance."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConfigError(ValueError):
    """Raised for config-file parse failures or invalid parameter values."""
