"""Exception types of the CLI's clean exits: a trajectory that leaves the simplex, a bad config."""


class IntegrationError(RuntimeError):
    """Raised when a trajectory escapes the simplex beyond tolerance."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConfigError(ValueError):
    """Raised for config-file parse failures or invalid parameter values."""
