"""Exception types shared across the package."""


class ContilabError(Exception):
    """Base class for package-specific failures."""


class ConfigurationError(ContilabError):
    """Raised for invalid experiment configs or incompatible env/agent pairings."""


class NumericError(ContilabError):
    """Raised when a computation produces non-finite or indefinite results."""


class DegenerateMdpError(ContilabError):
    """Raised when the goal state carries no stationary mass under the greedy policy,
    or when policy iteration for the greedy policy does not settle."""
