"""Exception types shared across the package."""


class RegpotError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RegpotError, ValueError):
    """Arguments outside the mathematical domain of the operation."""


class ConvergenceError(RegpotError):
    """No double-precision value to the requested tolerance: the tolerance is
    out of the quadrature's reach, the value overflows a double, or x^p
    underflows to 0 where the integral diverges."""


class AsymptoticRegimeError(RegpotError):
    """Asymptotic series requested where it cannot help (first correction
    already exceeds the leading term)."""


class SeriesBudgetError(RegpotError):
    """Series summation did not converge within its term budget."""


class BracketError(RegpotError):
    """Expected sign change absent on a root bracket."""


class ChainMismatchError(RegpotError):
    """A reconstructed certification polynomial differs from its reference."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"chain polynomial {name!r} does not match its reference"
                         + (f": {detail}" if detail else ""))
