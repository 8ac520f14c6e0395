"""Regularized Coulomb-type potential family: evaluation, recursions,
polynomial representations, inequality suites, and exact positivity
certificates."""

from .core import (DEFAULT_TOL, EvalParams, EvalResult, eval_asymptotic,
                   eval_closed_form_inv_p, eval_fourier_transform, eval_vm0,
                   eval_vmp, vmp)
from .errors import (AsymptoticRegimeError, BracketError, ChainMismatchError,
                     ConvergenceError, DomainError, RegpotError,
                     SeriesBudgetError)
from .ratpoly import RatPoly

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_TOL", "EvalParams", "EvalResult", "RatPoly",
    "eval_asymptotic", "eval_closed_form_inv_p", "eval_fourier_transform",
    "eval_vm0", "eval_vmp", "vmp",
    "RegpotError", "DomainError", "ConvergenceError", "AsymptoticRegimeError",
    "SeriesBudgetError", "BracketError", "ChainMismatchError",
    "__version__",
]
