"""Special-function kernel and inequality certification toolkit.

The package evaluates the log-gamma/digamma/polygamma family with its own
Stirling-series kernel, exposes the two-parameter function family

    h_{alpha,y}(x) = [Gamma(x+y+1)/Gamma(y+1)]^(1/x) / (x+y+1)^alpha

together with closed-form derivatives of ln h, and certifies sign conditions,
inequality windows, and classification scans over (alpha, y) with explicit
noise-aware verdicts.  The ``gammacert`` console script drives the suites.

Each module's ``__all__`` is its public API; the package re-exports all of
them and declares no name of its own but ``__version__``.
"""

from . import ballvol, certify, errors, gammakit, hfamily, ineq, means, report
from .ballvol import *
from .certify import *
from .errors import *
from .gammakit import *
from .hfamily import *
from .ineq import *
from .means import *
from .report import *

__version__ = "0.1.0"

__all__ = ["__version__", *ballvol.__all__, *certify.__all__, *errors.__all__,
           *gammakit.__all__, *hfamily.__all__, *ineq.__all__, *means.__all__,
           *report.__all__]
