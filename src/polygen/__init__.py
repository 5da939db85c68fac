"""Exact construction and cross-checking of generating-function
polynomial families.

Everything is computed over the rationals with zero tolerance: series
coefficients come from truncated power-series algebra, closed forms
from explicit sums and recurrences, and the identities module compares
the two routes term by term.  The closedform and identities modules
load on first use, as ``polygen.closedform`` and
``polygen.identities``: a program which only builds series pays for
neither, and one which builds tables does not pay for the catalog.
"""

import importlib

from .errors import (DomainError, PolygenError, RangeError,
                     SingularityError, UsageError)
from .exact import (VARS, CPoly, MultiPoly, Rational, S, U, W, W_BAR, X, Y,
                    binom, falling)
from .series import (TruncSeries, cos_sin, default_order, exp, invert,
                     pow_int)
from . import genfun

__version__ = "0.1.0"

__all__ = [
    "PolygenError", "UsageError", "DomainError", "RangeError",
    "SingularityError",
    "MultiPoly", "CPoly", "Rational", "VARS", "X", "Y", "S", "U", "W",
    "W_BAR", "binom", "falling",
    "TruncSeries", "exp", "cos_sin", "invert", "pow_int", "default_order",
    "genfun", "closedform", "identities",
    "__version__",
]


def __getattr__(name: str) -> object:
    # importlib, not "from . import": the import statement asks this
    # hook first and would recurse
    if name in ("closedform", "identities"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
