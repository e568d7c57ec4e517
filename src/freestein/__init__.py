"""freestein: computational free probability and non-commutative Stein checks.

Subpackages by theme:

* :mod:`freestein.ncpart`     -- non-crossing partition lattice
* :mod:`freestein.momentalg`  -- moments, free cumulants, cumulant convolution
* :mod:`freestein.analytic`   -- Cauchy transforms, subordination, densities
* :mod:`freestein.stein`      -- Stein operator, semigroup, dual equation
* :mod:`freestein.ncsymb`     -- word algebra and matrix oracle
* :mod:`freestein.metrics`    -- Kolmogorov / TV / W1 distances on one grid
* :mod:`freestein.experiment` -- Berry-Esseen rate harness
* :mod:`freestein.cli`        -- the ``freestein`` command line
"""

__version__ = "0.1.0"

from .analytic import GridDensity, MeasureSpec
from .momentalg import FreeCumulantSequence, MomentSequence

__all__ = [
    "GridDensity",
    "MeasureSpec",
    "FreeCumulantSequence",
    "MomentSequence",
    "__version__",
]
