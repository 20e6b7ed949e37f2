"""Numerical verification of modulus-extremum inequality chains on the unit disk.

The package locates the extrema of |f| on circles and closed sub-disks of
the unit disk, evaluates the log-derivative ratio ``z0 f'(z0)/f(z0)`` and
the curvature quantity ``Re(z0 f''(z0)/f'(z0)) + 1`` at the located
points, and checks the inequality chains these quantities satisfy at true
extrema -- in the maximum case for any non-constant analytic f, and in
the minimum case for zero-free f via the reciprocal duality ``g = 1/f``.
"""

import types

from .errors import (
    ConstantFunction,
    DegenerateModuli,
    DiskExtremaError,
    DomainError,
    InteriorAboveBoundary,
    InteriorBelowBoundary,
    SeriesFormatError,
    ZeroDenominator,
    ZeroInDisk,
    ZeroOnCircle,
)
from .extremum import (
    DEFAULT_GRID,
    ExtremumResult,
    find_max_on_disk,
    find_min_on_disk,
    modulus_profile,
    write_profile_csv,
)
from .functions import (
    AnalyticFunction,
    ChainValues,
    DiskImage,
    ExampleFamily,
    ExpSeriesFunction,
    MinPoint,
    Reciprocal,
    SeriesFunction,
)
from .lemma import (
    DEFAULT_TOL,
    LemmaReport,
    LinkCheck,
    check_max_lemma,
    check_min_theorem,
    mocanu_bounds,
)
from .series import (
    PowerSeries,
    exp_series,
    invert_series,
    parse_series,
    read_series,
    write_series,
)
from .sweep import SweepSummary, TrialFunction, TrialOutcome, draw_trial, run_sweep, run_trial

__version__ = "0.1.0"

#: Every public name above; the submodules themselves are not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
