# Checking the inequality chains at located extrema
# =================================================
#
# At a maximum of |f| over a closed sub-disk, z0 f'(z0)/f(z0) is a real
# number m bounded below by two explicit expressions in f(z0) and a0, and
# Re(z0 f''/f') + 1 >= m.  At a minimum of a zero-free f the mirrored
# chain holds with -m.  The checkers measure every link and report
# margins; m's imaginary part is reported as a residual rather than
# assumed away.

import numpy as np

from diskextrema import (
    ExampleFamily,
    PowerSeries,
    Reciprocal,
    SeriesFunction,
    check_max_lemma,
    check_min_theorem,
    find_max_on_disk,
    find_min_on_disk,
)
from diskextrema.lemma import format_doc

# --- minimum case on the reference family ---------------------------------
family = ExampleFamily(0.8, 2)
located = find_min_on_disk(family, 0.5)
report = check_min_theorem(family, 2, located.z0)
print("minimum-case report for the reference family:")
print(format_doc(report.to_dict()))

# --- the duality construction ----------------------------------------------
# The minimum chain for f is exactly the maximum chain for 1/f at the same
# point, with the same m.
g = Reciprocal(family)
dual = check_max_lemma(g, 2, find_max_on_disk(g, 0.5).z0)
print(f"m from the min chain:            {report.m:.15f}")
print(f"m from the max chain for 1/f:    {dual.m:.15f}")
print(f"curvature of 1/f minus 2m:       {dual.schwarz - 2 * report.m:.15f}")
print(f"curvature of f:                  {report.schwarz:.15f}")

# --- a0 = 0 collapses both bounds to n -------------------------------------
k = 3
power = SeriesFunction(PowerSeries(0.0, k, [1.0]))
jack = check_max_lemma(power, k, find_max_on_disk(power, 0.6).z0)
print(f"\nfor f(z) = z^{k}: m = {jack.m} (within 1 ulp of {k}), bounds = "
      f"({jack.bound_sq}, {jack.bound_abs})  -- bit-exactly {k}")
