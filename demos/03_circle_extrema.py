# Locating modulus extrema on closed disks
# ========================================
#
# The extrema of |f| over |z| <= r sit on the boundary circle, the
# minimum once f.count_zeros, asked about the samples of the search's
# grid, finds no zeros inside (none by construction for this family).
# The search there is a certified angular grid followed by a polish of
# the sign change of d/dtheta log|f| = -Im(z f'/f) over the two grid
# steps around each candidate, which pins the extremal angle far below
# the sqrt(eps) noise floor that value-only comparisons hit.  Its result
# is checked against the origin and a 256-point boundary ring, which the
# default grid already holds.  The function
# bounds the curvature K of log|f| on the circle, so between grid nodes
# delta apart log|f| can dip at most slack = K delta^2/8 below the lower
# node.  The grid starts at 256 points and doubles while that slack is
# large against the spread of log|f| on it; every grid-local minimum
# within the slack of the winner is a candidate, and the slack is
# reported as certified_gap.  f depends on z^2 only, so the minimizer
# 3 pi/2 is the rotated copy of pi/2 and is not polished again.  The
# polish is Illinois regula falsi: secant steps on the bracket, with each
# point clamped 5e-14 inside it.  Here pi/2 is a grid point, the first
# secant point is the root and the clamped second point closes the
# bracket: 2 steps, where bisection took 35.
# When |f| is flat to rounding across grid points, the rounded grid can
# pick a neighbour of the true extremum; the bracket then walks one grid
# step at a time the way the derivative's sign points until it holds a
# sign change (at most half the grid).
#
# The grid itself is one call of f.on_circle.  For a series-backed f,
# the samples r e^{2 pi i k/M} turn the tail sum a_k r^k z^k into a
# discrete Fourier sum in which only the N + 1 lowest of M bins can be
# nonzero.  So M/L twiddled inverse FFTs of length L (M halved while it
# is even and the half still holds every coefficient) of the
# coefficients scaled by r^k give all M values; coefficients past index
# M fold into bin k mod M, exactly, since e^{2 pi i jk/M} repeats with
# period M in k.
# The closed-form family below uses the default, which evaluates
# f.value at the grid points.  The refinement evaluates single points:
# each step reads f and f' from one f.jet call, which a series runs in
# Python complex arithmetic.

import io

import numpy as np

from diskextrema import (
    ExampleFamily,
    Reciprocal,
    find_max_on_disk,
    find_min_on_disk,
    modulus_profile,
    write_profile_csv,
)

family = ExampleFamily(0.8, 2)
r = 0.5

result = find_min_on_disk(family, r)
print(f"min |f| on |z| <= {r}: {result.value:.15f} at theta = {result.theta:.15f}")
print(f"  grid {result.grid_size}, {result.refine_iterations} refinement steps, "
      f"final bracket {result.bracket_width:.2e}, certified gap {result.certified_gap:.2e}")
print(f"  closed form says 0.6 at theta = pi/2 = {np.pi / 2:.15f}")

# How extremal is the located point?  The log-derivative ratio there
# should be real; its imaginary part measures the angular error.
fz0, d1, _ = family.jet(result.z0)
ratio = result.z0 * d1 / fz0
print(f"  Im(z0 f'/f) at the minimizer: {ratio.imag:.2e}")

# Reciprocal duality: the maximum of |1/f| sits at the same angle and its
# value is exactly the reciprocal.
recip = find_max_on_disk(Reciprocal(family), r)
print(f"\nmax |1/f| = {recip.value:.15f}; product with min |f|: "
      f"{recip.value * result.value:.15f}")

# Landscapes export as theta,modulus CSV for downstream plotting.
profile = modulus_profile(family, r, samples=8)
print("\ncoarse landscape (8 samples):")
buf = io.StringIO()
write_profile_csv(profile, buf)
print(buf.getvalue())
