# The closed-form reference family
# ================================
#
# f(z) = a0 + u z^n/(1 - z^n) with u = a0/|a0| is a Mobius transform of
# z^n.  Mobius maps send circles to circles, so the image of every
# sub-disk |z| <= r is an explicit round disk -- which pins down the
# minimum modulus, its location, and the log-derivative ratio there in
# closed form.  That is what makes the family the reference oracle for
# the numeric search machinery.

import numpy as np

from diskextrema import ExampleFamily

family = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
r = 0.7

center, radius = family.image_disk(r)
print(f"image of |z| <= {r}: disk centered {center:.6f}, radius {radius:.6f}")

# Every point of the boundary circle |z| = r lands exactly on the image
# circle; sample densely and measure the worst deviation.
deviation = np.abs(np.abs(family.on_circle(r, 4096) - center) - radius)
print(f"worst boundary deviation over 4096 samples: {deviation.max():.3e}")

# The minimum of |f| over the closed sub-disk, in closed form.
z0, lo = family.min_point(r)
print(f"\nminimizer z0 = {z0:.6f}, min |f| = {lo:.12f}")
print(f"sanity: |f(z0)| = {abs(family.value(z0)):.12f}")

# The chain quantities at the minimum: m (minus the log-derivative
# ratio), the squared-difference lower bound, and the curvature value.
chain = family.closed_chain(r)
print(f"\nm       = {chain.m:.12f}")
print(f"bound   = {chain.bound:.12f}   (strictly below m for this family)")
print(f"schwarz = {chain.schwarz:.12f} (strictly above -m)")

# jet gives f, f' and f'' at one point in one call.
fz0, d1, _ = family.jet(z0)
ratio = z0 * d1 / fz0
print(f"\nz0 f'(z0)/f(z0) = {ratio:.12f}  (real and equal to -m)")
