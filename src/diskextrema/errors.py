"""Exception hierarchy shared by all modules."""


class DiskExtremaError(Exception):
    """Base class for every package-specific error."""


class DomainError(DiskExtremaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SeriesFormatError(DiskExtremaError, ValueError):
    """A series literal file could not be parsed."""


class ConstantFunction(DiskExtremaError):
    """The function is numerically indistinguishable from its value at 0."""


class ZeroOnCircle(DiskExtremaError):
    """|f| dips below the zero threshold somewhere on the search circle."""


class ZeroInDisk(DiskExtremaError):
    """|f| dips below the zero threshold somewhere in the closed disk."""


class InteriorBelowBoundary(DiskExtremaError):
    """A boundary-ring or origin sample undercuts the located minimum.

    The supplied function is not analytic, or its curvature bound is wrong
    and the circle grid missed the minimum.
    """


class InteriorAboveBoundary(DiskExtremaError):
    """A boundary-ring or origin sample exceeds the located maximum.

    The supplied function is not analytic, or its curvature bound is wrong
    and the circle grid missed the peak.
    """


class ZeroDenominator(DiskExtremaError):
    """f(z0) is numerically zero; the log-derivative ratio is undefined."""


class DegenerateModuli(DiskExtremaError):
    """|f(z0)| equals |f(0)| within tolerance; the lower bounds are 0/0."""
