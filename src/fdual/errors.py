"""Semantic exception hierarchy shared by all fdual modules."""


class FdualError(Exception):
    """Base class for every error raised by this package."""


class ZeroMassBin(FdualError):
    """An induced measure has a bin with zero (or negative) mass."""


class IncompatibleQuantizer(FdualError):
    """Quantizer kind does not match the source kind."""


class InfiniteValue(FdualError):
    """A divergence generator evaluated to +inf where a finite value is required."""


class GridTooNarrow(FdualError):
    """The maximizer of a numeric conjugate lies on the search-grid boundary."""


class NoFixedPoint(FdualError):
    """Psi(beta) - beta has no sign change: the divergence is not loss-realizable."""


class UnconfirmedBound(FdualError):
    """Psi does not confirm the estimate of its domain bound beta2."""


class UnrealizableDivergence(FdualError):
    """The generator fails the decreasing/involution/fixed-point conditions."""


class BadLink(FdualError):
    """Link function violates its contract (anchor, monotonicity or convexity)."""


class NotConvex(FdualError):
    """Operation requires a convex loss but the loss is not flagged convex."""


class Unbounded(FdualError):
    """A 1-D infimum diverges to -inf."""


class NanObjective(FdualError):
    """A per-element minimization met a NaN objective value."""


class InfiniteObjective(FdualError):
    """A per-element minimization returned +inf: no finite value was met."""


class InfiniteRisk(FdualError):
    """A risk sum contains a +inf term."""


class MismatchedPair(FdualError):
    """Loss and generator do not correspond (forward-map precheck failed)."""


class DegenerateFit(FdualError):
    """Affine-fit normal equations are singular (reference generator is affine)."""


class NonConvexLoss(FdualError):
    """ERM requires a convex calibrated loss."""


class NotVariationalFamily(FdualError):
    """Loss does not induce a generator of the -c*min(u,1)+a*u+b family."""


class EmptySample(FdualError):
    """Sample generation asked for zero draws."""


class NoWitnessFound(FdualError):
    """Grid search found no source separating the two divergence objectives."""


class ConfigError(FdualError):
    """Run configuration is malformed (unknown key, bad value, unknown name)."""
