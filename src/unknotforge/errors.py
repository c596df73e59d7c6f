"""Exception types shared across the package."""


class ShadowError(Exception):
    """Base class for all structural errors raised by this package."""


class NotInvolution(ShadowError):
    """The twin table is not a fixed-point-free involution on the darts."""


class NonPlanar(ShadowError):
    """The rotation system does not describe a sphere embedding."""


class NotAKnotShadow(ShadowError):
    """A knot shadow was required but the input has the wrong curve structure."""


class MissingOuterFace(ShadowError):
    """An operation needing an outer face designation got a shadow without one."""


class NonOuterEdge(ShadowError):
    """Connected sum requires splice edges on the outer faces."""


class LimitExceeded(ShadowError):
    """An enumeration bound (census or bracket limit) was exceeded."""


class CodecSyntaxError(ShadowError):
    """Malformed input text.  Carries a line and column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnrealizableCode(ShadowError):
    """A Gauss code that admits no planar realization with the given signs."""


class UnsupportedConversion(ShadowError):
    """The requested emit format cannot represent the given object."""


class CycleNotStraightAhead(ShadowError):
    """The cycle handed to quotient is not straight-ahead in the shadow."""


class CyclesNotDistinct(ShadowError):
    """Overlay construction needs two distinct cycles."""


class MalformedRoots(ShadowError):
    """The two cycles fit neither the shared-root nor the disjoint-root overlay form."""


class PreconditionViolated(ShadowError):
    """A documented operation precondition does not hold."""


class NoAvoidingDigon(ShadowError):
    """No mark-avoiding digon exists.  This contradicts a proved guarantee."""


class NotADigon(ShadowError):
    """The pair of edges handed to split_digon is not a digon of the overlay."""


class SideIrrelevantForSingletonCycle(ShadowError):
    """Lifting over a one-vertex cycle has no over/under choice, only the root bit."""


class InternalInvariantViolation(ShadowError):
    """A structural guarantee that should always hold was refuted at runtime."""
