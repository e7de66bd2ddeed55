"""Exception types shared across the toolkit."""


class AdhmKitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(AdhmKitError):
    """Operands live on blow-ups with different numbers of points, or shapes clash."""


class InfeasibleParametersError(AdhmKitError):
    """Requested (r, a, k) would force a space of negative dimension."""


class FramingViolationError(AdhmKitError):
    """The assembled block matrix is singular, so no framing exists."""


class NonGenericStratumError(AdhmKitError):
    """A gauge normalisation step needs an invertible block that is singular here."""


class MalformedSectionError(AdhmKitError):
    """A section violates the vanishing-order constraint of its twist."""


class AmbiguousPointError(AdhmKitError):
    """A blown-up point was passed to the generic chart evaluator."""


class MonadDegeneracyError(AdhmKitError):
    """The second monad map fails to be surjective at a point."""


class NotInPError(AdhmKitError):
    """The first monad map drops rank along a curve, not just at points."""


class SamplingFailureError(AdhmKitError):
    """The configuration sampler exhausted its retry budget.

    ``rejections`` counts the rejected draws by reason, and the message ends
    with those counts.
    """

    def __init__(self, message: str, rejections: dict[str, int]):
        self.rejections = dict(rejections)
        counts = ", ".join(f"{reason}: {n}" for reason, n in self.rejections.items())
        super().__init__(f"{message}; rejected draws by reason: {counts}")


class InternalConsistencyError(AdhmKitError):
    """Two independent routes to the same value disagreed; this is a bug."""


class ConfigFormatError(AdhmKitError):
    """A configuration file does not match the expected JSON schema."""
