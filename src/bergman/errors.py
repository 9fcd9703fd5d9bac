"""Exception types shared across the package."""


class BergmanError(Exception):
    """Base class for all library-specific errors."""


class CenterMismatch(BergmanError):
    """Jet operands expand around different points or to different orders."""


class DivisionByZeroJet(BergmanError):
    """Jet division by a jet whose constant term is (numerically) zero."""


class BranchPointJet(BergmanError):
    """Real power of a jet whose constant term sits on the branch point."""


class OrderExceeded(BergmanError):
    """A derivative of higher order than the jet stores was requested."""


class SchemaError(BergmanError):
    """Structurally invalid domain description; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DimensionMismatch(BergmanError):
    """Point dimension does not match the domain (or its partner point)."""


class UnsupportedDomain(BergmanError):
    """The requested quantity has no closed form for this block structure."""


class OutsideDomain(BergmanError):
    """Evaluation point does not satisfy the domain inequality."""


class InvalidOrder(BergmanError):
    """Block dimensions passed to a derivative-based kernel formula are invalid."""


class NonIntegerFold(BergmanError):
    """Folding exponent must be a positive integer."""


class PoleHit(BergmanError):
    """Closed-form denominator vanished at the requested point."""


class NoConvergence(BergmanError):
    """An iteration (series, Newton, winding sum) failed to reach its tolerance."""


class PreconditionViolated(BergmanError):
    """A certification routine was called outside its region of validity."""
