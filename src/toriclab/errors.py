"""Exception hierarchy shared by all toriclab modules."""


class ToricLabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToricLabError):
    """A document does not conform to its grammar."""


class ValidationError(ToricLabError):
    """A parsed object violates a structural invariant."""


class NotUnimodular(ValidationError):
    """Some maximal cone of a fan has ray determinant other than +-1;
    ``violations`` holds each such (cone, determinant)."""

    def __init__(self, violations):
        super().__init__("fan is not unimodular: " + ", ".join(
            f"cone {cone} has determinant {det}" for cone, det in violations))
        self.violations = violations


class InternalError(ToricLabError):
    """An impossible state was reached; indicates corrupt input or a bug."""


class IncompleteFan(ToricLabError):
    """A fan failed a completeness test.  ``Fan3.certificate`` runs them
    before any wall is read, so every fan analysis refuses a non-fan."""


class NotFound(ToricLabError):
    """A required object (e.g. a positive-curvature wall) does not exist."""


class SupportInvalid(ToricLabError):
    """Support parameters do not define a polytope with the given normal fan."""


class NoWitness(ToricLabError):
    """Strict convexity of the effective cone could not be certified.

    The library returns it, as a plain value carrying the refutation, and
    no longer raises it: ``farkas`` holds convex coefficients combining
    the wall classes to zero, ``failing`` the walls a candidate paired
    non-positively with.
    """

    def __init__(self, message, *, farkas=None, failing=None):
        super().__init__(message)
        self.farkas = farkas
        self.failing = failing


class CertificationFailure(ToricLabError):
    """A certified pipeline produced an output contradicting its own check."""
