"""Exception types shared across the package.

Errors in the input derive from ValueError so that sloppy call sites
which only catch the builtin still behave sensibly.  NonConvergence and
PostconditionFailed report a computation that failed on valid input.
"""


class NotFundamental(ValueError):
    """-D is not a fundamental discriminant of an imaginary quadratic field."""


class NotInvertible(ValueError):
    """Requested a modular inverse of a non-unit."""


class InvalidHint(ValueError):
    """The prime hint passed to a refined Weil bound does not apply."""


class UnsupportedCase(ValueError):
    """(m, N) outside the supported trace-formula cases (1, p**2), (1, p), (p, p)."""


class NotPrime(ValueError):
    """An argument that must be prime is not."""


class DividesDiscriminant(ValueError):
    """The level prime divides the character conductor."""


class DomainError(ValueError):
    """Numeric argument outside the domain of the function."""


class NonConvergence(RuntimeError):
    """Iteration failed to converge (degenerate input)."""


class UnsupportedPrime(ValueError):
    """Component-group machinery needs p = 11 or p > 13."""


class PostconditionFailed(ArithmeticError):
    """A computed result failed one of its own consistency checks."""


class UnsupportedRamification(ValueError):
    """The tabulated reduction values only cover ramification index e in {1, 2}."""
