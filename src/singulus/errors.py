"""Exception types shared across the package."""


class PolynomialSyntaxError(ValueError):
    """Raised by the polynomial parser; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NonHomogeneousError(ValueError):
    """Input polynomial is not homogeneous where homogeneity is required."""


class BadPrimeError(ArithmeticError):
    """A denominator shares a factor with the working modulus, or an
    invariant check shows that the working primes agreed on a wrong rank.

    ``prime`` names the factor of the modulus to blame, when there is one.
    """

    def __init__(self, message: str, prime=None):
        super().__init__(message)
        self.prime = prime


class ConeError(ValueError):
    """The partial derivatives are linearly dependent over the constants.

    The minimal resolution then has a smaller first syzygy module than the
    fixed shape assumed here, so the computation is refused.
    """


class IncompleteTableError(RuntimeError):
    """Nonzero Betti numbers hit the degree bound; raise the bound and retry."""

    def __init__(self, message: str, boundary=None):
        super().__init__(message)
        self.boundary = dict(boundary or {})


class WindowTooSmallError(RuntimeError):
    """The Hilbert function did not stabilize inside the degree window."""

    def __init__(self, message: str, tail=None):
        super().__init__(message)
        self.tail = list(tail or [])


class DocumentError(ValueError):
    """A structured input document failed validation; names the bad field."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
