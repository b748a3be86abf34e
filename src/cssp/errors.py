"""Exception types shared across the package."""


class CsspError(Exception):
    """Base class for all package errors."""


class DegenerateDirection(CsspError):
    """The candidate vector lies (numerically) inside the selected span."""


class NoConvergence(CsspError):
    """An iterative eigenvalue sweep failed to converge."""


class ZeroPolynomial(CsspError):
    """Root operations on the identically-zero polynomial."""


class NoRootInRange(CsspError):
    """The search interval contains no root of the requested kind."""


class RankExceeded(CsspError):
    """Requested subset size exceeds the numerical rank of the matrix."""


class AllCandidatesDegenerate(CsspError):
    """No admissible column remains before the subset is complete."""


class CertificateViolation(CsspError):
    """A computed root or residual failed its runtime certificate."""


class EmptySpectrum(CsspError):
    """A spectrum summary was requested for an empty eigenvalue list."""


class NonPositiveEigenvalue(CsspError):
    """Spectrum summaries require strictly positive eigenvalues."""


class OutOfRegime(CsspError):
    """The subset size is outside the range where the formula is valid."""


class TooManySubsets(CsspError):
    """Exhaustive enumeration would exceed the subset cap."""


class NotFullColumnRank(CsspError):
    """The operation requires a matrix of full column rank."""


class ParseError(CsspError):
    """Malformed matrix file.  Carries the offending line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column})" if column is not None else ")")
        super().__init__(message + where)


class DimensionMismatch(CsspError):
    """File contents disagree with the declared dimensions."""
