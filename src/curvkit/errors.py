"""Exception types shared across the toolkit."""


class CurvError(Exception):
    """Base class for every error raised by this package.

    `item` is set when the error comes from a computation over a stack of
    items on leading array axes: the flat index of the first item that
    failed.  It is None otherwise."""

    item: int | None = None

    def at(self, item: int) -> "CurvError":
        """Set `item` and return the error, to raise in one expression: an
        error kept in a local variable of the frame that raises it forms a
        reference cycle with that frame through its traceback, which keeps
        the frame's arrays alive until the garbage collector runs."""
        self.item = item
        return self


class ParseError(CurvError):
    """Malformed expression text.  `offset` is the byte offset of the
    failure, None for a coordinate name, which is not part of the text."""

    def __init__(self, message: str, offset: int | None):
        where = f" (byte offset {offset})" if offset is not None else ""
        super().__init__(f"{message}{where}")
        self.offset = offset


class UnknownIdentifier(CurvError):
    """Identifier is neither a declared coordinate, a function, nor `pi`."""

    def __init__(self, name: str, offset: int | None = None):
        where = f" (byte offset {offset})" if offset is not None else ""
        super().__init__(f"unknown identifier {name!r}{where}")
        self.name = name
        self.offset = offset


class DomainError(CurvError):
    """Evaluation left the real domain (log/sqrt/division/power)."""

    def __init__(self, message: str, node_text: str | None = None):
        if node_text is not None:
            message = f"{message} in {node_text!r}"
        super().__init__(message)
        self.node_text = node_text


class ManifestError(CurvError):
    """Malformed metric manifest file or point.  Carries the offending line
    number, None for a point given on the command line."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class DimensionMismatch(CurvError):
    """Operands do not share the expected dimension."""


class NumericalInconsistency(CurvError):
    """A computed result failed an internal consistency check (an identity
    it must satisfy exactly does not hold within rounding)."""


class SingularMetric(CurvError):
    """Metric is not symmetric positive definite at the queried point."""


class InvalidParams(CurvError):
    """Parameters violate a stated precondition (e.g. a = 0 where a != 0 is required)."""


class DegenerateParams(CurvError):
    """A denominator guard fired: the requested formula divides by ~0."""


class ZeroScalarCurvature(CurvError):
    """Scalar curvature is (numerically) zero where a division by it is required."""


class DegenerateRicci(CurvError):
    """Ricci tensor is numerically zero; the requested system is vacuous."""


class NotQuasiEinstein(CurvError):
    """Eigenvalue pattern {p x (n-1), p+q simple} is absent (or collapses to Einstein)."""

    def __init__(self, message: str, residual: float | None = None,
                 einstein_alpha: float | None = None):
        super().__init__(message)
        self.residual = residual
        # set when the input is Einstein (q ~ 0), which the strict class excludes
        self.einstein_alpha = einstein_alpha


class NotQuasiConstant(CurvError):
    """Curvature does not fit a*(g^g) + b*(A-block) with nonzero a, b."""

    def __init__(self, message: str, residual: float | None = None,
                 constant_curvature: float | None = None):
        super().__init__(message)
        self.residual = residual
        # set when the input fits a*(g^g) alone (b ~ 0 boundary)
        self.constant_curvature = constant_curvature
