"""Exception hierarchy shared by all metrocorr modules."""


class MetrocorrError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MetrocorrError):
    """An operator failed a structural validity check."""


class NotHermitian(ValidationError):
    pass


class NotUnitTrace(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


class ParseError(MetrocorrError):
    """A state/observable file could not be parsed."""


class ConvergenceFailure(MetrocorrError):
    """An eigensolver did not converge."""


class DimMismatch(MetrocorrError):
    """Operator dimensions do not match the state they act on."""


class BadSubsystemIndex(MetrocorrError):
    pass


class BadRank(MetrocorrError):
    pass


class OutOfRange(MetrocorrError):
    """A scalar parameter lies outside its admissible interval."""


class BadProbabilities(MetrocorrError):
    pass


class NonOrthonormalBasis(MetrocorrError):
    pass


class DegenerateSpectrum(MetrocorrError):
    """A measurement/generator spectrum has (nearly) coinciding values."""


class SingularOutcome(MetrocorrError):
    """A POVM outcome has vanishing probability but non-vanishing sensitivity."""


class ZeroInformation(MetrocorrError):
    """The Fisher information vanishes; no estimation is possible."""


class TooManyCopies(MetrocorrError):
    """Requested copy count exceeds the exact-computation dimension guard."""


class NotPure(MetrocorrError):
    pass


class DimensionTooLarge(MetrocorrError):
    pass


class DegenerateGrid(MetrocorrError):
    """A grid is malformed, empty, not finite, inverted, or excludes the true
    value (estimation)."""
