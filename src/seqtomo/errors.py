"""Exception types shared across the package."""


class SeqtomoError(Exception):
    """Base class for all seqtomo errors."""


class ConfigError(SeqtomoError):
    """The experiment configuration is missing fields, inconsistent or malformed."""


class DimensionMismatch(SeqtomoError):
    """Operands have incompatible dimensions."""


class LengthMismatch(SeqtomoError):
    """Pauli labels of different qubit counts were combined."""


class NotCompletelyPositive(SeqtomoError):
    """A process matrix has a genuinely negative eigenvalue."""


class UnknownChannel(SeqtomoError):
    """A channel spec names no zoo channel or a parameter its channel lacks, or is malformed."""


class ParamOutOfRange(SeqtomoError):
    """A numeric parameter lies outside its valid range."""


class IndexOutOfRange(SeqtomoError):
    """A basis or Pauli index is outside [0, size)."""


class SizeLimitExceeded(SeqtomoError):
    """The requested system size exceeds the configured dense-simulation limit."""


class InvalidDistribution(SeqtomoError):
    """Probabilities are negative or do not sum to one."""
