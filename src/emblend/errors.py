"""Exception hierarchy shared across the engine."""


class EmblendError(Exception):
    """Base class for all engine errors."""


class ZeroVector(EmblendError):
    """Vector has (numerically) zero norm and cannot be normalized."""


class NonFiniteVector(EmblendError):
    """Vector has a NaN or infinite norm."""


class DimMismatch(EmblendError):
    """Operands have incompatible dimensions."""


class EmptySet(EmblendError):
    """An aggregate was requested over an empty collection."""


class EmptyModality(EmblendError):
    """A modality group required to be nonempty is empty."""


class UnsupportedModality(EmblendError):
    """Expert does not support the requested modality."""


class RemoteFailure(EmblendError):
    """Remote embedding service returned an error or a malformed response."""


class DescriberFailure(EmblendError):
    """Describer backend failed to produce a description."""


class GatingExpertFailure(EmblendError):
    """Gating expert failed while scoring nucleus candidates."""


class CacheCorrupt(EmblendError):
    """Embedding cache file has a bad header, a record that cannot be read,
    a failed CRC before its final segment, or a version 1 header."""


class BatchTooSmall(EmblendError):
    """Contrastive loss needs at least two pairs in a batch."""


class NonFiniteLoss(EmblendError):
    """A training step produced a loss or gradient that is not finite."""


class ZeroSize(EmblendError):
    """Byte size must be positive."""


class MissingPartner(EmblendError):
    """A retrieval query's ground-truth partner is absent from the index."""


class InsufficientSamples(EmblendError):
    """Not enough samples per modality for the requested diagnostic."""


class EmptyPool(EmblendError):
    """Curation was requested over an empty candidate pool."""


class NTooLarge(EmblendError):
    """Requested selection size exceeds the pool."""


class PoolTooSmall(EmblendError):
    """A pool cannot satisfy its stratified quota."""


class KTooLarge(EmblendError):
    """More clusters requested than there are points."""


class UnknownId(EmblendError):
    """A sample id could not be resolved against pool metadata."""


class ParseError(EmblendError):
    """Input file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InvariantViolation(EmblendError):
    """A record violates a domain invariant."""

    def __init__(self, message, sample_id=None):
        super().__init__(message if sample_id is None else f"sample {sample_id}: {message}")
        self.sample_id = sample_id


class ConfigError(EmblendError):
    """Engine configuration is invalid."""
