"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class VocabularyError(ValueError):
    """A token id falls outside the model's vocabulary."""


class InfeasibleTargetError(ValueError):
    """The target cannot be aligned to the given number of frames."""


class EnumerationCapError(ValueError):
    """Exhaustive alignment enumeration would exceed the configured cap."""


class ConfigError(ValueError):
    """A run configuration is malformed, contains unknown keys, or asks for
    a run that cannot be made, such as one whose train split is empty."""


class CheckpointFormatError(ValueError):
    """A checkpoint file is corrupt or has an unsupported version."""


class TrainingAbort(RuntimeError):
    """Training stopped early, e.g. on non-finite gradients."""
