"""Exception types shared across the library and mapped to CLI exit codes."""


class ConfigurationError(ValueError):
    """A config value conflicts with the requested model or regime."""


class CheckpointMismatchError(RuntimeError):
    """Checkpoint and dataset (or manifest and payload) do not belong together."""


class NoSuchConceptError(LookupError):
    """No training sample carries the requested binarized concept code."""


class DatasetError(ValueError):
    """A dataset file lacks a field or contradicts itself."""
