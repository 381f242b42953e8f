"""The one base class of the library's errors."""

__all__ = ["TailkitError"]


class TailkitError(ValueError):
    """An input the library refuses; the CLI exits 2 with its message."""
