"""The one base class of the library's errors, and the one rule that holds a
value to the bounds in a ``dataclasses.field``'s metadata."""
import dataclasses

__all__ = ["TailkitError", "check_bounds", "check_fields", "positive"]


class TailkitError(ValueError):
    """An input the library refuses; the CLI exits 2 with its message."""


def positive(value) -> None:
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")


def check_bounds(value, meta) -> None:
    """Raise a :class:`ValueError` saying why ``value`` breaks the bounds in
    the field metadata ``meta``: ``choices``, ``minimum`` and ``maximum``
    (inclusive, held by each entry of a tuple), and ``check``, a callable
    that raises one itself."""
    for item in value if isinstance(value, tuple) else (value,):
        if "choices" in meta and item not in meta["choices"]:
            raise ValueError(f"expected one of {tuple(meta['choices'])}, got {item!r}")
        if "minimum" in meta and item < meta["minimum"]:
            raise ValueError(f"must be >= {meta['minimum']}, got {item}")
        if "maximum" in meta and item > meta["maximum"]:
            raise ValueError(f"must be <= {meta['maximum']}, got {item}")
    if "check" in meta:
        meta["check"](value)


def check_fields(instance, error) -> None:
    """Hold each field of the dataclass ``instance`` that is not None to its
    metadata, raising ``error`` with a message that starts with its name."""
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        if value is None:
            continue
        try:
            check_bounds(value, f.metadata)
        except ValueError as exc:
            raise error(f"{f.name}: {exc}") from exc
