"""Exception types shared across the package."""

__all__ = ["InvalidParameters", "NotACodeword", "DecoderMismatch"]


class InvalidParameters(ValueError):
    """Construction or operation parameters are out of domain or inconsistent."""


class NotACodeword(ValueError):
    """Symbols handed to an interpolation routine fail the consistency check."""


class DecoderMismatch(RuntimeError):
    """The two decoders disagreed where exact agreement is guaranteed."""
