"""Exception types shared across the toolkit, and the quoting and reading of outside values.

The CLI maps these onto its exit-code contract: input problems exit 2,
domain-negative outcomes exit 1, broken internal invariants exit 3.
"""

from argparse import ArgumentTypeError


def excerpt(value, offset: int = 0) -> str:
    """A str, int or Fraction in at most about 60 characters of a message. A
    str is its repr, or past 60 characters the 60 around ``offset``, '...' at
    each cut end, then its length. Each part of a number prints whole up to 28
    digits, else as its first 12, '...' and its digit count, read without str()."""
    if isinstance(value, str):
        lo = max(0, min(offset - 30, len(value) - 60))
        return repr(value) if len(value) <= 60 else (
            f"{'...' if lo else ''}{value[lo:lo + 60]!r}"
            f"{'...' if lo + 60 < len(value) else ''} ({len(value)} characters)")
    parts, den = [], value.denominator
    for part in (abs(value.numerator), den)[:1 + (den > 1)]:
        d = int(part.bit_length() * 0.30102999566398120)  # its digits, or one short
        d += part >= 10 ** d
        parts.append(f"{part // 10 ** (d - 12)}... ({d} digits)" if d > 28 else str(part))
    return "-" * (value < 0) + "/".join(parts)


def integer(text: str, low: int | None = None, name: str | None = None) -> int:
    """The int ``text`` writes, at least ``low`` if given, else InputError naming ``name``."""
    try:
        value = int(text)
        if low is None or value >= low:
            return value
        problem = f"{excerpt(value)} is not in the range x>={low}"
    except ValueError:
        problem = f"{excerpt(text)} is not a valid integer"
    raise InputError(f"{name}: {problem}" if name else problem)


class InputError(ValueError, ArgumentTypeError):
    """A malformed document, literal, or option value. Raised by an argparse
    type, it is a usage error that argparse reports by its message alone."""


class ParseError(InputError):
    """Grammar or schema violation, with a human-readable locus."""

    def __init__(self, message, locus=None):
        self.locus = locus
        super().__init__(f"{locus}: {message}" if locus else message)


class NotUnitary(InputError):
    """A generator failed the exact unitarity check."""

    def __init__(self, generator, entry):
        self.generator = generator
        self.entry = entry
        super().__init__(
            "generator %d is not unitary: conjugate-transpose product "
            "differs from the identity first at entry (%d, %d)" % (generator, *entry)
        )


class GroupTooLarge(InputError):
    """Closure enumeration exceeded the configured order cap."""


class NonIsolated(Exception):
    """The group has a nontrivial element with eigenvalue 1.

    ``witness`` is the index of the first offending element.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"element {witness} fixes a nonzero vector")


class SlopeOnSpectrum(InputError):
    """A slope or period bound coincides with an admissible orbit period."""


class MiddleMismatch(InputError):
    """Two spans cannot be composed: the shared group differs."""


class NotApplicable(Exception):
    """A constraint set whose theorem hypotheses fail cannot admit anything."""


class InternalInconsistency(Exception):
    """An internal invariant failed; this signals a bug, not a user error."""
