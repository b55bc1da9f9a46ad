"""Exception hierarchy shared across the package.

Library code raises these instead of bare ValueError so the CLI can map
each failure class onto its exit code (usage 1, domain/validation 2,
obstruction 3).

A refusal shows a value only through ``shown``: a caller's value by its
repr, a number the library computed by its str, an int past Python's
int-to-str digit limit (alone or as a Fraction's part) by its sign and
bit length, and anything else that cannot be formatted as ``<TypeName>``.
Any other text longer than ``SHOWN_MAX`` characters is cut to that
length; an int's or a Fraction's stays whole, as the int-to-str limit in
force bounds it.
``digit_limit`` bounds the decimal digits of any one number the library
reads or writes.
"""

import sys
from fractions import Fraction


class FlatEtaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FlatEtaError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ValidationError(DomainError):
    """A Seifert datum violates a structural invariant.

    The message names the offending field.
    """


class PoleError(DomainError):
    """Cotangent requested at a pole (angle an integer multiple of pi)."""


class NotFlatError(DomainError):
    """Seifert data does not describe a flat manifold (e != 0 or chi_orb != 0)."""


class ObstructionError(FlatEtaError):
    """A signature prediction was requested but the eta-invariant is not
    an integer, so no geometric filler exists."""


class NoLatticePointError(DomainError):
    """No integer Euler characteristic matches the volume within tolerance."""


class AmbiguousToleranceError(DomainError):
    """Tolerance admits more than one integer Euler characteristic."""


class DescriptorSyntaxError(FlatEtaError, ValueError):
    """Seifert descriptor text does not match the grammar.

    ``offset`` is the byte offset of the first unusable character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UsageError(FlatEtaError):
    """Command line could not be parsed."""


SHOWN_MAX = 80


def shown(value, form=repr) -> str:
    """form(value) for a refusal's message, never raising (the rule above)."""
    try:
        text = form(value)
    except Exception:  # an int past the digit limit, or a broken __repr__
        if type(value) is int:
            return f"{'-' * (value < 0)}<int of {abs(value).bit_length()} bits>"
        if type(value) is not Fraction:
            return f"<{type(value).__name__}>"
        num, den = shown(value.numerator), shown(value.denominator)
        return f"Fraction({num}, {den})" if form is repr else f"{num}/{den}".removesuffix("/1")
    if len(text) <= SHOWN_MAX or type(value) in (int, Fraction):
        return text
    return f"{text[:SHOWN_MAX]}... ({len(text)} characters)"


def digit_limit() -> int:
    """int()'s int-to-str digit limit, CPython's default one when the limit
    is off: the most decimal digits text the library reads or writes may
    give one number."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
