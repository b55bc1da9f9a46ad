"""Exception hierarchy shared across the package.

Library code raises these instead of bare ValueError so the CLI can map
each failure class onto its exit code (usage 1, domain/validation 2,
obstruction 3).

A refusal shows a value only through ``shown``: a caller's value by its
repr, a number the library computed by its str, an int of more than
``digit_limit()`` digits (alone or as a Fraction's part) by its sign and
bit length before any formatting, and anything else that cannot be
formatted as ``<TypeName>``.  So is a value that holds such an int, with
the int-to-str limit off as with one in force (``writes_long_int``).
Any other text longer than ``SHOWN_MAX`` characters is cut to that
length; an int's or a Fraction's stays whole, as ``digit_limit`` bounds
it.  ``digit_limit`` bounds the decimal digits of any one number the
library reads or writes.

``Value`` is the base of the package's seven value classes (FiberPair,
SeifertData, EtaResult, ObstructionReport, CatalogEntry, VolumeValue,
CyclotomicElement), and no module of the package loads ``dataclasses``.
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
    """form(value) for a refusal's message, never raising (the rule above).
    Only the builtin numbers and containers and the package's values are
    looked into first; any other object's own __repr__ runs at the
    caller's cost."""
    if type(value) is Fraction:
        num, den = shown(value.numerator), shown(value.denominator)
        return f"Fraction({num}, {den})" if form is repr else f"{num}/{den}".removesuffix("/1")
    if type(value) is int and _long(value, digit_limit()):
        return f"{'-' * (value < 0)}<int of {abs(value).bit_length()} bits>"
    try:
        if writes_long_int(value):  # what str() would refuse at a limit in force
            return f"<{type(value).__name__}>"
        text = form(value)
    except Exception:  # a broken __repr__, or an int past the limit in force
        return f"<{type(value).__name__}>"
    if len(text) <= SHOWN_MAX or type(value) is int:
        return text
    return f"{text[:SHOWN_MAX]}... ({len(text)} characters)"


def digit_limit() -> int:
    """int()'s int-to-str digit limit, CPython's default one when the limit
    is off: the most decimal digits text the library reads or writes may
    give one number."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _long(number: int, limit: int) -> bool:
    """Whether the int has more than limit decimal digits."""
    size = int.__abs__(number)
    # 8**limit < 10**limit, so the power is only built for an int past 3*limit bits
    return size.bit_length() > 3 * limit and size >= 10**limit


def writes_long_int(value) -> bool:
    """Whether the int-to-str limit is off and value, or what it holds at any
    depth of lists, tuples, sets, frozensets, dicts, Fractions and Values, is
    an int of more than digit_limit() digits: a value that str() refuses at
    a limit in force, and with none writes in time quadratic in its digits.
    False at a limit in force, where str() refuses such a value itself."""
    if sys.get_int_max_str_digits():
        return False
    limit, seen, todo = digit_limit(), set(), [value]
    while todo:
        item = todo.pop()
        kind = type(item)
        if isinstance(item, int):
            if _long(item, limit):
                return True
        elif id(item) in seen:  # a container met before, or one holding itself
            continue
        elif kind in (list, tuple, set, frozenset, dict):
            seen.add(id(item))
            todo += [*item, *item.values()] if kind is dict else item
        elif isinstance(item, Fraction):
            todo += item.numerator, item.denominator
        elif isinstance(item, Value):
            seen.add(id(item))
            todo += (getattr(item, name, None) for name in kind.__slots__)
    return False


class Value:
    """Base of a frozen value class.  A subclass names its fields in
    ``__slots__`` and sets each once in its ``__init__`` through
    object.__setattr__.  Like a frozen dataclass, an instance refuses
    assignment and deletion, equals only an instance of its own class
    whose fields are equal, hashes as its field tuple and has the repr
    ``Name(field=value, ...)``.  pickle and copy rebuild it through the
    constructor, so its checks run again."""

    __slots__ = ()

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (tuple(map(self.__getattribute__, self.__slots__))
                == tuple(map(other.__getattribute__, self.__slots__)))

    def __hash__(self):
        return hash(tuple(map(self.__getattribute__, self.__slots__)))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))
