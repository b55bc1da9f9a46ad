"""Seifert fibered descriptions of flat 3-manifolds.

Data model restricted to orientable base surfaces S^2 and T^2, which
covers every orientable flat 3-manifold that admits a Seifert fibration
over an orientable base, and its descriptor text such as
'S2;(2,1)(3,-1)(6,-1)' (grammar below).  A fibration carries a Euclidean
geometry exactly when both its Euler number e = -(b + sum beta_i/alpha_i)
and the orbifold Euler characteristic of the base vanish.
"""

import enum
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (DescriptorSyntaxError, DomainError, ValidationError, Value, digit_limit, shown,
                     writes_long_int)


class BaseSurface(enum.Enum):
    S2 = "S2"
    T2 = "T2"


_GENUS = {BaseSurface.S2: 0, BaseSurface.T2: 1}


class FiberPair(Value):
    """Exceptional fiber invariants: multiplicity alpha >= 2 and Seifert
    coefficient beta, coprime to alpha (beta may be negative)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


class SeifertData(Value):
    """Seifert invariants (base, b, (alpha_1, beta_1), ...).

    ``genus`` is read off the base (0 for S2, 1 for T2); fibers may be
    given as FiberPair instances or bare (alpha, beta) pairs.
    Construction checks every structural invariant and raises
    ValidationError naming the field, so every instance is valid.
    """

    __slots__ = ("base", "b", "fibers")

    def __init__(self, base: BaseSurface, b: int = 0, fibers: tuple[FiberPair, ...] = ()):
        if not isinstance(base, BaseSurface):
            # asked first: BaseSurface() reprs a refused value, and a caller's __eq__ may raise
            if type(base) is not str or base not in ("S2", "T2"):
                raise ValidationError(f"base must be 'S2' or 'T2', got {shown(base)}")
            base = BaseSurface(base)
        try:
            pairs = tuple(f if isinstance(f, FiberPair) else FiberPair(*f) for f in fibers)
        except TypeError:
            raise ValidationError("fibers must be (alpha, beta) pairs, "
                                  f"got {shown(fibers)}") from None
        if type(b) is not int:  # not bool: True renders as 'True'
            raise ValidationError(f"b must be an int, got {shown(b)}")
        for i, fiber in enumerate(pairs):
            for name, value in (("alpha", fiber.alpha), ("beta", fiber.beta)):
                if type(value) is not int:
                    raise ValidationError(f"fibers[{i}]: {name} must be an int, got {shown(value)}")
            if fiber.alpha < 2:
                raise ValidationError(f"fibers[{i}]: alpha must be >= 2, got {shown(fiber.alpha)}")
            if gcd(fiber.alpha, fiber.beta) != 1:
                raise ValidationError(f"fibers[{i}]: gcd({shown(fiber.alpha)},"
                                      f"{shown(fiber.beta)}) != 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "fibers", pairs)

    @property
    def genus(self) -> int:
        return _GENUS[self.base]


def validate(s: SeifertData) -> SeifertData:
    """The library's boundary type check: ``s`` if it is a SeifertData
    (valid by construction), else ValidationError naming SeifertData."""
    if not isinstance(s, SeifertData):
        raise ValidationError(f"expected SeifertData, got {shown(s)}")
    return s


def _flatness(s: SeifertData) -> tuple[int, int, int]:
    """(e_num, chi_num, L) with e = e_num/L and chi_orb = chi_num/L, both
    vanishing exactly when the data is flat; checks the type once.
    Integer sums over L = lcm(alpha_i), each share q_i = L/alpha_i taken
    once: e_num = -(b*L + sum beta_i*q_i), chi_num = (2-2g-n)*L + sum q_i."""
    validate(s)
    den = lcm(*(f.alpha for f in s.fibers))
    shares = [den // f.alpha for f in s.fibers]
    e = -(s.b * den + sum(f.beta * q for f, q in zip(s.fibers, shares)))
    return e, (2 - 2 * s.genus - len(shares)) * den + sum(shares), den


def euler_number(s: SeifertData) -> Fraction:
    """Euler number e = -(b + sum beta_i/alpha_i) of the fibration."""
    e, _, den = _flatness(s)
    return Fraction(e, den)


def orbifold_euler_characteristic(s: SeifertData) -> Fraction:
    """chi_orb = 2 - 2*genus - sum (1 - 1/alpha_i) of the base orbifold."""
    _, chi, den = _flatness(s)
    return Fraction(chi, den)


# ---------------------------------------------------------------------------
# Seifert descriptor grammar
#
#   descriptor := base ";" [ "b=" integer ";" ] fibers
#   base       := "S2" | "T2"
#   fibers     := "" | pair { pair }
#   pair       := "(" integer "," integer ")"
#   integer    := [ "+" | "-" ] digit { digit }    (ASCII 0-9 only)
#
# b defaults to 0; whitespace (re's \s, which is str.isspace()) is ignored
# between tokens; no integer may have more than digit_limit() digits.
# _well_formed(digit_limit()) is these lines as one pattern, the limit
# included, and parse_descriptor reads every text with one match of it as
# a prefix.  All its quantifiers are possessive, so the match never
# backtracks into a long run and ends exactly where the first construct
# that fails begins: the base clause (group 1) when nothing matched, else
# the b= clause or a pair.  _refuse reads that one construct token by
# token with _TOKEN (an integer in group 2, a base, any other single
# character, or the empty end of the text) and names its first token that
# fails.  Error offsets are UTF-8 byte offsets of the failing token; only
# ASCII and str.isspace() characters precede it, so the text before it
# encodes.
# ---------------------------------------------------------------------------


@lru_cache
def _well_formed(limit: int) -> re.Pattern:
    integer = rf"[+-]?+[0-9]{{1,{limit}}}+"
    return re.compile(
        rf"""( \s*+ (?:S2|T2) \s*+ ; \s*+ )
            (?: b \s*+ = \s*+ {integer} \s*+ ; \s*+ )?+
            (?: \( \s*+ {integer} \s*+ , \s*+ {integer} \s*+ \) \s*+ )*+""",
        re.VERBOSE,
    )


_VALUES = re.compile(r"S2|T2|[+-]?[0-9]+")  # in well-formed text: the base, then the integers
_TOKEN = re.compile(r"\s*(([+-]?[0-9]+)|S2|T2|.|\Z)", re.DOTALL)
_BASES = ("S2", "T2")


def _refuse(text: str, pos: int, grammar: tuple) -> None:
    """Raise the syntax error of the construct at text[pos:], which
    _well_formed does not match: that of its first token that is not the
    one grammar lists there (a literal, int, or _BASES for either base)."""
    for want in grammar:
        token = _TOKEN.match(text, pos)
        if want is int:
            message = ("expected an integer" if token[2] is None
                       else "integer has too many digits"
                       if len(token[2].lstrip("+-")) > digit_limit() else None)
        elif want is _BASES:
            message = None if token[1] in _BASES else "expected base 'S2' or 'T2'"
        else:
            message = None if token[1] == want else f"expected {want!r}"
        if message:
            raise DescriptorSyntaxError(message, len(text[: token.start(1)].encode()))
        pos = token.end()


def parse_descriptor(text: str) -> SeifertData:
    """Parse a Seifert descriptor such as 'S2;(2,1)(3,-1)(6,-1)' or
    'T2;' or 'S2;b=-1;(2,1)'.  SeifertData validates the result."""
    if not isinstance(text, str):
        raise DomainError(f"descriptor must be a str, got {shown(text)}")
    well_formed = _well_formed(digit_limit()).match(text)
    if well_formed is None:
        _refuse(text, 0, (_BASES, ";"))
    end = well_formed.end()
    if end < len(text):
        b_next = text[end] == "b" and well_formed.end(1) == end
        _refuse(text, end, ("b", "=", int, ";") if b_next else ("(", int, ",", int, ")"))
    base, *values = _VALUES.findall(text)
    values = list(map(int, values))  # none past the limit, so int() reads each
    b = values.pop(0) if "b" in text else 0
    return SeifertData(base, b, tuple(map(FiberPair, values[::2], values[1::2])))


def render_descriptor(s: SeifertData) -> str:
    """Canonical descriptor text; parse_descriptor(render_descriptor(s)) == s.
    An integer of more than digit_limit() digits, which parse_descriptor
    would refuse, is refused here, whether or not str() could write it."""
    validate(s)
    try:  # None exactly when an int is past digit_limit(), the limit in force or not
        text = None if writes_long_int(s) else "".join(
            [s.base.value, ";", f"b={s.b};" if s.b else "",
             *(f"({f.alpha},{f.beta})" for f in s.fibers)])
    except ValueError:  # str() refused an int past the limit in force
        text = None
    if text is None:
        named = [("b", s.b)] + [(f"fibers[{i}]: {k}", v) for i, f in enumerate(s.fibers)
                                for k, v in (("alpha", f.alpha), ("beta", f.beta))]
        bound = 10**digit_limit()
        name = next(k for k, v in named if abs(v) >= bound)
        raise ValidationError(f"{name} has too many digits to render")
    return text
