"""Exact expectations for every benchmark operation, independent of flateta.

Nothing here imports the package under test.  Dedekind sums come from the
reciprocity law with Euclid-style argument reduction,

    s(h, k) + s(k, h) = (h/k + k/h + 1/(h*k)) / 12 - 1/4,

so the oracle shares no arithmetic with either of flateta's routes.  Checks
return a verdict string and never raise: a mismatch is counted, not thrown.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd

# Gauss-Bonnet in dimension 4: Vol = (4*pi^2/3) * chi.
LATTICE_COEFFICIENT = Fraction(4, 3)
DEFAULT_TOL = 1e-6
# A rendered volume must carry at least 12 significant digits.
VOLUME_REL_TOL = 1e-11

# The documented catalog (README): name, holonomy, Seifert data or None.
CATALOG = (
    ("G1", "trivial", ("T2", 0, ())),
    ("G2", "Z2", ("S2", 0, ((2, 1), (2, 1), (2, -1), (2, -1)))),
    ("G3", "Z3", ("S2", 0, ((3, 2), (3, -1), (3, -1)))),
    ("G4", "Z4", ("S2", 0, ((2, 1), (4, -1), (4, -1)))),
    ("G5", "Z6", ("S2", 0, ((2, 1), (3, -1), (6, -1)))),
    ("G6", "Z2xZ2", None),
)

# Verdicts: OK, or the first way the output differs from the expectation.
OK = "ok"
TRACEBACK = "traceback"
EXIT_CODE = "exit_code"
STDERR = "stderr"
OUTPUT = "output"
VALUE = "value"


def dedekind(h: int, k: int) -> Fraction:
    """s(h, k) for coprime h and k >= 1, by reciprocity and Euclid."""
    if k < 1 or gcd(h, k) != 1:
        raise ValueError(f"s({h}, {k}) needs k >= 1 and gcd 1")
    h %= k
    total = Fraction(0)
    sign = 1
    while k > 1:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sign = -sign
    return total


def frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def euler_number(b: int, fibers) -> Fraction:
    return -(b + sum((Fraction(beta, alpha) for alpha, beta in fibers), Fraction(0)))


def orbifold_chi(base: str, fibers) -> Fraction:
    genus = 0 if base == "S2" else 1
    return 2 - 2 * genus - sum((1 - Fraction(1, alpha) for alpha, _ in fibers), Fraction(0))


def is_flat(base: str, b: int, fibers) -> bool:
    return euler_number(b, fibers) == 0 and orbifold_chi(base, fibers) == 0


def canonical(base: str, b: int, fibers) -> str:
    head = f"{base};" + (f"b={b};" if b else "")
    return head + "".join(f"({alpha},{beta})" for alpha, beta in fibers)


def eta(fibers) -> tuple[Fraction, list[dict]]:
    rows = [
        {"alpha": alpha, "beta": beta, "dedekind_sum": frac(dedekind(beta, alpha))}
        for alpha, beta in fibers
    ]
    value = 4 * sum((dedekind(beta, alpha) for alpha, beta in fibers), Fraction(0))
    return value, rows


def volume(chi: int) -> float:
    return float(LATTICE_COEFFICIENT * chi) * math.pi**2


# ---------------------------------------------------------------------------
# expectations: (exit code, payload without "schema" or None)
#
# Payload values that are callables are predicates instead of exact values:
# used for free text (notes) and for decimal volume renderings, whose digit
# count is the tool's choice as long as the value is right.
# ---------------------------------------------------------------------------


def _nonempty_text(value) -> bool:
    return isinstance(value, str) and bool(value)


def _volume_close_to(chi: int):
    exact = volume(chi)

    def check(value) -> bool:
        if not isinstance(value, str):
            return False
        try:
            rendered = float(value)
        except ValueError:
            return False
        return abs(rendered - exact) <= VOLUME_REL_TOL * exact

    return check


def expect(spec: dict, fed=None) -> tuple[int, dict | None]:
    """Expected exit code and payload for a CLI operation spec; ``fed`` is
    the [volume, tolerance] text a ``gb_volume`` operation was given."""
    kind = spec["kind"]
    if kind == "error":
        return spec["exit"], None
    if kind in ("eta", "obstruct"):
        base, b, fibers = spec["base"], spec["b"], [tuple(f) for f in spec["fibers"]]
        value, rows = eta(fibers)
        payload = {
            "command": kind,
            "descriptor": canonical(base, b, fibers),
            "eta": frac(value),
            "integral": value.denominator == 1,
            "fibers": rows,
        }
        if kind == "eta":
            return 0, payload
        integral = value.denominator == 1
        payload.update(
            {
                "geodesic_boundary_obstructed": not integral,
                "one_cusped_cross_section_obstructed": not integral,
                "predicted_signature": -int(value) if integral else None,
                "note": _nonempty_text,
            }
        )
        return (0 if integral else 3), payload
    if kind == "dedekind":
        s = frac(dedekind(spec["beta"], spec["alpha"]))
        return 0, {
            "command": "dedekind",
            "beta": spec["beta"],
            "alpha": spec["alpha"],
            "sawtooth": s,
            "cotangent": s,
        }
    if kind == "catalog":
        entries = []
        for name, holonomy, seifert in CATALOG:
            if seifert is None:
                desc, value, integral = None, None, True
            else:
                value = eta(seifert[2])[0]
                desc, integral, value = canonical(*seifert), value.denominator == 1, frac(value)
            entries.append(
                {
                    "name": name,
                    "holonomy": holonomy,
                    "descriptor": desc,
                    "eta": value,
                    "eta_integral": integral,
                    "note": _nonempty_text,
                }
            )
        return 0, {"command": "catalog", "entries": entries}
    if kind == "gb_chi":
        chi = spec["chi"]
        return 0, {
            "command": "gauss-bonnet",
            "chi": chi,
            "volume_coefficient": frac(LATTICE_COEFFICIENT * chi),
            "volume": _volume_close_to(chi),
        }
    if kind == "gb_volume":
        # The volume is whatever the preceding --chi operation printed; the
        # round trip must give back that chi.
        volume, tolerance = fed
        return 0, {
            "command": "gauss-bonnet",
            "volume": float(volume),
            "tolerance": float(tolerance),
            "chi": spec["chi"],
        }
    raise ValueError(f"unknown operation kind {kind!r}")


def _matches(expected, actual) -> bool:
    if callable(expected):
        return expected(actual)
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(_matches(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(_matches(e, a) for e, a in zip(expected, actual))
        )
    # bool is an int subclass: keep True from matching 1.
    return type(expected) is type(actual) and expected == actual


def check_cli(spec: dict, result: dict) -> str:
    """Verdict for one CLI operation.

    ``result`` holds ``code``, ``out``, ``err`` and ``exc`` (an uncaught
    exception's text, in-process only), plus ``fed`` for a ``gb_volume``
    operation: the [volume, tolerance] text it was given.
    """
    if result.get("exc") or "Traceback (most recent call last)" in result["err"]:
        return TRACEBACK
    if spec["kind"] == "gb_volume" and not result.get("fed"):
        return EXIT_CODE  # not run: the --chi call before it printed no volume
    code, payload = expect(spec, result.get("fed"))
    if result["code"] != code:
        return EXIT_CODE
    if (code == 0) == bool(result["err"]):
        # stderr must be empty exactly when the exit code is 0
        return STDERR
    if payload is None:
        return OK if result["out"] == "" else OUTPUT
    lines = result["out"].split("\n")
    if len(lines) != 2 or lines[1] != "":
        return OUTPUT
    try:
        actual = json.loads(lines[0])
    except ValueError:
        return OUTPUT
    if not isinstance(actual, dict) or not isinstance(actual.pop("schema", None), str):
        return OUTPUT
    return OK if _matches(payload, actual) else VALUE


def coarse_volume(spec: dict, result: dict) -> bool:
    """The known seed defect: a successful ``--chi`` call whose printed
    volume lies farther than the default ``--volume`` tolerance from
    4*pi^2*chi/3, so that feeding it back at that tolerance fails."""
    if spec["kind"] != "gb_chi" or result["code"] != 0:
        return False
    try:
        printed = float(json.loads(result["out"])["volume"])
    except (ValueError, KeyError, TypeError):
        return False
    return abs(printed - volume(spec["chi"])) > DEFAULT_TOL


def check_dedekind(beta: int, alpha: int, result) -> str:
    """Verdict for one in-process dedekind_cot call; ``result`` is "p/q"
    text of the returned value or None when it raised."""
    if result is None:
        return TRACEBACK
    return OK if result == frac(dedekind(beta, alpha)) else VALUE
