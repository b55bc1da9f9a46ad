"""Command line surface.

Subcommands: eta, obstruct, dedekind, catalog, gauss-bonnet.  Results go
to stdout, error text to stderr.  Exit codes: 0 success, 1 usage or
descriptor syntax error, 2 domain/validation error, 3 obstruction (a
signature was implicitly requested but eta is not an integer).

With --json every invocation prints a single JSON object; exact
rationals are serialized as "p/q" strings, never as floats.  The object
layout is documented in docs/output.schema.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .dedekind import dedekind_cot, dedekind_sawtooth
from .errors import (
    DescriptorSyntaxError,
    DomainError,
    ObstructionError,
    UsageError,
)
from .eta import MULTI_CUSP_NOTE, eta_flat, obstruction_report
from .gaussbonnet import chi_from_volume, volume_from_chi
from .seifert import BaseSurface, FiberPair, SeifertData, flat_catalog, validate

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Seifert descriptor grammar
#
#   descriptor := base ";" [ "b=" integer ";" ] fibers
#   base       := "S2" | "T2"
#   fibers     := "" | pair { pair }
#   pair       := "(" integer "," integer ")"
#
# b defaults to 0; whitespace is ignored everywhere.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def fail(self, message: str):
        raise DescriptorSyntaxError(message, self.pos)

    def try_consume(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.try_consume(literal):
            self.fail(f"expected {literal!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits_from = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_from:
            self.pos = start
            self.fail("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past int()'s digit limit, or a digit it cannot read
            self.pos = start
            self.fail("integer has too many digits or a non-decimal digit")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_descriptor(text: str) -> SeifertData:
    """Parse a Seifert descriptor such as 'S2;(2,1)(3,-1)(6,-1)' or
    'T2;' or 'S2;b=-1;(2,1)'.  The result is validated."""
    sc = _Scanner(text)
    if sc.try_consume("S2"):
        base = BaseSurface.S2
    elif sc.try_consume("T2"):
        base = BaseSurface.T2
    else:
        sc.fail("expected base 'S2' or 'T2'")
    sc.expect(";")
    b = 0
    if sc.try_consume("b"):
        sc.expect("=")
        b = sc.integer()
        sc.expect(";")
    fibers = []
    while not sc.at_end():
        sc.expect("(")
        alpha = sc.integer()
        sc.expect(",")
        beta = sc.integer()
        sc.expect(")")
        fibers.append(FiberPair(alpha, beta))
    return validate(SeifertData(base, b, tuple(fibers)))


def render_descriptor(s: SeifertData) -> str:
    """Canonical descriptor text; parse_descriptor(render_descriptor(s)) == s."""
    parts = [s.base.value, ";"]
    if s.b:
        parts.append(f"b={s.b};")
    parts.extend(f"({f.alpha},{f.beta})" for f in s.fibers)
    return "".join(parts)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _emit_json(payload: dict, out) -> None:
    print(json.dumps(payload), file=out)


def _fiber_rows(result) -> list[dict]:
    return [
        {"alpha": f.alpha, "beta": f.beta, "dedekind_sum": _frac(c)}
        for f, c in result.fiber_contributions
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eta(args, out, err) -> int:
    data = parse_descriptor(args.descriptor)
    result = eta_flat(data)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "command": "eta",
                "descriptor": render_descriptor(data),
                "eta": _frac(result.value),
                "integral": result.integral,
                "fibers": _fiber_rows(result),
            },
            out,
        )
    elif args.quiet:
        print(result.value, file=out)
    else:
        print(f"eta = {result.value}", file=out)
        print(f"integral: {'yes' if result.integral else 'no'}", file=out)
        for fiber, contribution in result.fiber_contributions:
            print(f"  fiber ({fiber.alpha},{fiber.beta}): s = {contribution}", file=out)
    return 0


def _cmd_obstruct(args, out, err) -> int:
    data = parse_descriptor(args.descriptor)
    report = obstruction_report(data)
    verdict = "obstructed" if report.geodesic_boundary_obstructed else "not obstructed"
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "command": "obstruct",
                "descriptor": render_descriptor(data),
                "eta": _frac(report.eta.value),
                "integral": report.eta.integral,
                "fibers": _fiber_rows(report.eta),
                "geodesic_boundary_obstructed": report.geodesic_boundary_obstructed,
                "one_cusped_cross_section_obstructed": report.one_cusped_cross_section_obstructed,
                "predicted_signature": report.predicted_signature,
                "note": MULTI_CUSP_NOTE,
            },
            out,
        )
    elif args.quiet:
        if report.predicted_signature is None:
            print("obstructed", file=out)
        else:
            print(f"not obstructed; predicted signature {report.predicted_signature}", file=out)
    else:
        kind = "an integer" if report.eta.integral else "not an integer"
        print(f"eta = {report.eta.value} ({kind})", file=out)
        print(
            "totally geodesic boundary of a compact hyperbolic 4-manifold: "
            f"{verdict}",
            file=out,
        )
        print(
            "cusp cross-section of a one-cusped finite-volume hyperbolic "
            f"4-manifold: {verdict}",
            file=out,
        )
        if report.predicted_signature is None:
            print("predicted filler signature: none", file=out)
        else:
            print(f"predicted filler signature: {report.predicted_signature}", file=out)
        print(f"note: {MULTI_CUSP_NOTE}", file=out)
    if report.predicted_signature is None:
        print(
            f"error: eta = {report.eta.value} is not an integer; geometric "
            "bounding is obstructed, no signature prediction exists",
            file=err,
        )
        return 3
    return 0


def _cmd_dedekind(args, out, err) -> int:
    # The cotangent route first: it refuses alpha above its ceiling before
    # the O(alpha) sawtooth would run.
    cot = dedekind_cot(args.beta, args.alpha)
    saw = dedekind_sawtooth(args.beta, args.alpha)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "command": "dedekind",
                "beta": args.beta,
                "alpha": args.alpha,
                "sawtooth": _frac(saw),
                "cotangent": _frac(cot),
            },
            out,
        )
    elif args.quiet:
        print(saw, file=out)
    else:
        print(f"s({args.beta},{args.alpha}) = {saw}", file=out)
        print(f"  sawtooth path:  {saw}", file=out)
        print(f"  cotangent path: {cot}", file=out)
    return 0


def _cmd_catalog(args, out, err) -> int:
    entries = flat_catalog()
    if args.json:
        rows = []
        for e in entries:
            rows.append(
                {
                    "name": e.name,
                    "holonomy": e.holonomy,
                    "descriptor": render_descriptor(e.seifert) if e.seifert else None,
                    "eta": _frac(e.eta) if e.eta is not None else None,
                    "eta_integral": e.eta_integral,
                    "note": e.note,
                }
            )
        _emit_json(
            {"schema": SCHEMA_VERSION, "command": "catalog", "entries": rows},
            out,
        )
    elif args.quiet:
        for e in entries:
            eta = str(e.eta) if e.eta is not None else "unknown"
            print(f"{e.name} {eta}", file=out)
    else:
        for e in entries:
            desc = render_descriptor(e.seifert) if e.seifert else "(no Seifert data)"
            print(f"{e.name}  holonomy {e.holonomy}  {desc}", file=out)
            if e.eta is not None:
                kind = "an integer" if e.eta_integral else "not an integer"
                print(f"    eta = {e.eta} ({kind})", file=out)
            else:
                print("    eta not computed (integral by assertion)", file=out)
            print(f"    {e.note}", file=out)
    return 0


def _cmd_gauss_bonnet(args, out, err) -> int:
    if args.chi is not None:
        value = volume_from_chi(args.chi)
        if args.json:
            _emit_json(
                {
                    "schema": SCHEMA_VERSION,
                    "command": "gauss-bonnet",
                    "chi": args.chi,
                    "volume_coefficient": _frac(value.coefficient),
                    "volume": value.approx,
                },
                out,
            )
        elif args.quiet:
            print(value.approx, file=out)
        else:
            print(f"volume = {value.coefficient}*pi^2 = {value.approx}", file=out)
    else:
        chi = chi_from_volume(args.volume, args.tol)
        if args.json:
            _emit_json(
                {
                    "schema": SCHEMA_VERSION,
                    "command": "gauss-bonnet",
                    "volume": args.volume,
                    "tolerance": args.tol,
                    "chi": chi,
                },
                out,
            )
        elif args.quiet:
            print(chi, file=out)
        else:
            print(f"chi = {chi}", file=out)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a single JSON object (rationals as \"p/q\" strings)",
    )
    shared.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print only the primary result",
    )

    parser = _Parser(
        prog="flateta",
        description=(
            "Exact eta-invariants of orientable flat Seifert fibered "
            "3-manifolds and integrality obstructions to geometric bounding."
        ),
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "eta",
        parents=[shared],
        help="exact eta-invariant with per-fiber breakdown",
    )
    p.add_argument("descriptor", help="Seifert descriptor, e.g. 'S2;(2,1)(3,-1)(6,-1)'")
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser(
        "obstruct",
        parents=[shared],
        help="geometric bounding obstruction report (exit 3 when obstructed)",
    )
    p.add_argument("descriptor", help="Seifert descriptor")
    p.set_defaults(handler=_cmd_obstruct)

    p = sub.add_parser(
        "dedekind",
        parents=[shared],
        help="exact Dedekind sum s(beta, alpha), both evaluation paths",
    )
    p.add_argument("beta", type=int)
    p.add_argument("alpha", type=int)
    p.set_defaults(handler=_cmd_dedekind)

    p = sub.add_parser(
        "catalog",
        parents=[shared],
        help="the six orientable flat 3-manifolds and their eta-invariants",
    )
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser(
        "gauss-bonnet",
        parents=[shared],
        help="volume <-> Euler characteristic conversion for hyperbolic 4-manifolds",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chi", type=int, help="Euler characteristic to convert to volume")
    group.add_argument("--volume", type=float, help="volume to convert to Euler characteristic")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="matching tolerance for --volume (default 1e-6)",
    )
    p.set_defaults(handler=_cmd_gauss_bonnet)

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.handler(args, out, err)
    except DescriptorSyntaxError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except ObstructionError as exc:
        print(f"error: {exc}", file=err)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
