"""Command line surface: argv in, text out (descriptor text is read and
written by :mod:`flateta.seifert`).

Subcommands: eta, obstruct, dedekind, catalog, gauss-bonnet.  Results go
to stdout, errors to stderr.  Exit codes: 0 success, 1 usage, descriptor
syntax or output error, 2 domain/validation error, 3 obstruction (a
signature was implicitly requested but eta is not an integer).

A plain argv (a command with string positionals, those strings and
exactly --json or --quiet) is read without argparse; any other
command-first argv goes straight to that command's parser, which alone
writes help (as text) and usage errors.  Each command only computes: it
returns one result holding a payload of exact values and one renderer
each for its --quiet and its human text.  ``run()`` writes the payload
through one shared JSON encoder under --json and otherwise calls only
the renderer of the requested mode, so no call builds text it does not
print, and it maps every error onto its exit code through one table.

With --json every invocation prints a single JSON object; exact
rationals are serialized as "p/q" strings, never as floats.  The object
layout is documented in docs/output.schema.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .dedekind import dedekind_cot, dedekind_sawtooth
from .errors import DescriptorSyntaxError, DomainError, ObstructionError, UsageError
from .eta import MULTI_CUSP_NOTE, EtaResult, eta_flat, flat_catalog, obstruction_report
from .gaussbonnet import chi_from_volume, volume_from_chi
from .seifert import SeifertData, parse_descriptor, render_descriptor

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# subcommands: each computes one result, run() renders it
# ---------------------------------------------------------------------------


class _Result(NamedTuple):
    """What a command found: the JSON payload (exact values as Fractions),
    the renderers of its --quiet and of its human text, each returning
    the lines and called only when that mode is asked for, and an error to
    report after the output is written (exit 3 for an obstructed
    ``obstruct``)."""

    payload: dict
    quiet: Callable[[], list[str]]
    human: Callable[[], list[str]]
    error: ObstructionError | None = None


def _eta_payload(data: SeifertData, result: EtaResult) -> dict:
    return {
        "descriptor": render_descriptor(data),
        "eta": result.value,
        "integral": result.integral,
        "fibers": [
            {"alpha": f.alpha, "beta": f.beta, "dedekind_sum": c}
            for f, c in result.fiber_contributions
        ],
    }


def _cmd_eta(args) -> _Result:
    data = parse_descriptor(args.descriptor)
    result = eta_flat(data)
    return _Result(
        _eta_payload(data, result),
        lambda: [str(result.value)],
        lambda: [
            f"eta = {result.value}",
            f"integral: {'yes' if result.integral else 'no'}",
            *(f"  fiber ({f.alpha},{f.beta}): s = {c}" for f, c in result.fiber_contributions),
        ],
    )


def _cmd_obstruct(args) -> _Result:
    data = parse_descriptor(args.descriptor)
    report = obstruction_report(data)
    eta, signature = report.eta.value, report.predicted_signature
    payload = _eta_payload(data, report.eta)
    payload.update(
        geodesic_boundary_obstructed=report.geodesic_boundary_obstructed,
        one_cusped_cross_section_obstructed=report.one_cusped_cross_section_obstructed,
        predicted_signature=signature,
        note=MULTI_CUSP_NOTE,
    )

    def human() -> list[str]:
        verdict = "obstructed" if report.geodesic_boundary_obstructed else "not obstructed"
        return [
            f"eta = {eta} ({'an integer' if report.eta.integral else 'not an integer'})",
            f"totally geodesic boundary of a compact hyperbolic 4-manifold: {verdict}",
            "cusp cross-section of a one-cusped finite-volume hyperbolic "
            f"4-manifold: {verdict}",
            f"predicted filler signature: {'none' if signature is None else signature}",
            f"note: {MULTI_CUSP_NOTE}",
        ]

    if signature is not None:
        return _Result(payload, lambda: [f"not obstructed; predicted signature {signature}"], human)
    error = ObstructionError(
        f"eta = {eta} is not an integer; geometric bounding is obstructed, "
        "no signature prediction exists"
    )
    return _Result(payload, lambda: ["obstructed"], human, error)


def _cmd_dedekind(args) -> _Result:
    # The cotangent route first: it refuses alpha above its ceiling before
    # the O(alpha) sawtooth would run.
    cot = dedekind_cot(args.beta, args.alpha)
    saw = dedekind_sawtooth(args.beta, args.alpha)
    return _Result(
        {"beta": args.beta, "alpha": args.alpha, "sawtooth": saw, "cotangent": cot},
        lambda: [str(saw)],
        lambda: [
            f"s({args.beta},{args.alpha}) = {saw}",
            f"  sawtooth path:  {saw}",
            f"  cotangent path: {cot}",
        ],
    )


def _cmd_catalog(args) -> _Result:
    return _catalog()


@lru_cache(maxsize=1)
def _catalog() -> _Result:
    """The catalog command's result, a per-process constant built on the
    first call: its rows and lines are its own, so a caller that mutates
    what flat_catalog() returned cannot change it."""
    rows, quiet, human = [], [], []
    for e in flat_catalog():
        desc = render_descriptor(e.seifert) if e.seifert else None
        rows.append(
            {
                "name": e.name,
                "holonomy": e.holonomy,
                "descriptor": desc,
                "eta": e.eta,
                "eta_integral": e.eta_integral,
                "note": e.note,
            }
        )
        quiet.append(f"{e.name} {'unknown' if e.eta is None else e.eta}")
        human.append(f"{e.name}  holonomy {e.holonomy}  {desc or '(no Seifert data)'}")
        if e.eta is None:
            human.append("    eta not computed (integral by assertion)")
        else:
            kind = "an integer" if e.eta_integral else "not an integer"
            human.append(f"    eta = {e.eta} ({kind})")
        human.append(f"    {e.note}")
    return _Result({"entries": rows}, lambda: quiet, lambda: human)


def _cmd_gauss_bonnet(args) -> _Result:
    if args.chi is not None:
        value = volume_from_chi(args.chi)
        return _Result(
            {"chi": args.chi, "volume_coefficient": value.coefficient, "volume": value.approx},
            lambda: [value.approx],
            lambda: [f"volume = {value.coefficient}*pi^2 = {value.approx}"],
        )
    chi = chi_from_volume(args.volume, args.tol)
    return _Result(
        {"volume": args.volume, "tolerance": args.tol, "chi": chi},
        lambda: [str(chi)],
        lambda: [f"chi = {chi}"],
    )


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


class _Help(Exception):
    """--help was given; the single argument is the help text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


# Each command's handler, help line and string positionals ({dest: help}),
# declared once: _build_parser builds the parsers from this table, and
# _parse reads a plain argv of a command with string positionals from it
# without argparse.  None: the command's arguments are typed, so
# _build_parser adds them and argparse reads every argv.
_COMMANDS = {
    "eta": (
        _cmd_eta,
        "exact eta-invariant with per-fiber breakdown",
        {"descriptor": "Seifert descriptor, e.g. 'S2;(2,1)(3,-1)(6,-1)'"},
    ),
    "obstruct": (
        _cmd_obstruct,
        "geometric bounding obstruction report (exit 3 when obstructed)",
        {"descriptor": "Seifert descriptor"},
    ),
    "dedekind": (
        _cmd_dedekind,
        "exact Dedekind sum s(beta, alpha), both evaluation paths",
        None,
    ),
    "catalog": (
        _cmd_catalog,
        "the six orientable flat 3-manifolds and their eta-invariants",
        {},
    ),
    "gauss-bonnet": (
        _cmd_gauss_bonnet,
        "volume <-> Euler characteristic conversion for hyperbolic 4-manifolds",
        None,
    ),
}


@lru_cache(maxsize=None)
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and {command: parser}, built once per process."""
    parser = _Parser(
        prog="flateta",
        description=(
            "Exact eta-invariants of orientable flat Seifert fibered "
            "3-manifolds and integrality obstructions to geometric bounding."
        ),
    )
    # Each flag twice: hidden before the command (default False), and in
    # every command, where it is left out of the namespace unless given.
    shared = argparse.ArgumentParser(add_help=False)
    for flag, text in (
        ("--json", 'emit a single JSON object (rationals as "p/q" strings)'),
        ("--quiet", "print only the primary result"),
    ):
        parser.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
        shared.add_argument(flag, action="store_true", default=argparse.SUPPRESS, help=text)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (handler, text, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=text)
        for dest, meaning in (positionals or {}).items():
            p.add_argument(dest, help=meaning)
        p.set_defaults(handler=handler)

    p = sub.choices["dedekind"]
    p.add_argument("beta", type=int)
    p.add_argument("alpha", type=int)

    p = sub.choices["gauss-bonnet"]
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chi", type=int, help="Euler characteristic to convert to volume")
    group.add_argument("--volume", type=float, help="volume to convert to Euler characteristic")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="matching tolerance for --volume (default 1e-6)",
    )

    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """Parse argv into the namespace the top-level parser builds.

    A plain argv is decided without argparse: its command has string
    positionals (eta, obstruct, catalog), and every later token is exactly
    --json or --quiet, or one of exactly as many strings as the command has
    positionals, none starting with '-'.  argparse reads such an argv the
    same way on every supported Python, so the namespace is built directly.
    Any other command-first argv goes to that command's parser, skipping
    the top-level pass that only routes it, and the rest to the top-level
    parser, so argparse alone writes every help text and usage error.
    """
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    command = argv[0]
    handler, _, positionals = _COMMANDS[command]
    if positionals is not None:
        strings = [a for a in argv[1:] if a != "--json" and a != "--quiet"]
        if len(strings) == len(positionals) and not any(a.startswith("-") for a in strings):
            return argparse.Namespace(
                json="--json" in argv,
                quiet="--quiet" in argv,
                command=command,
                **dict(zip(positionals, strings)),
                handler=handler,
            )
    start = argparse.Namespace(json=False, quiet=False, command=command)
    return commands[command].parse_args(argv[1:], start)


# Exit code of each error class; every FlatEtaError the CLI reports is one
# of these (subclasses included).
_EXIT_CODES = {UsageError: 1, DescriptorSyntaxError: 1, DomainError: 2, ObstructionError: 3}


def _exact(value):
    """JSON encoder hook: an exact rational is written as "p/q"."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# json.dumps(..., default=_exact) built once; encode() keeps its state per
# call, so concurrent run() calls can share it.
_JSON = json.JSONEncoder(default=_exact)


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        if not (isinstance(argv, (list, tuple)) and all(isinstance(a, str) for a in argv)):
            raise UsageError(f"argv must be a list or tuple of str, got {argv!r}")
        args = _parse(argv)
        result = args.handler(args)
        if args.json:
            header = {"schema": SCHEMA_VERSION, "command": args.command}
            text = _JSON.encode(header | result.payload) + "\n"
        else:
            text = "\n".join((result.quiet if args.quiet else result.human)()) + "\n"
        error = result.error
    except _Help as shown:
        text, error = str(shown), None
    except tuple(_EXIT_CODES) as exc:
        text, error = "", exc
    code = 0 if error is None else next(c for k, c in _EXIT_CODES.items() if isinstance(error, k))
    try:
        if text:
            print(text, end="", file=out, flush=True)  # out is None: no stdout, no output
    except OSError as exc:
        error, code = f"cannot write output: {exc}", 1
    if error is not None:
        try:
            print(f"error: {error}", file=err)
        except OSError:
            pass  # stderr failed as well; the exit code still reports it
    return code


def main() -> None:
    code = run(sys.argv[1:])
    try:  # run() flushed stdout or reported why not; exit must not flush it again
        sys.stdout.close()
    except (AttributeError, OSError):  # AttributeError: the process has no stdout
        pass
    sys.exit(code)
