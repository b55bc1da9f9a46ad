"""Command line surface: argv in, text out (descriptor text is read and
written by :mod:`flateta.seifert`).

Subcommands: eta, obstruct, dedekind, catalog, gauss-bonnet.  Results go
to stdout, errors to stderr.  Exit codes: 0 success, 1 usage, descriptor
syntax or output error, 2 domain/validation error, 3 obstruction (a
signature was implicitly requested but eta is not an integer).

``_COMMANDS`` declares each command's whole grammar; ``_parse`` reads
every argv against it and writes help and usage errors itself, the same
bytes on every Python.  Each command only computes: it returns one
renderer each for its JSON payload of exact values, its --quiet and its
human text.  ``run()`` calls only the one asked for (JSON through one
shared encoder) and maps any error onto its exit code through one table.

With --json every invocation prints a single JSON object; exact
rationals are serialized as "p/q" strings, never as floats.  The object
layout is documented in docs/output.schema.json.
"""

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .dedekind import _cot_sum, dedekind_cot, dedekind_sawtooth
from .errors import (DescriptorSyntaxError, DomainError, ObstructionError, UsageError, digit_limit,
                     shown)
from .eta import MULTI_CUSP_NOTE, EtaResult, eta_flat, flat_catalog, obstruction_report
from .gaussbonnet import TOLERANCE, chi_from_volume, real, volume_from_chi
from .seifert import SeifertData, parse_descriptor, render_descriptor

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# subcommands: each computes one result, run() renders it
# ---------------------------------------------------------------------------


# What a command found: the renderers of its JSON payload (exact values
# as Fractions), of its --quiet and of its human lines, each called only
# when that mode is asked for, and an error to report after the output is
# written (exit 3 for an obstructed ``obstruct``).
_Result = namedtuple("_Result", "payload quiet human error", defaults=(None,))


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
        lambda: _eta_payload(data, result),
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

    def payload() -> dict:
        return _eta_payload(data, report.eta) | {
            "geodesic_boundary_obstructed": report.geodesic_boundary_obstructed,
            "one_cusped_cross_section_obstructed": report.one_cusped_cross_section_obstructed,
            "predicted_signature": signature,
            "note": MULTI_CUSP_NOTE,
        }

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
    # The answer first: it refuses alpha above its ceiling before the
    # O(alpha) routes that check it run.
    s = dedekind_cot(args.beta, args.alpha)
    saw = dedekind_sawtooth(args.beta, args.alpha)
    cot = _cot_sum(args.beta % args.alpha, args.alpha)
    if not s == saw == cot:
        raise RuntimeError(f"internal error: Dedekind routes disagree at ({args.beta}, "
                           f"{args.alpha}): {s}, sawtooth {saw}, cotangent {cot}")
    return _Result(
        lambda: {"beta": args.beta, "alpha": args.alpha, "sawtooth": saw, "cotangent": cot},
        lambda: [str(s)],
        lambda: [
            f"s({args.beta},{args.alpha}) = {s}",
            f"  sawtooth path:  {saw}",
            f"  cotangent path: {cot}",
        ],
    )


@lru_cache
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
    return _Result(lambda: {"entries": rows}, lambda: quiet, lambda: human)


def _cmd_gauss_bonnet(args) -> _Result:
    if args.chi is not None:
        value = volume_from_chi(args.chi)
        return _Result(
            lambda: {"chi": args.chi, "volume_coefficient": value.coefficient,
                     "volume": value.approx},
            lambda: [value.approx],
            lambda: [f"volume = {value.coefficient}*pi^2 = {value.approx}"],
        )
    chi = chi_from_volume(args.volume, args.tol)
    return _Result(lambda: {"volume": float(args.volume), "tolerance": float(args.tol), "chi": chi},
                   lambda: [str(chi)], lambda: [f"chi = {chi}"])


# ---------------------------------------------------------------------------
# argv reader and dispatch
# ---------------------------------------------------------------------------


class _Help(Exception):
    """-h or --help was given; the single argument is the help text."""


def _integer(text: str) -> int:
    """int(text); ValueError, before int() runs, for more than digit_limit()
    digits, which int() would read in time quadratic in their number."""
    digits = text.strip().lstrip("+-")
    if len(digits) - digits.count("_") > digit_limit():
        raise ValueError(text)
    return int(text)


# A command's argument: a required positional, or a "--" option taking one
# value; exactly one of a command's one_of options is given.
_Arg = namedtuple("_Arg", "name convert help default one_of", defaults=(str, "", None, False))


# Each command's handler, help line and arguments: with _FLAGS, its grammar.
_COMMANDS = {
    "eta": (_cmd_eta, "exact eta-invariant with per-fiber breakdown",
            (_Arg("descriptor", help="Seifert descriptor, e.g. 'S2;(2,1)(3,-1)(6,-1)'"),)),
    "obstruct": (_cmd_obstruct, "geometric bounding obstruction report (exit 3 when obstructed)",
                 (_Arg("descriptor", help="Seifert descriptor"),)),
    "dedekind": (_cmd_dedekind, "exact Dedekind sum s(beta, alpha), both evaluation paths",
                 (_Arg("beta", _integer, "coprime to alpha"),
                  _Arg("alpha", _integer, "integer >= 1"))),
    "catalog": (lambda args: _catalog(),
                "the six orientable flat 3-manifolds and their eta-invariants", ()),
    "gauss-bonnet": (
        _cmd_gauss_bonnet,
        "volume <-> Euler characteristic conversion for hyperbolic 4-manifolds",
        (_Arg("--chi", _integer, "Euler characteristic to convert to volume", one_of=True),
         _Arg("--volume", real, "volume to convert to Euler characteristic", one_of=True),
         _Arg("--tol", real, "matching tolerance for --volume (default 1e-6)", TOLERANCE)),
    ),
}
_FLAGS = ["-h", "--help", "--json", "--quiet"]
_ABOUT = """Exact eta-invariants of orientable flat Seifert fibered 3-manifolds
and integrality obstructions to geometric bounding."""


def _help(command) -> str:
    """The help text of a command, or of the tool when command is None."""
    commands = tuple(_Arg(name, help=entry[1]) for name, entry in _COMMANDS.items())
    _, text, arguments = _COMMANDS.get(command, (None, _ABOUT, commands))
    labels = [f"{a.name} {a.name[2:].upper()}" if a.name[0] == "-" else a.name for a in arguments]
    group = " | ".join(s for s, a in zip(labels, arguments) if a.one_of)
    words = [s if a.name[0] != "-" else f"[{s}]" for s, a in zip(labels, arguments) if not a.one_of]
    words = ([f"({group})"] if group else []) + words if command else ["command ..."]
    rows = [*zip(labels, (a.help for a in arguments)), ("-h, --help", "show this help and exit"),
            ("--json", 'emit a single JSON object (rationals as "p/q" strings)'),
            ("--quiet", "print only the primary result")]
    usage = " ".join(filter(None, ["usage: flateta", command, "[-h] [--json] [--quiet]", *words]))
    return "\n".join([usage, "", text, "", *(f"  {a:<17} {b}" for a, b in rows)]) + "\n"


def _option(token: str, names: list[str]) -> tuple[str, str | None] | None:
    """The option a token names and its attached value, or None for a value:
    "--x=v" names the one option "--x" starts and "-hv" is -h with v; "-",
    a negative number and an unknown option with a space in it are values."""
    if token in names:
        return token, None
    if token[:1] != "-" or token == "-" or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None
    name, eq, value = token.partition("=") if token[1] == "-" else (token[:2], token[2:], token[2:])
    found = [n for n in names if n.startswith(name)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return None if " " in token else (token, None)


def _parse(argv) -> SimpleNamespace:
    """Read argv into the namespace the handlers read.  -h/--help, --json
    and --quiet count before and after the command, its options only after
    it, and every token after "--" is a value.  What stops the reading (an
    unknown command, an ambiguous option, an option without its value)
    fails at once, the first -h/--help writes help, and every other usage
    error waits for the end."""
    args = SimpleNamespace(json=False, quiet=False, command=None)
    names, arguments, given, values, extras = list(_FLAGS), (), {}, [], []
    cut = argv.index("--") if "--" in argv else len(argv)
    tokens = iter(argv[:cut])
    for token in tokens:
        found = _option(token, names)
        if found is None and args.command is None:
            if token not in _COMMANDS:
                raise UsageError(f"invalid command {shown(token)} "
                                 f"(choose from {', '.join(_COMMANDS)})")
            args.command, (args.handler, _, arguments) = token, _COMMANDS[token]
            names += [a.name for a in arguments if a.name[0] == "-"]
        elif found is None:
            values.append(token)
        elif found in (("-h", None), ("--help", None)):
            raise _Help(_help(args.command))
        elif found in (("--json", None), ("--quiet", None)):
            setattr(args, found[0][2:], True)
        elif found[0] in names[len(_FLAGS):]:
            given[found[0]] = found[1] if found[1] is not None else next(tokens, "--")
            if found[1] is None and (given[found[0]] == "--" or _option(given[found[0]], names)):
                raise UsageError(f"{found[0]}: expected one value")
        else:
            extras.append(token)
    if args.command is None:
        raise UsageError(f"missing command (choose from {', '.join(_COMMANDS)})")
    values += argv[cut + 1:]
    wanted = [a.name for a in arguments if a.name[0] != "-"]
    given.update(zip(wanted, values))
    extras += values[len(wanted):]
    group = [a.name for a in arguments if a.one_of]
    if len(values) < len(wanted):
        raise UsageError(f"{wanted[len(values)]}: expected one value")
    if group and sum(name in given for name in group) != 1:
        raise UsageError(f"exactly one of {', '.join(group)} is required")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    for a in arguments:
        text = given.get(a.name)
        try:
            setattr(args, a.name.lstrip("-"), a.default if text is None else a.convert(text))
        except ValueError:
            kind = "int" if a.convert is _integer else "float"
            raise UsageError(f"{a.name}: invalid {kind} value: {shown(text)}") from None
    return args


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
            raise UsageError(f"argv must be a list or tuple of str, got {shown(argv)}")
        args = _parse(argv)
        result = args.handler(args)
        if args.json:
            header = {"schema": SCHEMA_VERSION, "command": args.command}
            text = _JSON.encode(header | result.payload()) + "\n"
        else:
            text = "\n".join((result.quiet if args.quiet else result.human)()) + "\n"
        error = result.error
    except _Help as asked:
        text, error = str(asked), None
    except tuple(_EXIT_CODES) as exc:
        text, error = "", exc
    code = 0 if error is None else next(c for k, c in _EXIT_CODES.items() if isinstance(error, k))
    try:
        if text:
            print(text, end="", file=out, flush=True)  # out is None: no stdout, no output
    except (AttributeError, OSError, ValueError) as exc:  # no write(), or a closed file
        error, code = f"cannot write output: {exc}", 1
    if error is not None:
        try:
            print(f"error: {error}", file=err)
        except (AttributeError, OSError, ValueError):
            pass  # stderr failed as well; the exit code still reports it
    return code


def main() -> None:
    code = run(sys.argv[1:])
    try:  # run() flushed stdout or reported why not; exit must not flush it again
        sys.stdout.close()
    except (AttributeError, OSError):  # AttributeError: the process has no stdout
        pass
    sys.exit(code)
