"""Which code of flateta its production entries reach.

Traces line by line (``sys.settrace``, the standard library only) while
it runs the production entries, from the first ``import flateta`` on:

* every argv of the CLI corpus (``corpus()`` in tests/test_corpus.py)
  through ``flateta.cli.run``, in process;
* the library calls of ``cli_mix``, seed 1, made by perfbench/worker.py
  itself: its warm-up and one pass of its operations with the public
  calls its trace mode replays;
* a cold ``dedekind_cot``, the reciprocity answer, for every coprime
  pair with alpha up to ``ALPHA_MAX``, the caches cleared once before
  the walk (the cotangent trace route is reached through the corpus's
  ``dedekind`` argvs);
* last, ``dedekind_sweep``'s trace mode, seed 1, which stages every cold
  field through ``cyclotomic_polynomial``, ``cot_exact`` and promoted
  coefficients.

It writes, per module of src/flateta, the functions never entered, the
functions that only that last entry, the benchmark's staging, enters
(the library itself does not need them) and, in the functions entered,
the lines never run.  It exits 1 when a function that is never entered
is not in ``ALLOWLIST``, or when an entry there names a function all of
whose code ran: each entry is code that only tests reach, kept for the
test it names (an oracle, or the value protocol of the package's value
classes, which no production entry compares, hashes, reprs, copies or
assigns to).  Line numbers follow the interpreter's line
table, so a report is read against the CPython that wrote it.  A run
takes about 4 s (CPython 3.11, x86-64); the report goes to stdout and
each failure to stderr:

    python3 tools/reach.py > docs/reach.txt
"""

from __future__ import annotations

import dis
import io
import platform
import sys
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flateta"
SEED = 1
ALPHA_MAX = 60
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
CO_OPTIMIZED = 0x1  # set on functions and comprehensions, not on module or class bodies

# module.qualname -> the code only tests reach, and the test that checks it
ALLOWLIST = {
    "dedekind.sawtooth": "the sawtooth ((x)) itself; "
    "tests/test_dedekind.py::TestSawtoothSum::test_matches_its_literal_definition",
    "gaussbonnet.doubled_euler": "a paper identity; tests/test_gaussbonnet.py::TestDoubledEuler",
    "cli.main": "the console script; "
    "tests/test_cli.py::TestCliContract::test_console_script_writing_to_a_full_device",
    "errors.Value._frozen": "assignment and deletion refused; "
    "tests/test_seifert.py::test_invalid_field_is_refused_at_construction_and_replace",
    "errors.Value.__eq__": "the value protocol; tests/test_seifert.py::test_value_protocol",
    "errors.Value.__hash__": "the value protocol; tests/test_seifert.py::test_value_protocol",
    "errors.Value.__repr__": "the value protocol; tests/test_seifert.py::test_value_protocol",
    "errors.Value.__reduce__": "pickle and copy; tests/test_seifert.py::test_value_protocol",
}


class Function:
    """A function of the source (a lambda included) with the comprehensions
    inside it, whose lines count as its own."""

    def __init__(self, module: str, code):
        self.name = f"{module}.{code.co_qualname}"
        self.line = code.co_firstlineno
        self.codes = [code]
        self.lines: set[int] = set()
        self.add(code)

    def add(self, code) -> None:
        self.lines |= {line for _, line in dis.findlinestarts(code) if line is not None}
        for const in code.co_consts:
            if hasattr(const, "co_code") and const.co_name in COMPREHENSIONS:
                self.codes.append(const)
                self.add(const)


def functions(path: Path) -> list[Function]:
    """Every function of one module, from its compiled source."""
    module, found = path.stem, []

    def walk(code) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name in COMPREHENSIONS:
                continue
            if const.co_flags & CO_OPTIMIZED:
                found.append(Function(module, const))
            walk(const)

    # dont_inherit: compile with the module's own __future__ flags, not this file's
    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True))
    return found


class Tracer:
    """The lines each flateta code object ran, keyed by the code object."""

    def __init__(self):
        self.package = str(PACKAGE)
        self.ran: dict = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.package):
            return None
        lines = self.ran.setdefault(code, {code.co_firstlineno})

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def run_entries(tracer: Tracer) -> tuple[list[str], set]:
    """Make every production call; return what was run, for the report,
    and the code objects entered before the benchmark's staging."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import flateta
    from flateta import cli, dedekind_cot
    from test_corpus import corpus
    import worker
    import workloads

    argvs = corpus()
    for argv in argvs:
        cli.run(argv, io.StringIO(), io.StringIO())
    client = worker.CliMix()
    client.warm_up()
    ops = [spec["argv"] for spec in workloads.cli_ops(SEED, workloads.CLI_MIX_BLOCKS)]
    worker.run_cli_pass(client, ops, 0, len(ops), spans=worker.Spans(), replay=client.replay)
    caches = worker.discover_caches()
    worker.clear_caches(caches)
    pairs = 0
    for alpha in range(1, ALPHA_MAX + 1):
        for beta in range(alpha):
            if gcd(beta, alpha) == 1:
                dedekind_cot(beta, alpha)
                pairs += 1
    before = set(tracer.ran)
    sweep = workloads.sweep_ops(SEED)
    worker.trace_sweep(worker.Sweep(), sweep, 0, caches, str(Path(flateta.__file__).parent))
    return [
        f"{len(argvs)} corpus argvs through flateta.cli.run",
        f"cli_mix, seed {SEED}: warm-up and {len(ops)} operations with their replayed calls",
        f"cold dedekind_cot for all {pairs} coprime pairs with alpha <= {ALPHA_MAX}",
        f"dedekind_sweep, seed {SEED}: trace mode over {len(sweep)} calls, "
        "its staging of cold fields included",
    ], before


def _ranges(lines) -> str:
    """Line numbers as sorted runs: '3, 5-7'."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(entries: list[str], ran: dict, before: set) -> tuple[list[str], list[str]]:
    """The report's lines, and the problems that fail the check."""
    modules = {path.stem: functions(path) for path in sorted(PACKAGE.glob("*.py"))}
    every = [f for fs in modules.values() for f in fs]
    never = [f for f in every if f.codes[0] not in ran]
    staged = [f for f in every if f.codes[0] in ran and f.codes[0] not in before]
    unrun = {f.name: f.lines - set().union(*(ran.get(code, ()) for code in f.codes))
             for f in every}
    problems = [f"{f.name} (line {f.line}) is never entered and not in the allowlist"
                for f in never if f.name not in ALLOWLIST]
    names = {f.name for f in every}
    problems += [f"allowlist entry {name} names no function" for name in ALLOWLIST
                 if name not in names]
    problems += [f"allowlist entry {name}: all of its code ran" for name in ALLOWLIST
                 if name in names and not unrun[name]]
    lines = [
        "flateta reachability (tools/reach.py), "
        f"{platform.python_implementation()} {platform.python_version()}",
        "",
        "entries:",
        *(f"  {entry}" for entry in entries),
        "",
        f"{len(every)} functions, {len(never)} never entered "
        f"({sum(len(f.lines) for f in never)} lines); "
        f"{sum(len(unrun[f.name]) for f in every if f not in never)} lines never run "
        "in the functions entered",
        f"{len(staged)} functions ({sum(len(f.lines) for f in staged)} lines) entered only "
        "by dedekind_sweep's staging",
    ]
    for module, fs in modules.items():
        lines += ["", f"{module}.py: {len(fs)} functions"]
        for f in fs:
            if f in never:
                lines.append(f"  never entered: {f.name} (line {f.line}, {len(f.lines)} lines)")
            elif f in staged:
                lines.append(f"  only dedekind_sweep's staging enters: {f.name} (line {f.line}, "
                             f"{len(f.lines)} lines)")
            if f not in never and unrun[f.name]:
                lines.append(f"  lines never run in {f.name}: {_ranges(unrun[f.name])}")
            if f.name in ALLOWLIST and unrun[f.name]:
                lines.append(f"    allowlisted: {ALLOWLIST[f.name]}")
    return lines, problems


def main() -> int:
    tracer = Tracer()
    sys.settrace(tracer)
    try:
        entries, before = run_entries(tracer)
    finally:
        sys.settrace(None)
    lines, problems = report(entries, tracer.ran, before)
    print("\n".join(lines))
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
