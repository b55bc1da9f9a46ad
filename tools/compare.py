"""Differential check of flateta: this tree against a git revision.

Runs two seeded streams twice each, once on the ``src/`` of this working
tree and once on ``src/`` of REV, and reports every input whose outcome
differs, grouped by class:

* argvs through ``flateta.cli.run``: the outcome is (exit code, stdout,
  stderr);
* descriptor texts through ``flateta.parse_descriptor``, well-formed,
  whitespace-varied, truncated and junk: the outcome is the parsed value,
  or the error's class, message and byte offset.

Each side runs in its own subprocess, once per interpreter given.  REV is
unpacked with ``git archive`` into a temporary directory, so nothing is
left registered in the repository.  Only the standard library is used, so
any installed CPython can run it:

    python3 tools/compare.py HEAD~1
    python3 tools/compare.py HEAD~1 --count 200000 --python python3.11 python3.13

The exit status is 0 when no input differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The children: read one JSON input per line, write one JSON outcome per
# line: [code, stdout, stderr] for an argv; ["value", [base, b, fibers]]
# or [error class, message, offset] for a descriptor text.
CLI_CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from flateta import cli
with open(sys.argv[2], encoding="utf-8") as argvs, open(sys.argv[3], "w", encoding="utf-8") as out:
    for line in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = cli.run(json.loads(line), stdout=stdout, stderr=stderr)
        out.write(json.dumps([code, stdout.getvalue(), stderr.getvalue()]) + "\\n")
"""
DESCRIPTOR_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from flateta import parse_descriptor
with open(sys.argv[2], encoding="utf-8") as texts, open(sys.argv[3], "w", encoding="utf-8") as out:
    for line in texts:
        try:
            s = parse_descriptor(json.loads(line))
            row = ["value", [s.base.value, s.b, [[f.alpha, f.beta] for f in s.fibers]]]
        except Exception as exc:
            row = [type(exc).__name__, str(exc), getattr(exc, "offset", None)]
        out.write(json.dumps(row) + "\\n")
"""

COMMANDS = ["eta", "obstruct", "dedekind", "catalog", "gauss-bonnet", "frobnicate", "ETA"]
CATALOG = ["T2;", "S2;(2,1)(2,1)(2,-1)(2,-1)", "S2;(3,2)(3,-1)(3,-1)",
           "S2;(2,1)(4,-1)(4,-1)", "S2;(2,1)(3,-1)(6,-1)", "S2;b=1;(2,1)(3,2)(6,1)"]
INTEGERS = ["0", "-1", "-1001", "1001", str(10**9), "x", "1.5", "", " 7", "+3", "1_0", "-0"]
REALS = ["nan", "-nan", "inf", "-inf", "1e400", "text", "13.1594725348", "0", "-1",
         "-2.5", "-.5", "-1e5", "1e-300", " 26.3189450696 "]
# Tokens at the edges of the grammar: the option end, attached values,
# prefixes, negative numbers and option-like tokens holding a space.
HOSTILE = ["--", "--", "-hx", "-hh", "-h=", "--=x", "--=", "--j", "--js", "--jso", "--q",
           "--qui", "--he", "--h", "--c", "--v", "--vol", "--t", "--to", "--c=2", "--chi=3",
           "--volume=-1e5", "--tol=1e-3", "--json=", "--json=1", "--quiet=x", "-1", "-7",
           "-2.5", "-.5", "-1e5", "-", "-x", "--bogus", "---json", "-1 ", "-x y", "--json x",
           "--chi 2", "eta T2;", " -S2;", "-S2;", "—json", "-h", "--help", "--json",
           "--quiet", "--chi", "--volume", "--tol"]
EDIT_ALPHABET = "ST2;b=(),+-0139 x ²٢"
# str.isspace() characters, which the grammar skips between tokens, and
# integers at the edges of the grammar and of int()'s digit limit.
SPACES = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"]
EDGE_INTEGERS = ["+3", "-0", "+0", "007", "-007", "9" * 4300, "-" + "9" * 4300, "9" * 4301,
                 "1" + "0" * 5000]


def _edited(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        pos, edit = rng.randint(0, len(text)), rng.randrange(4)
        if edit == 0:
            text = text[:pos]
        elif edit == 1:
            text = text[:pos] + rng.choice(EDIT_ALPHABET) + text[pos:]
        else:
            text = text[:pos] + (rng.choice(EDIT_ALPHABET) if edit == 2 else "") + text[pos + 1:]
    return text


def _descriptor(rng: random.Random) -> str:
    text = rng.choice(CATALOG)
    return text if rng.random() < 0.5 else _edited(rng, text)


def _integer(rng: random.Random) -> str:
    return str(rng.randint(-60, 60)) if rng.random() < 0.7 else rng.choice(INTEGERS)


def _real(rng: random.Random) -> str:
    return repr(rng.uniform(-1e3, 1e3)) if rng.random() < 0.4 else rng.choice(REALS)


def argv_stream(seed: int, count: int):
    """count argvs: the shapes of the CLI property tests (a command, its
    arguments, a stray argument now and then, flags anywhere), each with
    up to three hostile tokens inserted at random places."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(COMMANDS)
        argv = [command]
        if command in ("eta", "obstruct"):
            argv.append(_descriptor(rng))
        elif command == "dedekind":
            argv += [_integer(rng), _integer(rng)]
        elif command == "gauss-bonnet":
            for flag, values in (("--chi", _integer), ("--volume", _real), ("--tol", _real)):
                if rng.random() < 0.5:
                    argv += [flag, values(rng)]
        if rng.random() < 0.1:
            argv.append(rng.choice([_integer, _descriptor])(rng))
        for flag in rng.choices(["--json", "--quiet"] * 3 + ["--help", "-h"], k=rng.randint(0, 3)):
            argv.insert(rng.randint(0, len(argv)), flag)
        for token in rng.choices(HOSTILE, k=rng.choice([0, 0, 1, 1, 2, 3])):
            argv.insert(rng.randint(0, len(argv)), token)
        yield argv


def _descriptor_tokens(rng: random.Random) -> list[str]:
    """The tokens of a descriptor the grammar accepts, with values that
    are valid Seifert data, invalid (alpha < 2, gcd > 1) or edge integers."""

    def integer(small: int) -> str:
        return rng.choice(EDGE_INTEGERS) if rng.random() < 0.03 else str(rng.randint(-small, small))

    tokens = [rng.choice(["S2", "T2"]), ";"]
    if rng.random() < 0.3:
        tokens += ["b", "=", integer(9), ";"]
    for _ in range(rng.choice([0, 1, 2, 3, 3, 4, 4, 5])):
        if rng.random() < 0.8:  # a valid fiber: beta = +-1 mod alpha
            alpha = rng.choice([2, 3, 4, 6])
            pair = [str(alpha), str(rng.choice([1, -1]) + alpha * rng.randint(-3, 3))]
        else:
            pair = [integer(12), integer(13)]
        tokens += ["(", pair[0], ",", pair[1], ")"]
    return tokens


def descriptor_stream(seed: int, count: int):
    """count descriptor texts, a quarter of each shape: well-formed,
    whitespace-varied, truncated (a prefix of a spaced text) and junk
    (random characters, or a spaced text edited like the argv stream's)."""
    rng = random.Random(seed)
    for _ in range(count):
        tokens, shape = _descriptor_tokens(rng), rng.randrange(4)
        if shape == 0:
            yield "".join(tokens)
            continue
        text = "".join(rng.choice(SPACES) + t if rng.random() < 0.4 else t for t in tokens)
        if rng.random() < 0.3:
            text += rng.choice(SPACES)
        if shape == 2:
            text = text[:rng.randrange(len(text) + 1)]
        elif shape == 3:
            alphabet = EDIT_ALPHABET + "".join(SPACES)
            text = (_edited(rng, text) if rng.random() < 0.5
                    else "".join(rng.choices(alphabet, k=rng.randint(0, 24))))
        yield text


def _unpack(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def _run_side(python: str, child: str, src: Path, inputs: Path, out: Path) -> Path:
    subprocess.run([python, "-c", child, str(src), str(inputs), str(out)], check=True)
    return out


def _kind(code: int, stdout: str) -> str:
    if stdout.startswith("usage: flateta"):
        return "help"
    return "usage or syntax error" if code == 1 else f"exit {code}"


def _argv_class(before, after) -> str:
    (c0, out0, err0), (c1, out1, err1) = before, after
    streams = "+".join(name for name, x, y in (("exit", c0, c1), ("stdout", out0, out1),
                                               ("stderr", err0, err1)) if x != y)
    return f"{_kind(c0, out0)} -> {_kind(c1, out1)}; exit {c0} -> {c1}; differs: {streams}"


def _descriptor_class(before, after) -> str:
    parts = "+".join(name for name, x, y in zip(("class", "value or message", "offset"),
                                                before + [None], after + [None]) if x != y)
    return f"{before[0]} -> {after[0]}; differs: {parts}"


def compare(inputs: Path, old: Path, new: Path, classify) -> int:
    """Print every class of differing input with its first example; return
    the number of inputs that differ."""
    groups, shown = Counter(), {}
    with open(inputs, encoding="utf-8") as i, open(old, encoding="utf-8") as o, \
            open(new, encoding="utf-8") as n:
        for line, before, after in zip(i, o, n):
            if before == after:
                continue
            key = classify(json.loads(before), json.loads(after))
            groups[key] += 1
            shown.setdefault(key, (json.loads(line), before.strip(), after.strip()))
    for key, count in groups.most_common():
        given, before, after = shown[key]
        print(f"  {count:7d}  {key}\n{'':13}input {given!r:.160}")
        print(f"{'':15}was {before[:160]}\n{'':15}now {after[:160]}")
    return sum(groups.values())


# Each stream: its name, its generator, the child that runs an input, and
# how a difference is classed.
STREAMS = [("argvs", argv_stream, CLI_CHILD, _argv_class),
           ("descriptors", descriptor_stream, DESCRIPTOR_CHILD, _descriptor_class)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this tree against")
    parser.add_argument("--count", type=int, default=200_000, help="inputs in each stream")
    parser.add_argument("--seed", type=int, default=16, help="seed of the streams")
    parser.add_argument("--python", nargs="+", default=[sys.executable], help="interpreters")
    options = parser.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = _unpack(options.rev, tmp / "rev")
        for name, stream, child, classify in STREAMS:
            inputs = tmp / f"{name}.jsonl"
            with open(inputs, "w", encoding="utf-8") as f:
                for given in stream(options.seed, options.count):
                    f.write(json.dumps(given) + "\n")
            for i, python in enumerate(options.python):
                with ThreadPoolExecutor(2) as pool:
                    old, new = pool.map(
                        _run_side, [python] * 2, [child] * 2, [old_src, ROOT / "src"],
                        [inputs] * 2, [tmp / f"{name}-old{i}.jsonl", tmp / f"{name}-new{i}.jsonl"])
                print(f"{python}: {options.count} {name}, seed {options.seed}, against {options.rev}")
                found = compare(inputs, old, new, classify)
                print(f"  {found} differ")
                differ += found
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
