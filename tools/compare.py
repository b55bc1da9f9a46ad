"""Differential check of the flateta CLI: this tree against a git revision.

Runs one seeded stream of argvs through ``flateta.cli.run`` twice, once on
the ``src/`` of this working tree and once on ``src/`` of REV, and reports
every argv whose (exit code, stdout, stderr) differs, grouped by class.
Each side runs in its own subprocess, once per interpreter given.  REV is
unpacked with ``git archive`` into a temporary directory, so nothing is
left registered in the repository.  Only the standard library is used, so
any installed CPython can run it:

    python3 tools/compare.py HEAD~1
    python3 tools/compare.py HEAD~1 --count 200000 --python python3.10 python3.13

The exit status is 0 when no argv differs, 1 otherwise.
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

# The child: read one JSON argv per line, write one JSON [code, stdout,
# stderr] per line.
CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from flateta import cli
with open(sys.argv[2], encoding="utf-8") as argvs, open(sys.argv[3], "w", encoding="utf-8") as out:
    for line in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = cli.run(json.loads(line), stdout=stdout, stderr=stderr)
        out.write(json.dumps([code, stdout.getvalue(), stderr.getvalue()]) + "\\n")
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


def _descriptor(rng: random.Random) -> str:
    text = rng.choice(CATALOG)
    if rng.random() < 0.5:
        return text
    for _ in range(rng.randint(1, 4)):
        pos, edit = rng.randint(0, len(text)), rng.randrange(4)
        if edit == 0:
            text = text[:pos]
        elif edit == 1:
            text = text[:pos] + rng.choice(EDIT_ALPHABET) + text[pos:]
        else:
            text = text[:pos] + (rng.choice(EDIT_ALPHABET) if edit == 2 else "") + text[pos + 1:]
    return text


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


def _unpack(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def _run_side(python: str, src: Path, argvs: Path, out: Path) -> Path:
    subprocess.run([python, "-c", CHILD, str(src), str(argvs), str(out)], check=True)
    return out


def _kind(code: int, stdout: str) -> str:
    if stdout.startswith("usage: flateta"):
        return "help"
    return "usage or syntax error" if code == 1 else f"exit {code}"


def compare(argvs: Path, old: Path, new: Path) -> int:
    """Print every class of differing argv with its first example; return
    the number of argvs that differ."""
    groups, shown = Counter(), {}
    with open(argvs, encoding="utf-8") as a, open(old, encoding="utf-8") as o, \
            open(new, encoding="utf-8") as n:
        for line, before, after in zip(a, o, n):
            if before == after:
                continue
            (c0, out0, err0), (c1, out1, err1) = json.loads(before), json.loads(after)
            streams = "+".join(name for name, x, y in (("exit", c0, c1), ("stdout", out0, out1),
                                                       ("stderr", err0, err1)) if x != y)
            key = f"{_kind(c0, out0)} -> {_kind(c1, out1)}; exit {c0} -> {c1}; differs: {streams}"
            groups[key] += 1
            shown.setdefault(key, (json.loads(line), before.strip(), after.strip()))
    for key, count in groups.most_common():
        argv, before, after = shown[key]
        print(f"  {count:7d}  {key}\n{'':13}argv {argv!r}")
        print(f"{'':15}was {before[:160]}\n{'':15}now {after[:160]}")
    return sum(groups.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this tree against")
    parser.add_argument("--count", type=int, default=200_000, help="argvs in the stream")
    parser.add_argument("--seed", type=int, default=16, help="seed of the argv stream")
    parser.add_argument("--python", nargs="+", default=[sys.executable], help="interpreters")
    options = parser.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = _unpack(options.rev, tmp / "rev")
        argvs = tmp / "argvs.jsonl"
        with open(argvs, "w", encoding="utf-8") as f:
            for argv in argv_stream(options.seed, options.count):
                f.write(json.dumps(argv) + "\n")
        for i, python in enumerate(options.python):
            with ThreadPoolExecutor(2) as pool:
                old, new = pool.map(_run_side, [python] * 2, [old_src, ROOT / "src"], [argvs] * 2,
                                    [tmp / f"old{i}.jsonl", tmp / f"new{i}.jsonl"])
            print(f"{python}: {options.count} argvs, seed {options.seed}, against {options.rev}")
            found = compare(argvs, old, new)
            print(f"  {found} differ")
            differ += found
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
