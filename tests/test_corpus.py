"""Behaviour corpus: the CLI's exact bytes on a fixed set of argvs.

``corpus()`` is a seeded generator (``random.Random``, no hypothesis) of
about 3,000 argvs, each run in human, --quiet and --json mode:

* ``eta`` and ``obstruct`` on the catalog, on generated flat descriptors
  (varied whitespace, fiber order, shifted betas and an explicit b) and
  on malformed ones (non-flat, invalid and syntactically broken text);
* ``dedekind`` for every -alpha <= beta <= alpha with alpha < 40,
  coprime or not;
* ``gauss-bonnet`` in both directions, including refused values;
* ``catalog``, twice;
* README's seven CLI examples;

and then, once each, every help argv and a set of usage errors (a
missing or unknown command, a missing, unreadable or clashing value, an
ambiguous or unknown option).

``tests/cli_corpus.sha256`` holds, in generator order, one sha256 per
argv over its (exit code, stdout, stderr).  The CLI writes its help and
usage errors itself, so one recorded file holds on every supported
CPython.

Record the file again only for an intended change of output:

    PYTHONPATH=src python tests/test_corpus.py
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from flateta import cli

RECORD = Path(__file__).with_name("cli_corpus.sha256")
SEED = 20001
MODES = ((), ("--quiet",), ("--json",))

_CATALOG = ["T2;", "S2;(2,1)(2,1)(2,-1)(2,-1)", "S2;(3,2)(3,-1)(3,-1)",
            "S2;(2,1)(4,-1)(4,-1)", "S2;(2,1)(3,-1)(6,-1)"]
# The orbifold signatures with chi_orb = 0 over S2 (T2 has no fibers).
_FLAT_SIGNATURES = ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6))
_SPACE = ["", "", "", " ", "  ", "\t", "\n", "\u00a0"]
_JUNK = list(";(),b=+-0123456789 ST2x\u00a0")


def _spaced(rng: random.Random, tokens) -> str:
    return "".join(rng.choice(_SPACE) + t for t in tokens) + rng.choice(_SPACE)


def _render(rng: random.Random, base: str, b: int, fibers, show_b: bool) -> str:
    tokens = [base, ";"]
    if b or show_b:
        tokens += ["b", "=", str(b), ";"]
    for alpha, beta in fibers:
        signed = f"+{beta}" if beta >= 0 and rng.random() < 0.1 else str(beta)
        tokens += ["(", str(alpha), ",", signed, ")"]
    return _spaced(rng, tokens)


def _flat(rng: random.Random) -> str:
    """Flat Seifert data as text: b makes the Euler number vanish."""
    if rng.random() < 0.1:
        return _render(rng, "T2", 0, [], rng.random() < 0.5)
    alphas = list(rng.choice(_FLAT_SIGNATURES))
    while True:
        betas = [rng.choice([r for r in range(1, a) if gcd(r, a) == 1]) for a in alphas[:-1]]
        last = -sum(Fraction(b, a) for b, a in zip(betas, alphas)) * alphas[-1]
        if last.denominator == 1 and gcd(int(last), alphas[-1]) == 1:
            break
    betas.append(int(last))
    betas = [beta + a * rng.randint(-2, 2) for beta, a in zip(betas, alphas)]
    b = -sum(Fraction(beta, a) for beta, a in zip(betas, alphas))
    fibers = list(zip(alphas, betas))
    rng.shuffle(fibers)
    return _render(rng, "S2", int(b), fibers, rng.random() < 0.2)


def _not_flat(rng: random.Random) -> str:
    """Well-formed text that is not flat, or not valid Seifert data."""
    fibers = [(rng.randint(0, 9), rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
    return _render(rng, rng.choice(["S2", "T2"]), rng.randint(-3, 3), fibers, False)


def _broken(rng: random.Random) -> str:
    """A flat text with one to three characters deleted, inserted or
    replaced; one starting with '-' would be read as an option."""
    text = _flat(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_JUNK) + text[i + (edit == 2):]
    return text.lstrip("-")


def _volume(rng: random.Random, chi: int) -> str:
    """The volume of Euler characteristic chi, or near it, to 3-17 digits."""
    value = 4 * math.pi ** 2 / 3 * chi * rng.choice([1, 1, 1.0000001, 0.999, 1.5])
    return f"{value:.{rng.randint(3, 17)}g}"


def corpus() -> list[list[str]]:
    """Every argv of the corpus, in recording order."""
    rng = random.Random(SEED)
    descriptors = _CATALOG + [_flat(rng) for _ in range(300)]
    descriptors += [_not_flat(rng) for _ in range(100)]
    descriptors += [_broken(rng) for _ in range(200)]
    argvs = [[command, text] for text in descriptors for command in ("eta", "obstruct")]
    argvs += [
        ["dedekind", str(beta), str(alpha)]
        for alpha in range(1, 40)
        for beta in range(-alpha, alpha + 1)
    ]
    chis = list(range(-3, 61)) + [2 * rng.randint(31, 10**6) for _ in range(40)] + [10**400]
    argvs += [["gauss-bonnet", "--chi", str(chi)] for chi in chis]
    volumes = [_volume(rng, chi) for chi in range(1, 80)]
    volumes += ["0", "-1.5", "-2", "nan", "inf", "1e400", "1e-300"]
    tolerances = ["1e-6", "0.5", "3", "1e-12", "0", "-1.0", "nan"]
    argvs += [["gauss-bonnet", "--volume", v, "--tol", rng.choice(tolerances)] for v in volumes]
    argvs += [["catalog"], ["catalog"]]
    argvs += [  # README's CLI examples
        ["eta", "S2;(2,1)(3,-1)(6,-1)"],
        ["obstruct", "S2;(2,1)(3,-1)(6,-1)"],
        ["obstruct", "T2;"],
        ["dedekind", "3", "7"],
        ["catalog"],
        ["gauss-bonnet", "--chi", "1"],
        ["gauss-bonnet", "--volume", "26.3189450696", "--tol", "1e-6"],
    ]
    moded = [argv + list(mode) for argv in argvs for mode in MODES]
    commands = [[], ["eta"], ["obstruct"], ["dedekind"], ["catalog"], ["gauss-bonnet"]]
    helps = [command + [flag] for command in commands for flag in ("-h", "--help")]
    usage_errors = [
        [],
        ["frobnicate"],
        ["--", "eta", "T2;"],
        ["eta"],
        ["dedekind", "1"],
        ["dedekind", "x", "5"],
        ["gauss-bonnet"],
        ["gauss-bonnet", "--chi"],
        ["gauss-bonnet", "--volume", "x"],
        ["gauss-bonnet", "--chi", "1", "--volume", "2"],
        ["gauss-bonnet", "--=x"],
        ["eta", "T2;", "-hx"],
        ["eta", "T2;", "--json=1"],
        ["catalog", "extra", "--bogus"],
    ]
    return moded + helps + usage_errors


def digest(argv) -> str:
    """sha256 over (exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def test_corpus_bytes_match_the_record():
    argvs = corpus()
    recorded = RECORD.read_text().split()
    assert len(recorded) == len(argvs), f"{len(recorded)} digests for {len(argvs)} argvs"
    mismatches = [
        f"{argv!r}: recorded {want}, got {got}"
        for argv, want in zip(argvs, recorded)
        if (got := digest(argv)) != want
    ]
    assert not mismatches, f"{len(mismatches)} changed:\n" + "\n".join(mismatches[:20])


if __name__ == "__main__":
    RECORD.write_text("".join(digest(argv) + "\n" for argv in corpus()))
