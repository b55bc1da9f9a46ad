"""Seeded input streams for the two workloads.

Everything here is a pure function of the seed.  A run plays its stream
over and over, and every operation is checked by its index, so the
streams are short: each operation is timed in several passes.
"""

from __future__ import annotations

import random
from math import gcd, lcm

# -- cli_mix -----------------------------------------------------------------

# One block of 40 operations, shuffled per block, fixes the mix exactly:
# 45% eta, 35% obstruct, 10% refused input, 5% gauss-bonnet (a --chi call
# and the --volume call that feeds its printed volume back), and the rest
# catalog and dedekind.
BLOCK = (
    ["eta"] * 18 + ["obstruct"] * 14 + ["error"] * 4 + ["gb"] + ["catalog"] + ["dedekind"]
)
# 400 operations, so p90 has 40 beyond it.
CLI_MIX_BLOCKS = 10

# The orbifold signatures on S2 with chi_orb = 0.  Largest multiplicity
# last, so the last fiber can absorb the Euler number.
FLAT_SIGNATURES = ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6))
MAX_CHI = 10**8


def _coprime(rng: random.Random, alpha: int, span: int) -> int:
    while True:
        beta = rng.randint(-span * alpha, span * alpha)
        if gcd(beta, alpha) == 1:
            return beta


def flat_fibers(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """(b, fibers) on S2 with e = 0; betas range over [-4a, 4a]."""
    signature = rng.choice(FLAT_SIGNATURES)
    while True:
        fibers = [(a, _coprime(rng, a, 4)) for a in signature[:-1]]
        last = signature[-1]
        # last * sum(beta_i / alpha_i) is an integer for every signature.
        partial = sum(beta * (last // a) for a, beta in fibers)
        residue = -partial % last
        if gcd(residue, last) != 1:
            continue
        beta = residue + last * rng.randint(-4, 3)
        fibers.append((last, beta))
        total = sum(beta * (last // a) for a, beta in fibers)
        b = -total // last
        rng.shuffle(fibers)
        return b, fibers


def _ws(rng: random.Random) -> str:
    return rng.choice(("", "", "", " ", "  ", "\t"))


def render_varied(rng: random.Random, base: str, b: int, fibers) -> str:
    """Descriptor text with random whitespace, optional b=0 and '+' signs."""

    def num(n: int) -> str:
        return f"+{n}" if n > 0 and rng.random() < 0.1 else str(n)

    w = lambda: _ws(rng)  # noqa: E731
    parts = [w(), base, w(), ";"]
    if b or rng.random() < 0.3:
        parts += [w(), "b", w(), "=", w(), num(b), w(), ";"]
    for alpha, beta in fibers:
        parts += [w(), "(", w(), num(alpha), w(), ",", w(), num(beta), w(), ")"]
    parts.append(w())
    return "".join(parts)


def _flat_descriptor(rng: random.Random) -> tuple[dict, str]:
    if rng.random() < 0.08:
        base, b, fibers = "T2", 0, []
    else:
        base, (b, fibers) = "S2", flat_fibers(rng)
    return {"base": base, "b": b, "fibers": fibers}, render_varied(rng, base, b, fibers)


def _error_op(rng: random.Random) -> dict:
    """Input the tool must refuse: exit 1 (syntax, usage) or 2 (domain)."""
    command = rng.choice(("eta", "obstruct"))
    kind = rng.randrange(7)
    base, b, fibers = "S2", *flat_fibers(rng)
    if kind == 0:  # non-flat: Euler number off by one
        text, code = render_varied(rng, base, b + rng.choice((-1, 1)), fibers), 2
    elif kind == 1:  # non-flat base orbifold
        text, code = render_varied(rng, base, 0, [(2, 1), (3, 1)]), 2
    elif kind == 2:  # non-coprime fiber
        alpha = rng.choice((2, 4, 6))
        fibers[0] = (alpha, 2 * rng.randint(1, 5))
        text, code = render_varied(rng, base, b, fibers), 2
    elif kind == 3:  # multiplicity below 2
        text, code = render_varied(rng, base, 0, [(1, 0)] + fibers), 2
    elif kind == 4:  # syntax: broken text
        good = render_varied(rng, base, b, fibers)
        text = rng.choice(
            (good.replace(";", "", 1), good.replace(")", "", 1), good + "x", "S3;", "S2;(2,a)")
        )
        code = 1
    elif kind == 5:  # usage: missing argument
        return {"kind": "error", "exit": 1, "argv": [command, "--json"]}
    else:  # dedekind on a non-coprime pair
        alpha = rng.randint(2, 12)
        factor = min(p for p in range(2, alpha + 1) if alpha % p == 0)
        beta = factor * rng.randint(1, 3)
        return {"kind": "error", "exit": 2, "argv": ["dedekind", str(beta), str(alpha), "--json"]}
    return {"kind": "error", "exit": code, "argv": [command, text, "--json"]}


def _log_uniform_chi(rng: random.Random) -> int:
    return max(1, min(MAX_CHI, round(10 ** rng.uniform(0, 8))))


def cli_ops(seed: int, blocks: int) -> list[dict]:
    """Operation specs for the CLI workloads: ``argv`` plus what the oracle
    needs.  A ``gb_volume`` op has ``argv`` with two ``None`` slots, filled
    at run time with the volume printed by the operation before it and a
    tolerance matching the digits printed (see worker.feedback)."""
    rng = random.Random(seed)
    ops: list[dict] = []
    for _ in range(blocks):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind in ("eta", "obstruct"):
                spec, text = _flat_descriptor(rng)
                ops.append({"kind": kind, "argv": [kind, text, "--json"], **spec})
            elif kind == "error":
                ops.append(_error_op(rng))
            elif kind == "gb":
                chi = _log_uniform_chi(rng)
                ops.append({"kind": "gb_chi", "chi": chi,
                            "argv": ["gauss-bonnet", "--chi", str(chi), "--json"]})
                ops.append({"kind": "gb_volume", "chi": chi,
                            "argv": ["gauss-bonnet", "--json", "--volume", None, "--tol", None]})
            elif kind == "catalog":
                ops.append({"kind": "catalog", "argv": ["catalog", "--json"]})
            else:
                alpha = rng.randint(1, 12)
                beta = _coprime(rng, alpha, 3)
                ops.append({"kind": "dedekind", "alpha": alpha, "beta": beta,
                            "argv": ["dedekind", str(beta), str(alpha), "--json"]})
    return ops


# -- dedekind_sweep ---------------------------------------------------------

# The alpha ladder is fixed so that runs with different seeds do equal
# work: the cost of a cold alpha spans three orders of magnitude and
# depends on deg Phi_M (M = lcm(4, 2*alpha)), not only on alpha, so seeded
# alphas would make the figures depend on the seed.  It runs from the flat
# range to 200 and is denser where costs are close, so percentiles do not
# jump between far-apart ladder steps.  Large primes are left out only for
# run length: one cold alpha = 199 takes seconds.
LADDER = (
    2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
    13, 16, 18, 20, 24, 28, 30, 36, 37, 40, 42, 45, 48, 50, 56, 60,
    64, 72, 80, 84, 90, 96, 100, 108, 120, 126, 132, 144, 150, 168, 180, 200,
)
# Calls per alpha.  Fixed, not seeded: latencies here span four orders of
# magnitude, so each percentile point moves p50 and p90 by 10-20%, and a
# seeded count per alpha moved them that much between seeds.
BLOCK_CALLS = 6


def _new_residue(rng: random.Random, alpha: int, seen: set[int]) -> int:
    """A beta in [-3a, 3a] coprime to alpha whose residue is not in seen,
    when alpha has such a residue left."""
    free = [r for r in range(alpha) if gcd(r, alpha) == 1 and r not in seen]
    residue = rng.choice(free) if free else rng.choice(sorted(seen))
    return residue + alpha * rng.randint(-3, 2)


def sweep_ops(seed: int) -> list[tuple[int, int, bool]]:
    """(beta, alpha, starts_block) calls: one pass over the ladder.

    The ladder is visited in a seeded order.  A block is one alpha's calls:
    seeded betas in [-3a, 3a] with distinct residues, except that one later
    call, at a seeded position, repeats an earlier residue (a ``_cot_sum``
    cache hit).  Alphas with fewer residues than calls repeat more."""
    rng = random.Random(seed)
    order = list(LADDER)
    rng.shuffle(order)
    ops = []
    for alpha in order:
        repeat_at = rng.randrange(1, BLOCK_CALLS)
        betas: list[int] = []
        for j in range(BLOCK_CALLS):
            seen = {b % alpha for b in betas}
            if j == repeat_at:
                betas.append(rng.choice(sorted(seen)) + alpha * rng.randint(-3, 2))
            else:
                betas.append(_new_residue(rng, alpha, seen))
        ops.extend((beta, alpha, j == 0) for j, beta in enumerate(betas))
    return ops


def field_order(alpha: int) -> int:
    """M = lcm(4, 2*alpha): the cyclotomic field the cotangent route uses."""
    return lcm(4, 2 * alpha)
