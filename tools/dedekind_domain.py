"""The whole domain of the cotangent Dedekind route, by exhaustion.

Computes s(beta, alpha) for every alpha = 1 .. COT_ALPHA_MAX and every
residue beta in [0, alpha) coprime to alpha, on both routes of the
``src/`` of this tree: ``dedekind_cot`` from a cold set-up (every cache
of ``flateta.dedekind`` cleared before each alpha) and the sawtooth
oracle ``dedekind_sawtooth``.  It prints every pair whose routes
disagree, then the sha256 of the lines ``alpha beta s``, in order of
alpha and then beta, each ended by a newline, and compares it with the
one recorded in ``tests/dedekind_domain.sha256``.  The exit status is 0
when the routes agree on every pair and the digest matches, 1 otherwise.
Only the standard library is used:

    python3 tools/dedekind_domain.py
"""

from __future__ import annotations

import hashlib
import sys
import time
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "dedekind_domain.sha256"
sys.path.insert(0, str(ROOT / "src"))

from flateta import dedekind  # noqa: E402


def main() -> int:
    caches = [f for f in vars(dedekind).values() if callable(getattr(f, "cache_clear", None))]
    digest, pairs, disagree = hashlib.sha256(), 0, 0
    start = time.monotonic()
    for alpha in range(1, dedekind.COT_ALPHA_MAX + 1):
        for cache in caches:
            cache.cache_clear()
        for beta in range(alpha):
            if gcd(beta, alpha) != 1:
                continue
            s, oracle = dedekind.dedekind_cot(beta, alpha), dedekind.dedekind_sawtooth(beta, alpha)
            if s != oracle:
                print(f"s({beta}, {alpha}): cot {s}, sawtooth {oracle}")
                disagree += 1
            digest.update(f"{alpha} {beta} {s}\n".encode())
            pairs += 1
    found = digest.hexdigest()
    print(f"{pairs} coprime pairs with alpha <= {dedekind.COT_ALPHA_MAX}, {disagree} disagree, "
          f"{time.monotonic() - start:.1f} s; sha256 {found}")
    recorded = RECORD.read_text(encoding="utf-8").strip()
    if found != recorded:
        print(f"recorded sha256 {recorded} differs", file=sys.stderr)
    return 1 if disagree or found != recorded else 0


if __name__ == "__main__":
    sys.exit(main())
