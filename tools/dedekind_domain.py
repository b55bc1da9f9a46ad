"""The whole domain of ``dedekind_cot``, by exhaustion.

Computes s(beta, alpha) for every alpha = 1 .. COT_ALPHA_MAX and every
residue beta in [0, alpha) coprime to alpha, on all three routes of the
``src/`` of this tree: the answer ``dedekind_cot`` (integer
reciprocity), the cotangent trace route ``_cot_sum``, whose set-up for
each alpha is cold because each alpha is a new key of its cache, and the
sawtooth oracle ``dedekind_sawtooth``.  It prints every pair whose
routes disagree, then the sha256 of the lines ``alpha beta s`` of the
answer, in order of alpha and then beta, each ended by a newline, and
compares it with the one recorded in ``tests/dedekind_domain.sha256``.
The exit status is 0 when the routes agree on every pair and the digest
matches, 1 otherwise.  Only the standard library is used:

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
    digest, pairs, disagree = hashlib.sha256(), 0, 0
    start = time.monotonic()
    for alpha in range(1, dedekind.COT_ALPHA_MAX + 1):
        for beta in range(alpha):
            if gcd(beta, alpha) != 1:
                continue
            s = dedekind.dedekind_cot(beta, alpha)
            cot, oracle = dedekind._cot_sum(beta, alpha), dedekind.dedekind_sawtooth(beta, alpha)
            if not s == cot == oracle:
                print(f"s({beta}, {alpha}): answer {s}, cot {cot}, sawtooth {oracle}")
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
