"""Slot widths of the cold cotangent tables, for every alpha the route accepts.

Builds ``flateta.dedekind._cot_table(alpha)`` from the ``src/`` of this
tree for alpha = 2 .. COT_ALPHA_MAX, one table at a time, and prints how
many alphas need each slot width and which alphas need the widest.  The
packer writes 8-byte entries, so a table whose exact slot bound asks for
more than 64 bits is refused with an internal error; this check exits 1
if any table is.  Only the standard library is used; one run takes about
90 s on one core:

    python3 tools/slot_widths.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flateta.dedekind import COT_ALPHA_MAX, _cot_table  # noqa: E402


def main() -> int:
    widths, refused = {}, {}
    for alpha in range(2, COT_ALPHA_MAX + 1):
        try:
            widths[alpha] = _cot_table(alpha)[1]
        except RuntimeError as exc:
            refused[alpha] = str(exc)
        _cot_table.cache_clear()  # one table in memory at a time
    print("slot bits  alphas")
    for bits, count in sorted(Counter(widths.values()).items()):
        print(f"{bits:9d}  {count:6d}")
    widest = max(widths.values(), default=0)
    at_widest = [alpha for alpha, bits in widths.items() if bits == widest]
    print(f"widest: {widest} bits, at {len(at_widest)} alphas: {', '.join(map(str, at_widest))}")
    for alpha, message in refused.items():
        print(f"alpha = {alpha}: {message}")
    if refused:
        print(f"{len(refused)} tables need slots wider than 64 bits")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
