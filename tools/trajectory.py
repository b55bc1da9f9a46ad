"""Trajectory files: each given commit benchmarked by its own harness.

For every REV, unpacks that commit's ``src/`` and ``perfbench/`` with
``git archive`` into a temporary directory and runs its
``perfbench/run.py`` there for ``BENCHMARK.json``'s ``run_seconds``:
seeds 1 to 10 on every workload of ``BENCHMARK.json`` with ``--trace 0``,
then one ``--trace 1`` run per workload on each of seeds 1 and 2, the commits
alternating run by run so that drift of the machine falls on all of them
alike: in the order given on odd seeds and in the reverse order on even
seeds, so that each commit runs first in half of the pairs and an effect
of running first or second falls on both sides.  Writes
``BENCH_<shortsha>.json`` at the repository root in the layout of
``perfbench/trajectory/seed.json``: median, quartiles
(``statistics.quantiles``, n=4), spread ((q3 - q1)/median) and bound of
every end-to-end metric, each run's figures, and the per-layer metrics
of the two traced runs, one block per seed, so that each commit's trace
is taken once first and once second.  A run that did not finish, or
finished with failed operations, is kept with its error or its counts
and left out of the summaries; its commit's harness is not patched.
Only the standard library is used:

    python3 tools/trajectory.py HEAD~1 HEAD

Ten seeds and two traces at 45 s on the two workloads take about 25 minutes
per commit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1, 2]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _unpack(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "perfbench"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def _machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()} CPUs, {model}, {platform.system()}, "
            f"{platform.python_implementation()} {platform.python_version()}")


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py run in ``tree``: its last stdout line, metrics as plain
    numbers, and the wall time; or the error when it did not finish."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                              timeout=10 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"no reply in {10 * seconds + 300:.0f} s"}
    try:
        reply = json.loads(done.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return {"seed": seed, "error": f"exit {done.returncode}: {done.stderr[-400:]}"}
    metrics = {name: round(m["value"], 6) for name, m in reply["metrics"].items()}
    return {"seed": seed, "wall_s": round(time.monotonic() - start, 1),
            "correct": reply["correct"], "attempted": reply["attempted"],
            "failed": reply["failed"], "metrics": metrics}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]] for r in runs if r.get("correct")]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": round(median, 6), "q1": round(q1, 6),
                               "q3": round(q3, 6),
                               "spread": round((q3 - q1) / median, 6) if median else None,
                               "bound": metric["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="+", help="git revisions to benchmark")
    options = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    # resolved once, so a commit made while the runs go on changes no label
    shas = {rev: _git("rev-parse", "--short=7", rev) for rev in options.revs}
    subjects = {rev: _git("log", "-1", "--format=%s", sha) for rev, sha in shas.items()}
    results = {rev: {w: {"runs": [], "traces": {}} for w in workloads} for rev in shas}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {rev: _unpack(sha, Path(tmp) / sha) for rev, sha in shas.items()}
        for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS)):
            for seed in seeds:
                for workload in workloads:
                    for rev, tree in list(trees.items())[::1 if seed % 2 else -1]:
                        run = _run(tree, workload, seed, seconds, trace)
                        print(f"{shas[rev]} {workload} seed {seed} trace {trace}: "
                              f"{run.get('error') or run['metrics'].get('throughput_ops_s')}",
                              file=sys.stderr, flush=True)
                        slot = results[rev][workload]
                        if trace:
                            slot["traces"][seed] = run
                        else:
                            slot["runs"].append(run)
    for rev, sha in shas.items():
        doc = {
            "commit": f"{sha} ({subjects[rev]})",
            "machine": _machine(),
            "command": " ".join(bench["command"])
            + " --workload W --seed N --seconds S --trace 0|1",
            "seeds": SEEDS,
            "run_seconds": seconds,
            "note": "medians, quartiles and spread ((q3-q1)/median, statistics.quantiles n=4) "
                    "of the seeds' --trace 0 runs, written by tools/trajectory.py; commits "
                    "alternated run by run, the order reversed on even seeds; per-layer "
                    "metrics from one --trace 1 run per seed in TRACE_SEEDS, seed 1 in the "
                    "given order and seed 2 in the reverse; timings are best-of-passes times "
                    "scaled to the reference speed, see perfbench/README.md",
            "end_to_end": {
                w: {"summary": _summary(r["runs"], bench["end_to_end"]), "runs": r["runs"]}
                for w, r in results[rev].items()
            },
            **{f"per_layer_trace_seed{seed}": {
                w: {k: v for k, v in r["traces"][seed].items() if k not in ("seed", "wall_s")}
                for w, r in results[rev].items()
            } for seed in TRACE_SEEDS},
        }
        path = ROOT / f"BENCH_{sha}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
