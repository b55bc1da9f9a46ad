"""flateta benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Human-readable metric lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced pass and writes its spans to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import worker
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
PACKAGE = Path("src") / "flateta" / "__init__.py"

SETUP_PROBES = 20
WORKER_TIMEOUT_S = 150
# Times of worker.Reference on the machine the benchmark was defined on
# (2-vCPU Intel Xeon virtual machine, CPython 3.11.7): its best time between
# operations, and its median time right after a set-up probe has exited,
# when a process start has left the caches cold.
REFERENCE_NS = 330_000
SETUP_REFERENCE_NS = 700_000

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _span(name: str, unit: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.busy_ms", "ms"), (f"{name}.p50", unit)]


def _derived(name: str, unit: str) -> list[tuple[str, str]]:
    return [(f"{name}.derived_busy_ms", "ms"), (f"{name}.derived_p50", unit)]


CACHE_MODULES = ("cyclotomic", "dedekind")
MODULES = ("cli", "seifert", "eta", "dedekind", "cyclotomic", "gaussbonnet")

# Every per-layer metric, in the order the table in README.md gives them.
PER_LAYER = (
    _span("cli.run_us", "us") + _span("cli.parse_descriptor_us", "us")
    + _span("cli.render_descriptor_us", "us") + _derived("cli.overhead_us", "us")
    + [(f"cli.exit{code}", "count") for code in range(4)]
    + _span("seifert.validate_us", "us") + _span("seifert.flatness_us", "us")
    + _span("seifert.flat_catalog_ms", "ms")
    + _span("eta.eta_flat_us", "us") + _span("eta.obstruction_report_us", "us")
    + _derived("eta.self_us", "us")
    + _span("cyclotomic.phi_build_ms", "ms") + _span("cyclotomic.cot_table_ms", "ms")
    + _span("dedekind.first_pair_ms", "ms") + _span("dedekind.next_pair_ms", "ms")
    + [("dedekind.conv_mults.computed", "count"), ("dedekind.repeat_share.computed", "frac"),
       ("cyclotomic.field_degree.computed", "count"), ("cyclotomic.phi_nnz.computed", "count"),
       ("cyclotomic.reduce_ops_dense.computed", "count"),
       ("cyclotomic.reduce_ops_sparse.computed", "count")]
    + _span("dedekind.sawtooth_ms", "ms") + _span("dedekind.cot_us", "us")
    + [(f"{m}.cache_{k}", "count") for m in CACHE_MODULES for k in ("hits", "misses", "entries")]
    + [(f"{m}.retained_kib", "KiB") for m in MODULES]
    + _span("gaussbonnet.volume_from_chi_us", "us")
    + _span("gaussbonnet.chi_from_volume_us", "us")
    + [("gaussbonnet.roundtrip_failures", "count")]
    + _span("process.op_ms", "ms") + _span("process.interpreter_ms", "ms")
    + _span("process.import_probe_ms", "ms")
    + [("process.import_ms.derived_p50", "ms"), ("process.command_ms.derived_p50", "ms")]
    + [("tracing.overhead_frac", "frac")]
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_cmd(workload: str, mode: str, seconds: float, setup_only: bool = False) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--mode", mode,
           "--seconds", str(seconds)]
    return cmd + (["--setup-only"] if setup_only else [])


def _start(cmd) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; return it and the set-up time."""
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=worker.child_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - begin
    if line != b"ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, setup


def measure_setup(workload: str) -> tuple[list[float], list[int]]:
    """Set-up times of fresh workload processes that exit once ready, and
    the reference loop's time right after each."""
    times = []
    reference = worker.Reference()
    for _ in range(SETUP_PROBES):
        proc, setup = _start(_worker_cmd(workload, "measure", 0, setup_only=True))
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        times.append(setup)
        reference.measure()
    return times, reference.times


def run_worker(workload: str, mode: str, seconds: float, request: dict) -> tuple[dict, float]:
    proc, setup = _start(_worker_cmd(workload, mode, seconds))
    try:
        out, _ = proc.communicate(json.dumps(request).encode(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    *batches, last = out.splitlines()
    reply = json.loads(last)
    if mode == "measure":
        reply["results"], reply["timings_ns"] = [], []
        for line in batches:
            batch = json.loads(line)
            reply["results"] += batch["results"]
            reply["timings_ns"] += batch["timings"]
    return reply, setup


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def verdicts(workload: str, specs: list, results: list) -> list[str]:
    """One oracle verdict per attempted operation, in order.  Each pass
    repeats the outputs of the one before, so a verdict is worked out once
    per distinct (operation, output)."""
    n = len(specs)
    memo: dict = {}
    out = []
    for i, r in enumerate(results):
        key = (i % n, json.dumps(r))
        if key not in memo:
            spec = specs[i % n]
            if workload == "dedekind_sweep":
                memo[key] = oracle.check_dedekind(spec[0], spec[1], r)
            else:
                code, stdout, stderr, exc, fed = r
                memo[key] = oracle.check_cli(
                    spec, {"code": code, "out": stdout, "err": stderr, "exc": exc, "fed": fed})
        out.append(memo[key])
    return out


def summarise(verdict_list: list[str]) -> tuple[int, int, dict[str, int]]:
    failed = [v for v in verdict_list if v != oracle.OK]
    kinds: dict[str, int] = {}
    for v in failed:
        kinds[v] = kinds.get(v, 0) + 1
    return len(verdict_list), len(failed), kinds


def coarse_volumes(specs: list, results: list) -> tuple[int, int]:
    """(known-defect outputs, gauss-bonnet --chi operations) in a CLI run."""
    n = len(specs)
    chi_ops = [(specs[i % n], r) for i, r in enumerate(results)
               if specs[i % n]["kind"] == "gb_chi"]
    coarse = sum(
        oracle.coarse_volume(spec, {"code": r[0], "out": r[1]}) for spec, r in chi_ops)
    return coarse, len(chi_ops)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def make_specs(workload: str, seed: int) -> tuple[list, dict]:
    """The operation specs (for the oracle) and the worker request (inputs
    only: flateta receives nothing but the generated operations)."""
    if workload == "dedekind_sweep":
        specs = workloads.sweep_ops(seed)
        return specs, {"ops": specs}
    specs = workloads.cli_ops(seed, workloads.CLI_MIX_BLOCKS)
    return specs, {"ops": [spec["argv"] for spec in specs]}


def _percentile(values: list[int], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_times(timings: list, n: int) -> list[int]:
    """Each of the stream's n operations' shortest time over the passes
    (timings[i] belongs to operation i % n; None for one not run)."""
    best: list = [None] * n
    for i, timing in enumerate(timings):
        if timing is not None:
            d = timing[1] - timing[0]
            if best[i % n] is None or d < best[i % n]:
                best[i % n] = d
    return [d for d in best if d is not None]


def end_to_end(reply: dict, setups: list[float], setup_reference: list[int],
               n: int) -> tuple[dict, list[int], float]:
    """Timings come from each operation's best time over the run's passes,
    scaled to the reference speed.  A CPU-bound program on a shared host
    runs up to 1.7 times slower, in stretches of seconds and in states that
    last minutes: an operation's best time is the one the stretches did not
    slow, and the scale, REFERENCE_NS over the reference loop's best time
    in the same run, cancels the state the whole run was in.  Throughput is
    operations per second of those times, as one client running back to
    back would see it.  Set-up is the median of the probes, scaled by
    SETUP_REFERENCE_NS over the median of the reference loop timed right
    after each: process start-up slows with the machine's state at that
    moment, which the loop's best time over a run does not follow.  Also
    returns the best times and the run's scale."""
    best = best_times(reply["timings_ns"], n)
    scale = REFERENCE_NS / min(reply["reference_ns"])
    metrics = {
        "throughput_ops_s": len(best) / (sum(best) * scale / 1e9),
        "latency_p50_ms": statistics.median(best) * scale / 1e6,
        "latency_p90_ms": _percentile(best, 90) * scale / 1e6,
        "setup_s": (statistics.median(setups) * SETUP_REFERENCE_NS
                    / statistics.median(setup_reference)),
        "peak_rss_mib": reply["peak_rss_mib"],
    }
    return metrics, best, scale


def per_layer(reply: dict) -> dict:
    metrics = {name: value for name, (value, _) in reply["metrics"].items()}
    for module, counts in reply["cache"].items():
        for key, value in counts.items():
            metrics[f"{module}.cache_{key}"] = value
    for module, kib in reply["retained_kib"].items():
        metrics[f"{module}.retained_kib"] = kib
    metrics["tracing.overhead_frac"] = 1 - reply["traced_ops_s"] / reply["untraced_ops_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one flateta benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found; run from the root of a flateta checkout",
              file=sys.stderr)
        return 2
    specs, request = make_specs(args.workload, args.seed)
    w = args.workload
    try:
        if args.trace:
            reply, _ = run_worker(w, "trace", args.seconds, request)
            checked = [v for key in ("untraced", "traced", "processes") if key in reply
                       for v in verdicts(w, specs, reply[key])]
            declared, metrics = PER_LAYER, per_layer(reply)
            counts = {}
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{w}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"workload": w, "seed": args.seed,
                                              "spans": reply["spans"]}))
            print(f"{w}: spans written to {trace_file.relative_to(HERE.parent)}")
        else:
            setups, setup_reference = measure_setup(w)
            reply, setup = run_worker(w, "measure", args.seconds, request)
            results = reply["results"]
            checked = verdicts(w, specs, results)
            declared = END_TO_END
            metrics, best, scale = end_to_end(reply, setups + [setup], setup_reference, len(specs))
            timed = (f"n={len(best)} operations, each the best of "
                     f"{len(results) // len(specs)}+ passes; {len(results)} timed")
            print(f"{w} scale = {scale:.6g} (reference loop best "
                  f"{min(reply['reference_ns']) / 1e3:.6g} us of {len(reply['reference_ns'])}, "
                  f"nominal {REFERENCE_NS / 1e3:g} us); unscaled best times: "
                  f"p50 {statistics.median(best) / 1e6:.6g} ms, "
                  f"p90 {_percentile(best, 90) / 1e6:.6g} ms")
            counts = {"latency_p50_ms": timed, "latency_p90_ms": timed,
                      "throughput_ops_s": timed, "setup_s": f"n={len(setups) + 1}"}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, kinds = summarise(checked)
    for name, unit in declared:
        n = f" ({counts[name]})" if name in counts else ""
        print(f"{w} {name} = {metrics.get(name, 0):.6g} {unit}{n}")
    print(f"{w} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for kind, n in sorted(kinds.items()):
        print(f"{w} failed[{kind}] = {n} ({n / attempted:.4%} of operations)")
    if w == "cli_mix" and not args.trace:
        coarse, chi_ops = coarse_volumes(specs, results)
        print(f"{w} known_defect[gauss_bonnet_roundtrip] = {coarse} of {chi_ops} --chi outputs "
              f"lie more than the default --tol {oracle.DEFAULT_TOL:g} off the lattice "
              "(fed back with --tol widened to the printed digits)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
