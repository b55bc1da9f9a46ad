"""The workload process: one client, closed loop, one process.

Started by run.py with the package on PYTHONPATH.  It imports flateta,
does the workload's declared warm-up, prints ``ready`` on stdout, reads its
operations as one JSON document from stdin and runs them.  Every output
goes back on stdout as JSON lines (the last one is the summary), so run.py
can check them against the oracle outside the timed region.

Modes:
  --setup-only  exit right after ``ready`` (run.py times several of these)
  measure       the untraced pass that gives the end-to-end metrics
  trace         an untraced pass, a traced pass of the same operations, a
                tracemalloc pass and, on cli_mix, one block run as CLI
                processes; gives the per-layer metrics
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import gcd
from time import perf_counter_ns

from workloads import BLOCK, field_order

MIN_OPS = 100
# Every operation of the stream is timed at least this often; run.py keeps
# each operation's best time over the passes.
MIN_PASSES = 3
# flateta's default --tol for gauss-bonnet --volume.
DEFAULT_TOL = 1e-6
SUBPROCESS_TIMEOUT_S = 60
# The entry point the console script would run; the script itself is not
# installed, so the CLI is launched through the interpreter.
CLI_LAUNCH = "import sys; from flateta.cli import main; sys.exit(main())"
PROBES = 8
# The trace pass of cli_mix also runs this many of its operations as CLI
# processes: one block.
PROCESS_OPS = 40
TRACEMALLOC_FRAMES = 16
TRACEMALLOC_CLI_OPS = len(BLOCK)
# tracemalloc slows exact arithmetic about tenfold; a mid-ladder field
# keeps that pass to a few seconds.
RETAINED_ALPHA = 120


def _now() -> int:
    return perf_counter_ns()


def child_env() -> dict:
    """The environment for a child Python: the package from ``src/``, and
    bytecode written and reused (in ``__pycache__``), as for an installed
    package, whatever the caller's environment says; otherwise every CLI
    process would compile flateta from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Reference:
    """The machine's speed during a run: a fixed pure-Python loop that uses
    nothing from flateta (the exact harmonic sum H_150, Fraction arithmetic
    like flateta's), timed between operations, at most every
    ``INTERVAL_NS``.  run.py scales the timings by its best time."""

    INTERVAL_NS = 50_000_000

    def __init__(self):
        self.times: list[int] = []
        self.last = 0

    def between_operations(self) -> None:
        if _now() - self.last >= self.INTERVAL_NS:
            self.measure()

    def measure(self) -> None:
        start = _now()
        total = Fraction(0)
        for k in range(1, 151):
            total += Fraction(1, k)
        self.last = _now()
        self.times.append(self.last - start)


# ---------------------------------------------------------------------------
# caches: found by introspection, never by private name
# ---------------------------------------------------------------------------


def discover_caches() -> list:
    """Every callable with ``cache_clear`` in a loaded flateta module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "flateta" and not name.startswith("flateta."):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                found[id(obj)] = obj
    return sorted(found.values(), key=lambda f: (f.__module__, f.__qualname__))


def _module(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def cache_snapshot(caches) -> dict[str, dict[str, int]]:
    """Hits, misses and entries per module, from ``cache_info()``."""
    out: dict[str, dict[str, int]] = {}
    for fn in caches:
        info = fn.cache_info()
        t = out.setdefault(_module(fn), {"hits": 0, "misses": 0, "entries": 0})
        t["hits"] += info.hits
        t["misses"] += info.misses
        t["entries"] += info.currsize
    return out


class ClearingStats:
    """Cache counts summed across clears; entries is the largest seen."""

    def __init__(self, caches):
        self.caches = caches
        self.totals: dict[str, dict[str, int]] = {}

    def collect_and_clear(self) -> None:
        for module, snap in cache_snapshot(self.caches).items():
            t = self.totals.setdefault(module, {"hits": 0, "misses": 0, "entries": 0})
            t["hits"] += snap["hits"]
            t["misses"] += snap["misses"]
            t["entries"] = max(t["entries"], snap["entries"])
        clear_caches(self.caches)


def clear_caches(caches) -> None:
    for fn in caches:
        fn.cache_clear()


# ---------------------------------------------------------------------------
# spans: kept in memory, summarised and written out once at the end
# ---------------------------------------------------------------------------

_FAILED = object()


class Spans:
    def __init__(self):
        self.records: list[tuple[str, int, int, int]] = []  # name, op, start, duration

    def add(self, name: str, op: int, start: int, end: int) -> None:
        self.records.append((name, op, start, end - start))

    def call(self, name: str, op: int, fn, *args):
        """Time fn(*args) as a span; return its value or _FAILED."""
        start = _now()
        try:
            value = fn(*args)
        except Exception:  # the run() outputs, not the replay, decide failures
            value = _FAILED
        self.add(name, op, start, _now())
        return value

    def by_op(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for name, op, _, dur in self.records:
            per = out.setdefault(op, {})
            per[name] = per.get(name, 0) + dur
        return out


def _unit_scale(name: str) -> tuple[str, float]:
    if name.endswith("_us"):
        return "us", 1e3
    if name.endswith("_ms"):
        return "ms", 1e6
    raise ValueError(f"span name {name!r} names no unit")


def span_metrics(durations: dict[str, list[int]], derived: bool = False) -> dict:
    """calls, busy_ms and p50 (in the unit the name gives) per span name.
    Derived self times carry ``derived_`` in their metric names."""
    out = {}
    prefix = "derived_" if derived else ""
    for name, durs in sorted(durations.items()):
        unit, scale = _unit_scale(name)
        if not derived:
            out[f"{name}.calls"] = (len(durs), "count")
        out[f"{name}.{prefix}busy_ms"] = (sum(durs) / 1e6, "ms")
        out[f"{name}.{prefix}p50"] = (statistics.median(durs) / scale if durs else 0.0, unit)
    return out


def _durations(records) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for name, _, _, dur in records:
        out.setdefault(name, []).append(dur)
    return out


# ---------------------------------------------------------------------------
# tracemalloc: retained memory grouped by flateta source file
# ---------------------------------------------------------------------------


def retained_by_module(snapshot, package_dir: str) -> dict[str, float]:
    """KiB still allocated, charged to the innermost flateta frame of each
    allocation (a Fraction made in fractions.py on behalf of cyclotomic.py
    counts for cyclotomic)."""
    out: dict[str, float] = {}
    for trace in snapshot.traces:
        for frame in reversed(trace.traceback):
            if frame.filename.startswith(package_dir):
                module = os.path.splitext(os.path.basename(frame.filename))[0]
                out[module] = out.get(module, 0.0) + trace.size / 1024
                break
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliMix:
    """In-process run(argv, StringIO, StringIO) calls, caches warm."""

    def __init__(self):
        import flateta
        from flateta import cli

        self.flateta = flateta
        self.run = cli.run

    def warm_up(self) -> None:
        # Every Dedekind sum the mix can ask for: alpha <= 12, all residues.
        f = self.flateta
        for alpha in range(1, 13):
            for beta in range(alpha):
                if gcd(beta, alpha) == 1:
                    f.dedekind_cot(beta, alpha)
        f.flat_catalog()

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = _now()
        try:
            code, exc = self.run(argv, out, err), None
        except Exception as e:  # a traceback in-process: counted as failed
            code, exc = None, f"{type(e).__name__}: {e}"
        end = _now()
        return start, end, [code, out.getvalue(), err.getvalue(), exc]

    def replay(self, spans: Spans, op: int, argv, roundtrip: list) -> None:
        """The public calls run() makes for argv, each a sibling span."""
        f = self.flateta
        cmd = argv[0]
        args = [a for a in argv[1:] if a != "--json"]
        if cmd in ("eta", "obstruct") and len(args) == 1:
            data = spans.call("cli.parse_descriptor_us", op, f.parse_descriptor, args[0])
            if data is _FAILED:
                return
            spans.call("seifert.validate_us", op, f.validate, data)
            spans.call("seifert.flatness_us", op, _flatness, f, data)
            for fiber in data.fibers:
                spans.call("dedekind.cot_us", op, f.dedekind_cot, fiber.beta, fiber.alpha)
            lib = f.eta_flat if cmd == "eta" else f.obstruction_report
            name = "eta.eta_flat_us" if cmd == "eta" else "eta.obstruction_report_us"
            if spans.call(name, op, lib, data) is not _FAILED:
                spans.call("cli.render_descriptor_us", op, f.render_descriptor, data)
        elif cmd == "dedekind" and len(args) == 2:
            beta, alpha = int(args[0]), int(args[1])
            spans.call("dedekind.sawtooth_ms", op, f.dedekind_sawtooth, beta, alpha)
            spans.call("dedekind.cot_us", op, f.dedekind_cot, beta, alpha)
        elif cmd == "catalog":
            entries = spans.call("seifert.flat_catalog_ms", op, f.flat_catalog)
            if entries is not _FAILED:
                for entry in entries:
                    if entry.seifert is not None:
                        spans.call("cli.render_descriptor_us", op, f.render_descriptor, entry.seifert)
        elif cmd == "gauss-bonnet" and "--chi" in args:
            chi = int(args[args.index("--chi") + 1])
            value = spans.call("gaussbonnet.volume_from_chi_us", op, f.volume_from_chi, chi)
            if value is not _FAILED:
                try:
                    roundtrip.append(f.chi_from_volume(value.approx) == chi)
                except f.FlatEtaError:
                    roundtrip.append(False)
        elif cmd == "gauss-bonnet" and "--volume" in args:
            volume = float(args[args.index("--volume") + 1])
            tol = float(args[args.index("--tol") + 1])
            spans.call("gaussbonnet.chi_from_volume_us", op, f.chi_from_volume, volume, tol)

    def derived(self, spans: Spans, commands: dict[int, str]) -> dict[str, list[int]]:
        """Per-operation self times: run() minus parse, library call and
        render; eta_flat/obstruction_report minus validate, flatness and
        the Dedekind sums."""
        lib_spans = {
            "eta": ("eta.eta_flat_us",),
            "obstruct": ("eta.obstruction_report_us",),
            "dedekind": ("dedekind.sawtooth_ms", "dedekind.cot_us"),
            "catalog": ("seifert.flat_catalog_ms",),
            "gauss-bonnet": ("gaussbonnet.volume_from_chi_us", "gaussbonnet.chi_from_volume_us"),
        }
        overhead, eta_self = [], []
        for op, per in spans.by_op().items():
            lib = sum(per.get(n, 0) for n in lib_spans.get(commands[op], ()))
            overhead.append(
                per["cli.run_us"] - per.get("cli.parse_descriptor_us", 0) - lib
                - per.get("cli.render_descriptor_us", 0)
            )
            whole = per.get("eta.eta_flat_us", per.get("eta.obstruction_report_us"))
            if whole is not None:
                eta_self.append(
                    whole - per.get("seifert.validate_us", 0)
                    - per.get("seifert.flatness_us", 0) - per.get("dedekind.cot_us", 0)
                )
        return {"cli.overhead_us": overhead, "eta.self_us": eta_self}


def _flatness(f, data):
    return f.euler_number(data), f.orbifold_euler_characteristic(data)


def feedback(result) -> list[str] | None:
    """The ``--volume`` and ``--tol`` texts for the operation after a
    ``gauss-bonnet --chi --json`` call: the volume it printed and the
    default tolerance, widened to one unit in the last printed digit where
    the text is coarser than that (12 significant digits are, from chi
    about 10^5 on).  None when the call printed no volume."""
    volume = _printed_volume(result)
    if volume is None:
        return None
    unit = 10.0 ** Decimal(volume).as_tuple().exponent
    return [volume, repr(max(DEFAULT_TOL, unit))]


def _printed_volume(result) -> str | None:
    """The volume text a ``gauss-bonnet --chi --json`` call printed, if any."""
    if result[0] != 0:
        return None
    try:
        value = json.loads(result[1])["volume"]
    except (ValueError, KeyError, TypeError):
        return None
    return value if isinstance(value, str) else None


class CliProcess:
    """One flateta process per operation, spawned sequentially."""

    def __init__(self):
        self.env = child_env()

    def spawn(self, args) -> tuple[int, int, list]:
        start = _now()
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                capture_output=True,
                text=True,
                env=self.env,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
            result = [proc.returncode, proc.stdout, proc.stderr, None]
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            result = [None, "", "", f"timeout after {SUBPROCESS_TIMEOUT_S} s"]
        return start, _now(), result

    def execute(self, argv):
        return self.spawn(["-c", CLI_LAUNCH, *argv])


class Collector:
    """Outputs and (start, end) timings of a pass, in ns from its start;
    the timing of an operation that was not run is None."""

    def __init__(self):
        self.results: list = []
        self.timings: list = []

    def add(self, result, timing=None) -> None:
        self.results.append(result)
        self.timings.append(timing)


class Outbox(Collector):
    """A collector for the measured pass that writes its contents to stdout
    in batches, as JSON lines, so the worker's peak RSS does not grow with
    the number of operations it runs."""

    BATCH = 400

    def add(self, result, timing=None) -> None:
        super().add(result, timing)
        if len(self.results) >= self.BATCH:
            self.flush()

    def flush(self) -> None:
        if self.results:
            sys.stdout.write(json.dumps({"results": self.results, "timings": self.timings}) + "\n")
            self.results, self.timings = [], []


def run_cli_pass(client, ops, seconds: float, min_ops: int, spans: Spans | None = None,
                 replay=None, sink: Collector | None = None, reference: Reference | None = None):
    """Closed loop over the operations, wrapping, until the time is up and
    at least min_ops have been attempted.

    Returns (sink, elapsed_ns, roundtrip).  A result is
    [code, stdout, stderr, exception, fed]; results[i] belongs to
    ops[i % len(ops)].  A ``--volume`` operation is fed the volume the
    operation before it printed and a tolerance (``fed``, see feedback);
    if there is no volume it is not run and fails.
    """
    sink = Collector() if sink is None else sink
    roundtrip = []
    previous = None
    begin = _now()
    deadline = begin + int(seconds * 1e9)
    i = 0
    while i < min_ops or _now() < deadline:
        argv = list(ops[i % len(ops)])
        fed = None
        if None in argv:
            fed = feedback(previous) if previous else None
            if fed is None:
                previous = [None, "", "", "no volume printed to feed back", None]
                sink.add(previous)
                i += 1
                continue
            slots = [k for k, arg in enumerate(argv) if arg is None]
            for k, text in zip(slots, fed):
                argv[k] = text
        if reference is not None:
            reference.between_operations()
        start, end, result = client.execute(argv)
        result.append(fed)
        sink.add(result, (start - begin, end - begin))
        previous = result
        if spans is not None:
            spans.add("cli.run_us" if replay else "process.op_ms", i, start, end)
            if replay:
                replay(spans, i, argv, roundtrip)
        i += 1
    return sink, _now() - begin, roundtrip


class Sweep:
    """In-process dedekind_cot calls; every alpha block starts cold."""

    def __init__(self):
        import flateta

        self.flateta = flateta

    def warm_up(self) -> None:
        """None declared: the workload measures cold fields."""


def run_sweep_pass(f, caches, ops, seconds: float, min_ops: int,
                   stats: ClearingStats | None = None, spans: Spans | None = None,
                   computed: dict | None = None, sink: Collector | None = None,
                   reference: Reference | None = None):
    """Closed loop over (beta, alpha, starts_block) calls, wrapping.  Every
    block starts with all caches cleared.  With spans, each block is staged
    (Phi_M, cotangents, first call, later calls); with ``computed``, the
    field shape and the seed route's operation counts are added up for the
    calls of the first pass."""
    sink = Collector() if sink is None else sink
    begin = _now()
    deadline = begin + int(seconds * 1e9)
    i = 0
    nnz: list[int] = []
    while i < min_ops or _now() < deadline:
        beta, alpha, starts = ops[i % len(ops)]
        counting = computed is not None and i < len(ops)
        if starts:
            if stats is not None:
                stats.collect_and_clear()
            else:
                clear_caches(caches)
            if spans is not None:
                nnz = _staged_setup(f, spans, i, alpha, computed if counting else None)
        if reference is not None:
            reference.between_operations()
        start = _now()
        try:
            value = f.dedekind_cot(beta, alpha)
        except Exception:  # counted as failed by run.py
            value = None
        end = _now()
        sink.add(None if value is None else f"{value.numerator}/{value.denominator}",
                 (start - begin, end - begin))
        if spans is not None:
            spans.add("dedekind.first_pair_ms" if starts else "dedekind.next_pair_ms", i, start, end)
        if counting:
            _count_pair(computed, beta, alpha, nnz)
        i += 1
    elapsed = _now() - begin
    if stats is not None:
        stats.collect_and_clear()
    return sink, elapsed


def _staged_setup(f, spans: Spans, op: int, alpha: int, computed: dict | None) -> list[int]:
    """Stages 1 and 2 of a cold alpha: Phi_M, then cot(k*pi/alpha) for
    every k.  With ``computed``, also record the field's shape and return
    the nonzero coefficient count of each cotangent in Q(zeta_M)."""
    order = field_order(alpha)
    start = _now()
    phi = f.cyclotomic_polynomial(order)
    spans.add("cyclotomic.phi_build_ms", op, start, _now())
    start = _now()
    cots = [f.cot_exact(k, alpha) for k in range(1, alpha)]
    spans.add("cyclotomic.cot_table_ms", op, start, _now())
    if computed is None:
        return []
    computed["degree"] = len(phi) - 1
    computed["nnz"] = sum(1 for c in phi if c)
    computed["field_degree"] += computed["degree"]
    computed["phi_nnz"] += computed["nnz"]
    computed["seen"] = set()
    return [0] + [sum(1 for c in cot.promoted(order).coefficients if c) for cot in cots]


def _count_pair(computed: dict, beta: int, alpha: int, nnz: list[int]) -> None:
    computed["calls"] += 1
    residue = beta % alpha
    if residue in computed["seen"]:
        computed["repeats"] += 1
        return
    computed["seen"].add(residue)
    # The seed's route: one product per pair of nonzero coefficients over
    # k < alpha/2, then one dense reduction of the degree 2*deg - 2 sum.
    computed["conv_mults"] += sum(
        nnz[k * residue % alpha] * nnz[k] for k in range(1, (alpha + 1) // 2)
    )
    degree = computed["degree"]
    computed["reduce_ops_dense"] += max(degree - 1, 0) * (degree + 1)
    computed["reduce_ops_sparse"] += max(degree - 1, 0) * computed["nnz"]


# ---------------------------------------------------------------------------
# trace mode
# ---------------------------------------------------------------------------


def _retained(package_dir: str, work) -> dict[str, float]:
    tracemalloc.start(TRACEMALLOC_FRAMES)
    try:
        work()
        gc.collect()
        return retained_by_module(tracemalloc.take_snapshot(), package_dir)
    finally:
        tracemalloc.stop()


def _traced_reply(untraced: Collector, u_elapsed, spans: Spans, traced: Collector, t_elapsed,
                  metrics, cache, retained):
    return {
        "untraced": untraced.results,
        "traced": traced.results,
        "untraced_ops_s": len(untraced.results) / (u_elapsed / 1e9),
        "traced_ops_s": len(traced.results) / (t_elapsed / 1e9),
        "metrics": metrics,
        "cache": cache,
        "retained_kib": retained,
        "spans": spans.records,
    }


def trace_cli_mix(client: CliMix, ops, seconds: float, caches, package_dir: str) -> dict:
    before = cache_snapshot(caches)
    untraced, u_elapsed, _ = run_cli_pass(client, ops, seconds / 2, 1)
    after = cache_snapshot(caches)
    cache = {
        m: {"hits": a["hits"] - before[m]["hits"], "misses": a["misses"] - before[m]["misses"],
            "entries": a["entries"]}
        for m, a in after.items()
    }
    spans = Spans()
    traced, t_elapsed, roundtrip = run_cli_pass(
        client, ops, seconds / 2, 1, spans=spans, replay=client.replay)
    metrics = span_metrics(_durations(spans.records))
    commands = {i: ops[i % len(ops)][0] for i in range(len(traced.results))}
    metrics.update(span_metrics(client.derived(spans, commands), derived=True))
    codes = [r[0] for r in traced.results]
    for code in range(4):
        metrics[f"cli.exit{code}"] = (codes.count(code), "count")
    metrics["gaussbonnet.roundtrip_failures"] = (roundtrip.count(False), "count")

    def warm_and_run():
        client.warm_up()
        run_cli_pass(client, ops[:TRACEMALLOC_CLI_OPS], 0, TRACEMALLOC_CLI_OPS)

    clear_caches(caches)
    retained = _retained(package_dir, warm_and_run)
    processes, process_metrics = process_pass(ops[:PROCESS_OPS])
    metrics.update(process_metrics)
    reply = _traced_reply(untraced, u_elapsed, spans, traced, t_elapsed, metrics, cache, retained)
    reply["processes"] = processes.results
    return reply


def process_pass(ops) -> tuple[Collector, dict]:
    """The shell surface: one CLI process per operation, spawned
    sequentially, then PROBES bare and ``import flateta`` processes."""
    client = CliProcess()
    spans = Spans()
    sink, _, _ = run_cli_pass(client, ops, 0, len(ops), spans=spans)
    probes: dict[str, list[int]] = {"process.interpreter_ms": [], "process.import_probe_ms": []}
    for _ in range(PROBES):
        for name, code in (("process.interpreter_ms", "pass"),
                           ("process.import_probe_ms", "import flateta")):
            start, end, result = client.spawn(["-c", code])
            if result[0] != 0:
                raise RuntimeError(f"probe {code!r} failed: {result[2]}")
            probes[name].append(end - start)
    durations = _durations(spans.records)
    metrics = span_metrics(durations)
    metrics.update(span_metrics(probes))
    interpreter, imported = (statistics.median(probes[k]) / 1e6 for k in probes)
    op_p50 = statistics.median(durations["process.op_ms"]) / 1e6
    metrics["process.import_ms.derived_p50"] = (imported - interpreter, "ms")
    metrics["process.command_ms.derived_p50"] = (op_p50 - imported, "ms")
    return sink, metrics


def trace_sweep(client: Sweep, ops, seconds: float, caches, package_dir: str) -> dict:
    f = client.flateta
    stats = ClearingStats(caches)
    clear_caches(caches)
    untraced, u_elapsed = run_sweep_pass(f, caches, ops, seconds / 2, 1, stats=stats)
    spans = Spans()
    computed = dict.fromkeys(("calls", "repeats", "conv_mults", "reduce_ops_dense",
                              "reduce_ops_sparse", "field_degree", "phi_nnz"), 0)
    # at least one whole pass, so the computed counts are complete
    traced, t_elapsed = run_sweep_pass(
        f, caches, ops, seconds / 2, len(ops), spans=spans, computed=computed)
    metrics = span_metrics(_durations(spans.records))
    metrics["dedekind.repeat_share.computed"] = (computed["repeats"] / computed["calls"], "frac")
    for key, layer in (("conv_mults", "dedekind"), ("field_degree", "cyclotomic"),
                       ("phi_nnz", "cyclotomic"), ("reduce_ops_dense", "cyclotomic"),
                       ("reduce_ops_sparse", "cyclotomic")):
        metrics[f"{layer}.{key}.computed"] = (computed[key], "count")

    # retained memory: one cold field and its first Dedekind sum
    beta = next(b for b, a, starts in ops if starts and a == RETAINED_ALPHA)

    def cold_field():
        f.dedekind_cot(beta, RETAINED_ALPHA)

    clear_caches(caches)
    retained = _retained(package_dir, cold_field)
    clear_caches(caches)
    return _traced_reply(untraced, u_elapsed, spans, traced, t_elapsed, metrics,
                         stats.totals, retained)


WORKLOADS = {"cli_mix": CliMix, "dedekind_sweep": Sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), default="measure")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    client = WORKLOADS[args.workload]()
    client.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    request = json.load(sys.stdin)
    ops = request["ops"]
    if args.workload == "dedekind_sweep":
        ops = [tuple(op) for op in ops]
    caches = discover_caches()
    package_dir = os.path.dirname(os.path.abspath(client.flateta.__file__))

    if args.mode == "measure":
        outbox = Outbox()
        reference = Reference()
        min_ops = max(MIN_OPS, MIN_PASSES * len(ops))
        if args.workload == "dedekind_sweep":
            _, elapsed = run_sweep_pass(client.flateta, caches, ops, args.seconds, min_ops,
                                        sink=outbox, reference=reference)
        else:
            _, elapsed, _ = run_cli_pass(client, ops, args.seconds, min_ops, sink=outbox,
                                         reference=reference)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outbox.flush()
        reply = {"elapsed_ns": elapsed, "peak_rss_mib": peak, "reference_ns": reference.times}
    elif args.workload == "dedekind_sweep":
        reply = trace_sweep(client, ops, args.seconds, caches, package_dir)
    else:
        reply = trace_cli_mix(client, ops, args.seconds, caches, package_dir)
    json.dump(reply, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
