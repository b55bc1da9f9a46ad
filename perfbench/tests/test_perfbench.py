"""The benchmark's own checks: inputs, oracle, tracing and configuration.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from math import gcd

import pytest

import oracle
import run
import worker
import workloads
from conftest import BENCH, ROOT


def test_generators_are_deterministic_per_seed():
    assert workloads.cli_ops(7, 5) == workloads.cli_ops(7, 5)
    assert workloads.cli_ops(7, 5) != workloads.cli_ops(8, 5)
    assert workloads.sweep_ops(7) == workloads.sweep_ops(7)
    assert workloads.sweep_ops(7) != workloads.sweep_ops(8)


def test_sweep_visits_every_ladder_alpha_once_per_pass():
    ops = workloads.sweep_ops(4)
    starts = [alpha for _, alpha, first in ops if first]
    assert sorted(starts) == sorted(workloads.LADDER)
    assert len(ops) == workloads.BLOCK_CALLS * len(workloads.LADDER)


def test_cli_mix_proportions():
    ops = workloads.cli_ops(1, 10)
    kinds = [op["kind"] for op in ops]
    assert len(ops) == 10 * len(workloads.BLOCK) + 10  # each gb adds a --volume op
    assert kinds.count("eta") == 180 and kinds.count("obstruct") == 140
    assert kinds.count("error") == 40 and kinds.count("gb_chi") == kinds.count("gb_volume") == 10


@pytest.mark.parametrize("seed", range(5))
def test_every_descriptor_labelled_flat_is_flat(seed):
    specs = [op for op in workloads.cli_ops(seed, 50) if op["kind"] in ("eta", "obstruct")]
    assert specs
    for spec in specs:
        assert oracle.is_flat(spec["base"], spec["b"], spec["fibers"]), spec
        assert all(gcd(a, b) == 1 for a, b in spec["fibers"]), spec


def test_generated_betas_exceed_alpha():
    fibers = [f for op in workloads.cli_ops(0, 20) for f in op.get("fibers", ())]
    assert any(abs(beta) > alpha for alpha, beta in fibers)


def test_oracle_matches_sawtooth_for_alpha_up_to_60():
    from flateta import dedekind_sawtooth

    for alpha in range(1, 61):
        for beta in range(-alpha, 2 * alpha + 1):
            if gcd(beta, alpha) == 1:
                assert oracle.dedekind(beta, alpha) == dedekind_sawtooth(beta, alpha), (beta, alpha)


def test_oracle_rejects_wrong_outputs():
    spec = {"kind": "eta", "base": "S2", "b": 0, "fibers": [[2, 1], [3, -1], [6, -1]]}
    code, payload = oracle.expect(spec)
    good = {"schema": "1", **payload}
    ok = {"code": code, "out": json.dumps(good) + "\n", "err": "", "exc": None}
    assert oracle.check_cli(spec, ok) == oracle.OK
    wrong_eta = dict(ok, out=json.dumps({**good, "eta": "-1/3"}) + "\n")
    assert oracle.check_cli(spec, wrong_eta) == oracle.VALUE
    assert oracle.check_cli(spec, dict(ok, err="warning\n")) == oracle.STDERR
    assert oracle.check_cli(spec, dict(ok, exc="ValueError: boom")) == oracle.TRACEBACK
    assert oracle.check_cli(spec, dict(ok, code=3)) == oracle.EXIT_CODE
    error = {"kind": "error", "exit": 1}
    traceback = {"code": 1, "out": "", "err": "Traceback (most recent call last):\n", "exc": None}
    assert oracle.check_cli(error, traceback) == oracle.TRACEBACK


def test_volume_feedback_widens_the_tolerance_to_the_printed_digits():
    def chi_call(chi):
        return [0, json.dumps({"volume": f"{oracle.volume(chi):.12g}"}) + "\n", "", None]

    assert worker.feedback(chi_call(1)) == ["13.1594725348", "1e-06"]
    volume, tol = worker.feedback(chi_call(12345678))
    assert float(tol) == 1e-3 and abs(float(volume) - oracle.volume(12345678)) <= float(tol)
    assert worker.feedback([2, "", "error\n", None]) is None


def test_coarse_volume_is_the_known_roundtrip_defect():
    spec = {"kind": "gb_chi", "chi": 12345678}
    coarse = {"code": 0, "out": json.dumps({"volume": f"{oracle.volume(12345678):.12g}"})}
    assert oracle.coarse_volume(spec, coarse)
    fine = {"code": 0, "out": json.dumps({"volume": repr(oracle.volume(12345678))})}
    assert not oracle.coarse_volume(spec, fine)


def _cli_argv(ops):
    return [op["argv"] for op in ops]


def test_traced_cli_mix_gives_the_untraced_outputs():
    specs = workloads.cli_ops(3, 2)
    client = worker.CliMix()
    client.warm_up()
    untraced = worker.run_cli_pass(client, _cli_argv(specs), 0, len(specs))[0].results
    spans = worker.Spans()
    traced, _, roundtrip = worker.run_cli_pass(
        client, _cli_argv(specs), 0, len(specs), spans=spans, replay=client.replay)
    traced = traced.results
    assert traced == untraced
    assert roundtrip and spans.records
    assert set(run.verdicts("cli_mix", specs, traced)) == {oracle.OK}


def test_traced_sweep_gives_the_untraced_outputs():
    ops = [op for op in workloads.sweep_ops(3) if op[1] <= 30]
    client = worker.Sweep()
    caches = worker.discover_caches()
    assert caches, "no flateta caches found by introspection"
    untraced = worker.run_sweep_pass(client.flateta, caches, ops, 0, len(ops))[0].results
    computed = dict.fromkeys(("calls", "repeats", "conv_mults", "reduce_ops_dense",
                              "reduce_ops_sparse", "field_degree", "phi_nnz"), 0)
    spans = worker.Spans()
    traced = worker.run_sweep_pass(client.flateta, caches, ops, 0, len(ops), spans=spans,
                                   computed=computed)[0].results
    assert traced == untraced
    assert computed["calls"] == len(ops) and computed["conv_mults"] > 0
    assert set(run.verdicts("dedekind_sweep", ops, traced)) == {oracle.OK}


def test_cli_processes_give_the_same_outputs_twice(monkeypatch):
    monkeypatch.chdir(ROOT)
    specs = [op for op in workloads.cli_ops(5, 1)][:6]
    client = worker.CliProcess()
    untraced = worker.run_cli_pass(client, _cli_argv(specs), 0, len(specs))[0].results
    traced = worker.run_cli_pass(
        client, _cli_argv(specs), 0, len(specs), spans=worker.Spans())[0].results
    assert traced == untraced
    assert set(run.verdicts("cli_mix", specs, traced)) == {oracle.OK}


def test_benchmark_json_lists_what_run_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in config["workloads"]} == set(worker.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_best_times_keep_each_operations_fastest_pass():
    timings = [(0, 5), (5, 7), (7, 10), None, (20, 22), (22, 30), (30, 33)]
    assert run.best_times(timings, 3) == [3, 2, 3]
    assert run.best_times(timings[:2], 3) == [5, 2]
