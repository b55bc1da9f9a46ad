"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute.  Exactness criteria use == on Fractions (zero tolerance); the
stated runtime budgets are asserted with wall-clock timing.
"""

import io
import json
import time
from fractions import Fraction
from math import gcd

import mpmath

from flateta import (
    BaseSurface,
    SeifertData,
    dedekind_cot,
    dedekind_sawtooth,
    eta_flat,
    flat_catalog,
    run,
    volume_from_chi,
    chi_from_volume,
)
from flateta.dedekind import _cot_sum

G5_DATA = SeifertData(BaseSurface.S2, 0, ((2, 1), (3, -1), (6, -1)))
G3_DATA = SeifertData(BaseSurface.S2, 0, ((3, 2), (3, -1), (3, -1)))


def _report(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_1_known_eta_values_exact():
    start = time.perf_counter()
    got_g5 = eta_flat(G5_DATA).value
    got_g3 = eta_flat(G3_DATA).value
    elapsed = time.perf_counter() - start
    ok = got_g5 == Fraction(-4, 3) and got_g3 == Fraction(-2, 3) and elapsed < 1.0
    _report(
        f"criterion 1: eta = -4/3 and -2/3 exactly ({elapsed:.3f}s < 1s)", ok
    )


def test_criterion_2_integrality_pattern():
    computable = [e for e in flat_catalog() if e.eta is not None]
    non_integral = {e.name for e in computable if not e.eta_integral}
    ok = len(computable) == 5 and non_integral == {"G3", "G5"}
    _report(
        f"criterion 2: non-integral eta exactly at G3 and G5 (got {sorted(non_integral)})",
        ok,
    )


def test_criterion_3_cotangent_path_matches_sawtooth_oracle():
    start = time.perf_counter()
    pairs = 0
    mismatches = []
    for alpha in range(1, 61):
        for beta in range(-alpha, alpha + 1):
            if gcd(beta, alpha) != 1:
                continue
            pairs += 1
            oracle = dedekind_sawtooth(beta, alpha)
            if dedekind_cot(beta, alpha) != oracle:
                mismatches.append((beta, alpha, "answer"))
            if _cot_sum(beta % alpha, alpha) != oracle:
                mismatches.append((beta, alpha, "cot"))
    elapsed = time.perf_counter() - start
    ok = not mismatches and pairs >= 2000 and elapsed < 60.0
    _report(
        f"criterion 3: answer and cot path == sawtooth oracle on {pairs} pairs "
        f"({elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_4_dedekind_reciprocity():
    start = time.perf_counter()
    failures = []
    for alpha in range(2, 61):
        for beta in range(1, alpha):
            if gcd(beta, alpha) != 1:
                continue
            rhs = Fraction(-1, 4) + Fraction(1, 12) * (
                Fraction(alpha, beta) + Fraction(beta, alpha) + Fraction(1, alpha * beta)
            )
            if dedekind_cot(beta, alpha) + dedekind_cot(alpha, beta) != rhs:
                failures.append((beta, alpha, "answer"))
            if _cot_sum(beta, alpha) + _cot_sum(alpha % beta, beta) != rhs:
                failures.append((beta, alpha, "cot"))
            if dedekind_sawtooth(beta, alpha) + dedekind_sawtooth(alpha, beta) != rhs:
                failures.append((beta, alpha, "sawtooth"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(
        f"criterion 4: reciprocity exact for coprime beta < alpha <= 60 ({elapsed:.1f}s < 30s)",
        ok,
    )


def _invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_5_obstruction_semantics():
    code_g5, out_g5, err_g5 = _invoke("obstruct", "S2;(2,1)(3,-1)(6,-1)", "--json")
    payload_g5 = json.loads(out_g5)
    g5_ok = (
        code_g5 == 3
        and payload_g5["geodesic_boundary_obstructed"] is True
        and payload_g5["one_cusped_cross_section_obstructed"] is True
        and payload_g5["predicted_signature"] is None
        and err_g5 != ""
    )
    code_g1, out_g1, err_g1 = _invoke("obstruct", "T2;", "--json")
    payload_g1 = json.loads(out_g1)
    g1_ok = (
        code_g1 == 0
        and payload_g1["geodesic_boundary_obstructed"] is False
        and payload_g1["one_cusped_cross_section_obstructed"] is False
        and payload_g1["predicted_signature"] == 0
        and err_g1 == ""
    )
    _report(
        "criterion 5: G5 obstructed via CLI (exit 3, no signature); "
        "G1 unobstructed with signature 0",
        g5_ok and g1_ok,
    )


def test_criterion_6_gauss_bonnet_round_trip():
    start = time.perf_counter()
    bad = [
        chi
        for chi in range(1, 10**4 + 1)
        if chi_from_volume(volume_from_chi(chi).approx, 1e-6) != chi
    ]
    elapsed = time.perf_counter() - start
    ten_digits = f"{float(volume_from_chi(1).approx):.10g}"
    ok = not bad and ten_digits == "13.15947253" and elapsed < 5.0
    _report(
        f"criterion 6: volume/chi round trip on 1..10^4, vol(1) = {ten_digits}... "
        f"({elapsed:.1f}s < 5s)",
        ok,
    )


def test_criterion_7_exact_matches_high_precision_float():
    def floating_eta(data: SeifertData):
        total = mpmath.mpf(0)
        for fiber in data.fibers:
            partial = mpmath.mpf(0)
            for k in range(1, fiber.alpha):
                partial += mpmath.cot(mpmath.pi * k * fiber.beta / fiber.alpha) * mpmath.cot(
                    mpmath.pi * k / fiber.alpha
                )
            total += partial / (4 * fiber.alpha)
        return 4 * total

    with mpmath.workdps(50):
        bound = mpmath.mpf(10) ** -30
        deviations = []
        for data in (G3_DATA, G5_DATA):
            exact = eta_flat(data).value
            approx = floating_eta(data)
            deviations.append(abs(approx - mpmath.mpf(exact.numerator) / exact.denominator))
        ok = all(d < bound for d in deviations)
    _report(
        "criterion 7: 50-digit float evaluation within 1e-30 of exact eta "
        f"(max deviation {max(deviations)})",
        ok,
    )
