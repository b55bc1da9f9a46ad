"""The library calls the benchmark in ``perfbench/`` makes still work.

``perfbench/tests`` run outside the default test paths, so a cut to the
public surface could break ``perfbench/run.py`` (``--trace 1`` above all)
without any test here failing.  This module makes each of those calls
once, the way the benchmark makes it.
"""

import io
from fractions import Fraction
from math import lcm

import flateta
from flateta.cli import main, run


def test_staged_cot_table_reads_promoted_coefficients():
    # the traced Dedekind set-up: Phi_M, then every cot(k*pi/alpha) read
    # back as coefficients in Q(zeta_M)
    for alpha in (2, 5, 12):
        order = lcm(4, 2 * alpha)
        phi = flateta.cyclotomic_polynomial(order)
        for k in range(1, alpha):
            coefficients = flateta.cot_exact(k, alpha).promoted(order).coefficients
            # a rational cotangent (cot(pi/2) = 0, cot(3*pi/12) = 1) stays in Q(zeta_1)
            assert len(coefficients) in (1, len(phi) - 1)
            assert all(isinstance(c, Fraction) for c in coefficients)


def test_replayed_cli_calls():
    data = flateta.parse_descriptor("S2;(2,1)(3,-1)(6,-1)")
    assert flateta.validate(data) is data
    assert (flateta.euler_number(data), flateta.orbifold_euler_characteristic(data)) == (0, 0)
    for fiber in data.fibers:
        assert flateta.dedekind_cot(fiber.beta, fiber.alpha) == flateta.dedekind_sawtooth(
            fiber.beta, fiber.alpha
        )
    assert flateta.eta_flat(data).value == flateta.obstruction_report(data).eta.value
    assert flateta.render_descriptor(data) == "S2;(2,1)(3,-1)(6,-1)"
    rendered = [
        flateta.render_descriptor(entry.seifert)
        for entry in flateta.flat_catalog()
        if entry.seifert is not None
    ]
    assert "T2;" in rendered
    volume = flateta.volume_from_chi(7)
    assert flateta.chi_from_volume(volume.approx) == 7
    assert flateta.chi_from_volume(volume.approx, 1e-4) == 7
    assert issubclass(flateta.FlatEtaError, Exception)


def test_cli_entry_points():
    out, err = io.StringIO(), io.StringIO()
    assert run(["dedekind", "5", "12", "--json"], out, err) == 0
    assert err.getvalue() == ""
    assert callable(main)
