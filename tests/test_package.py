"""The package namespace: what ``from flateta import *`` exports, and
how its public calls answer hostile arguments."""

import importlib
import io
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flateta
from flateta import DomainError, FlatEtaError, SeifertData, ValidationError
from flateta.errors import digit_limit, shown
from helpers import within


def test_all_lists_each_name_once():
    assert len(set(flateta.__all__)) == len(flateta.__all__)


def test_all_names_resolve():
    missing = [name for name in flateta.__all__ if not hasattr(flateta, name)]
    assert missing == []
    namespace = {}
    exec("from flateta import *", namespace)
    assert set(flateta.__all__) <= set(namespace)


def test_import_leaves_argparse_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, flateta; print('argparse' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def _loaded_by(statement, names):
    """Which of names a fresh interpreter has in sys.modules after statement."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = f"import sys; {statement}; print(sorted(set({names!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_import_loads_only_the_dedekind_core():
    names = ["json", "dataclasses", "inspect", "flateta.cli", "flateta.cyclotomic",
             "flateta.dedekind", "flateta.errors"]
    assert _loaded_by("import flateta", names) == "['flateta.dedekind', 'flateta.errors']\n"


def test_cli_import_leaves_cyclotomic_unloaded():
    names = ["flateta.cli", "flateta.cyclotomic"]
    assert _loaded_by("import flateta.cli", names) == "['flateta.cli']\n"


def test_no_module_loads_dataclasses():
    # the value classes are slotted classes of their own, and dataclasses
    # would bring inspect, ast and dis with it; the CLI imports every other
    # module but cyclotomic
    names = ["flateta.cli", "flateta.cyclotomic", "dataclasses", "inspect", "ast", "dis"]
    loaded = _loaded_by("import flateta.cli, flateta.cyclotomic", names)
    assert loaded == "['flateta.cli', 'flateta.cyclotomic']\n"


def test_lazy_names_are_their_modules_objects():
    for name, module in flateta._LAZY.items():
        home = importlib.import_module(f"flateta.{module}")
        assert getattr(flateta, name) is getattr(home, name), name
        assert vars(flateta)[name] is getattr(home, name), name
    assert flateta.run is flateta.cli.run
    assert set(flateta._LAZY) < set(flateta.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'flateta' has no attribute 'nonesuch'"):
        flateta.nonesuch
    assert "nonesuch" not in vars(flateta)


def test_shown_cuts_long_text_only():
    assert shown("x" * 78) == repr("x" * 78)
    assert shown("x" * 100) == "'" + "x" * 79 + "... (102 characters)"
    assert shown(["x" * 100]) == "['" + "x" * 78 + "... (104 characters)"
    assert shown(10**200) == str(10**200)
    assert shown(Fraction(1, 10**200), str) == f"1/{10**200}"


# Hostile library calls, each of which once escaped as a bare TypeError,
# ValueError or AttributeError, returned a wrong value (doubled_euler("x")
# was 'xx'), or never returned (a float order stepped the factor loop of
# cyclotomic_polynomial forever), or took a bool for an int (dedekind_cot(True, 3)
# was 1/18).  The digit_limit calls are correctly typed: their messages
# formatted an int past Python's int-to-str digit limit (4300 digits by
# default) and raised a bare ValueError, and cyclotomic_polynomial([])
# raised TypeError: unhashable type from its cache.  (call, error class,
# text the message holds)  H has 5001 digits: past digit_limit() unless the
# limit is above 5000, and only then shown by its bit length, at any limit
# (the default one when the limit is off).  HUGE has 400,001 digits, which
# str() would take seconds to write with the limit off.
H = 10**5000
H_PAST_LIMIT = digit_limit() <= 5000
HUGE = 10**400000
HOSTILE_CALLS = {
    "polynomial_float_order": (lambda: flateta.cyclotomic_polynomial(2.5), DomainError, "order"),
    "polynomial_str_order": (lambda: flateta.cyclotomic_polynomial("12"), DomainError, "order"),
    "promoted_float_order": (lambda: flateta.cot_exact(1, 3).promoted(24.0), DomainError, "order"),
    "promoted_str_order": (lambda: flateta.cot_exact(1, 3).promoted("24"), DomainError, "order"),
    "cot_float_k": (lambda: flateta.cot_exact(1.5, 3), DomainError, "k and n"),
    "cot_float_n": (lambda: flateta.cot_exact(1, 2.5), DomainError, "k and n"),
    "fiber_missing_beta": (lambda: SeifertData("S2", 0, ((2,),)), ValidationError, "fibers"),
    "fibers_not_a_list": (lambda: SeifertData("S2", 0, 5), ValidationError, "fibers"),
    "volume_text": (lambda: flateta.chi_from_volume("abc"), DomainError, "volume"),
    "volume_too_large": (lambda: flateta.chi_from_volume(10**400), DomainError, "volume"),
    "tolerance_text": (lambda: flateta.chi_from_volume(13.159, "x"), DomainError, "tolerance"),
    "eta_text": (lambda: flateta.predicted_signature("x"), DomainError, "eta"),
    "eta_nan": (lambda: flateta.predicted_signature(float("nan")), DomainError, "eta"),
    "eta_none": (lambda: flateta.predicted_signature(None), DomainError, "eta"),
    "descriptor_int": (lambda: flateta.parse_descriptor(5), DomainError, "descriptor"),
    "validate_pair": (
        lambda: flateta.validate(flateta.FiberPair(2, 1)), ValidationError, "SeifertData"
    ),
    "eta_flat_text": (lambda: flateta.eta_flat("S2;"), ValidationError, "SeifertData"),
    "report_none": (lambda: flateta.obstruction_report(None), ValidationError, "SeifertData"),
    "euler_number_int": (lambda: flateta.euler_number(3), ValidationError, "SeifertData"),
    "chi_orb_list": (
        lambda: flateta.orbifold_euler_characteristic([]), ValidationError, "SeifertData"
    ),
    "render_none": (lambda: flateta.render_descriptor(None), ValidationError, "SeifertData"),
    "sawtooth_text": (lambda: flateta.sawtooth("x"), DomainError, "x"),
    "sawtooth_nan": (lambda: flateta.sawtooth(float("nan")), DomainError, "x"),
    "doubled_euler_text": (lambda: flateta.doubled_euler("x"), DomainError, "chi_w"),
    "doubled_euler_float": (lambda: flateta.doubled_euler(1.5), DomainError, "chi_w"),
    "dedekind_cot_bool_beta": (lambda: flateta.dedekind_cot(True, 3), DomainError, "got True"),
    "dedekind_cot_bool_alpha": (lambda: flateta.dedekind_cot(1, True), DomainError, "and True"),
    "dedekind_sawtooth_bool": (lambda: flateta.dedekind_sawtooth(1, True), DomainError, "and True"),
    "dedekind_sawtooth_huge_alpha": (
        lambda: flateta.dedekind_sawtooth(1, 10**18), DomainError, "SAWTOOTH_ALPHA_MAX"
    ),
    "cot_bool_k": (lambda: flateta.cot_exact(True, 3), DomainError, "k and n"),
    "polynomial_bool_order": (lambda: flateta.cyclotomic_polynomial(True), DomainError, "order"),
    "promoted_bool_order": (lambda: flateta.cot_exact(1, 3).promoted(True), DomainError, "order"),
    "volume_from_chi_bool": (lambda: flateta.volume_from_chi(True), DomainError, "chi"),
    "doubled_euler_bool": (lambda: flateta.doubled_euler(True), DomainError, "chi_w"),
    "digit_limit_dedekind_cot": (lambda: flateta.dedekind_cot(1, H), DomainError, "bits>"),
    "digit_limit_dedekind_cot_negative": (
        lambda: flateta.dedekind_cot(1, -H), DomainError, "bits>"
    ),
    "digit_limit_dedekind_cot_gcd": (
        lambda: flateta.dedekind_cot(2 * H, 4 * H), DomainError, "bits>"
    ),
    "digit_limit_dedekind_sawtooth": (
        lambda: flateta.dedekind_sawtooth(1, H), DomainError, "bits>"
    ),
    "digit_limit_cot_exact": (lambda: flateta.cot_exact(1, H), DomainError, "bits>"),
    "digit_limit_cot_exact_pole": (lambda: flateta.cot_exact(H, H), flateta.PoleError, "bits>"),
    "digit_limit_promoted": (lambda: flateta.cot_exact(1, 3).promoted(H), DomainError, "bits>"),
    "digit_limit_polynomial": (lambda: flateta.cyclotomic_polynomial(H), DomainError, "bits>"),
    "digit_limit_volume_from_chi": (lambda: flateta.volume_from_chi(-H), DomainError, "bits>"),
    "digit_limit_predicted_signature": (
        lambda: flateta.predicted_signature(Fraction(1, H)), flateta.ObstructionError, "bits>"
    ),
    "digit_limit_fiber_alpha": (
        lambda: SeifertData("S2", 0, ((-H, 1),)), ValidationError, "bits>"
    ),
    "digit_limit_fiber_gcd": (
        lambda: SeifertData("S2", 0, ((2 * H, 2),)), ValidationError, "bits>"
    ),
    "polynomial_list_order": (lambda: flateta.cyclotomic_polynomial([]), DomainError, "order"),
    "digit_limit_huge_alpha": (lambda: flateta.dedekind_cot(1, HUGE), DomainError, "bits>"),
    "digit_limit_render_huge_b": (
        lambda: flateta.render_descriptor(SeifertData("S2", HUGE)),
        ValidationError,
        "b has too many digits",
    ),
    "digit_limit_huge_fraction": (
        lambda: flateta.predicted_signature(Fraction(HUGE + 1, HUGE)),
        flateta.ObstructionError,
        "bits>",
    ),
}


@pytest.mark.parametrize("case", HOSTILE_CALLS.values(), ids=HOSTILE_CALLS.keys())
def test_hostile_call_ends_in_a_typed_error(case):
    call, kind, named = case
    with pytest.raises(kind) as refused:
        within(1, call)
    assert isinstance(refused.value, FlatEtaError)
    if named != "bits>" or H_PAST_LIMIT:
        assert named in str(refused.value)


def test_float_order_is_refused_after_the_int_order_is_cached():
    flateta.cyclotomic_polynomial(12)
    with pytest.raises(DomainError, match="order"):
        flateta.cyclotomic_polynomial(12.0)


class _BrokenRepr:
    """A value whose repr raises."""

    def __repr__(self):
        raise RuntimeError("no repr")


class _RaisingOperators:
    """A value whose == and float() raise (and so has no hash)."""

    def __eq__(self, other):
        raise RuntimeError("no ==")

    def __float__(self):
        raise RuntimeError("no float")


# One digit past digit_limit(): past the int-to-str limit in force, or past
# CPython's default one when there is none.
LONG = 10 ** digit_limit()
HOSTILE_VALUES = {
    "broken_repr": _BrokenRepr(),
    "raising_operators": _RaisingOperators(),
    "long": LONG,
    "long_negative": -LONG,
    "list_of_long": [LONG],
    "tuple_of_long": (LONG,),
    "dict_of_long": {LONG: LONG},
    "fraction_long_denominator": Fraction(1, LONG),
    "fraction_long_numerator": Fraction(LONG, 3),
    "huge": HUGE,
    "list_of_huge": [HUGE],
    "fraction_in_a_tuple": (Fraction(1, HUGE),),
    "fiber_pair_of_huge": flateta.FiberPair(2, HUGE),
    "none": None,
    "text": "x",
    "nan": float("nan"),
    "bool": True,
}
# Every public call taking an argument, one entry per argument position.
ENTRY_POINTS = {
    "run": lambda x: flateta.run(x, io.StringIO(), io.StringIO()),
    "parse_descriptor": flateta.parse_descriptor,
    "render_descriptor": flateta.render_descriptor,
    "validate": flateta.validate,
    "euler_number": flateta.euler_number,
    "orbifold_euler_characteristic": flateta.orbifold_euler_characteristic,
    "eta_flat": flateta.eta_flat,
    "obstruction_report": flateta.obstruction_report,
    "predicted_signature": flateta.predicted_signature,
    "sawtooth": flateta.sawtooth,
    "dedekind_cot_beta": lambda x: flateta.dedekind_cot(x, 7),
    "dedekind_cot_alpha": lambda x: flateta.dedekind_cot(1, x),
    "dedekind_sawtooth_beta": lambda x: flateta.dedekind_sawtooth(x, 7),
    "dedekind_sawtooth_alpha": lambda x: flateta.dedekind_sawtooth(1, x),
    "cot_exact_k": lambda x: flateta.cot_exact(x, 3),
    "cot_exact_n": lambda x: flateta.cot_exact(1, x),
    "cyclotomic_polynomial": flateta.cyclotomic_polynomial,
    "promoted": lambda x: flateta.cot_exact(1, 3).promoted(x),
    "volume_from_chi": flateta.volume_from_chi,
    "chi_from_volume": flateta.chi_from_volume,
    "chi_from_volume_tolerance": lambda x: flateta.chi_from_volume(13.159, x),
    "doubled_euler": flateta.doubled_euler,
    "seifert_base": SeifertData,
    "seifert_b": lambda x: SeifertData("S2", x),
    "seifert_fibers": lambda x: SeifertData("S2", 0, x),
    "seifert_fiber_alpha": lambda x: SeifertData("S2", 0, ((x, 1),)),
    "seifert_fiber_beta": lambda x: SeifertData("S2", 0, ((2, x),)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("value", HOSTILE_VALUES.values(), ids=HOSTILE_VALUES.keys())
def test_every_entry_point_ends_in_a_result_or_a_typed_error(entry, value):
    try:
        within(1, lambda: entry(value))
    except FlatEtaError:
        pass
