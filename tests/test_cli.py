"""Descriptor grammar and command line behavior."""

import errno
import io
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from math import gcd
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    BaseSurface,
    DescriptorSyntaxError,
    FiberPair,
    SeifertData,
    UsageError,
    ValidationError,
    flat_catalog,
    parse_descriptor,
    render_descriptor,
    run,
)
from flateta import cli, eta
from flateta.errors import digit_limit
from helpers import within

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output.schema.json").read_text()
)

# stdout, stderr and exit code of every command in all three output modes,
# recorded before the commands were split into one result plus renderers:
# eta/obstruct on the catalog descriptors, S2;(3,1)(3,1)(3,1), one syntax
# error and one non-flat descriptor; dedekind; catalog; gauss-bonnet both ways.
TRANSCRIPT = json.loads(
    (Path(__file__).resolve().parent / "cli_transcript.json").read_text(encoding="utf-8")
)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class _Full(io.StringIO):
    """A stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


NO_SPACE = f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def _closed():
    """A stream already closed: every write raises ValueError."""
    stream = io.StringIO()
    stream.close()
    return stream


def parse_json_output(text):
    payload = json.loads(text)
    jsonschema.validate(payload, SCHEMA)
    return payload


@pytest.mark.parametrize("row", TRANSCRIPT, ids=[" ".join(r["argv"]) for r in TRANSCRIPT])
def test_transcript_is_byte_identical(row):
    assert invoke(*row["argv"]) == (row["exit"], row["stdout"], row["stderr"])


# (text, message, offset) for every message of the descriptor grammar,
# recorded before the hand-written scanner was replaced by one token pattern
SYNTAX_ERRORS = [
    ("X2;", "expected base 'S2' or 'T2'", 0),
    ("  T 2;", "expected base 'S2' or 'T2'", 2),
    ("S2", "expected ';'", 2),
    ("S2 (2,1)", "expected ';'", 3),
    ("S2;b=1(2,1)", "expected ';'", 6),
    ("S2;b 1;", "expected '='", 5),
    ("S2;2,1)", "expected '('", 3),
    ("S2;(2,1)x", "expected '('", 8),
    ("S2;(2 1)", "expected ','", 6),
    ("S2;b=1;(2,1)(3", "expected ','", 14),
    ("S2;(2,1", "expected ')'", 7),
    ("S2;(2,1)(3,-1)(6,-1", "expected ')'", 19),
    ("S2;b=;", "expected an integer", 5),
    ("S2;(,1)", "expected an integer", 4),
    ("S2;(2,+)", "expected an integer", 6),
    ("S2;(" + "9" * 5000 + ",1)", "integer has too many digits", 4),
]


# a pair whose beta has exactly digit_limit() digits, and as many of them
# as fit in about 10^6 characters
_LIMIT_PAIR = "(2," + "1" * digit_limit() + ")"
_LIMIT_PAIRS = 10**6 // len(_LIMIT_PAIR)


def _refused_within_a_second(text):
    """The DescriptorSyntaxError parse_descriptor raises on text, in a list,
    or an empty list; fails the test if the parse is not done in 1 s."""
    try:
        within(1, lambda: parse_descriptor(text))
    except DescriptorSyntaxError as exc:
        return [exc]
    return []


class TestParseDescriptor:
    def test_catalog_example(self):
        data = parse_descriptor("S2;(2,1)(3,-1)(6,-1)")
        assert data.base is BaseSurface.S2
        assert data.b == 0
        assert data.fibers == (FiberPair(2, 1), FiberPair(3, -1), FiberPair(6, -1))

    def test_bare_torus(self):
        data = parse_descriptor("T2;")
        assert data.base is BaseSurface.T2
        assert data.fibers == ()

    def test_explicit_obstruction_term(self):
        data = parse_descriptor("S2;b=-2;(2,1)")
        assert data.b == -2

    def test_whitespace_ignored(self):
        data = parse_descriptor("  S2 ; b = -2 ; ( 2 , 1 )  ")
        assert data == parse_descriptor("S2;b=-2;(2,1)")

    def test_validation_forwarded(self):
        with pytest.raises(ValidationError, match=r"gcd\(4,2\)"):
            parse_descriptor("S2;(4,2)")

    @pytest.mark.parametrize(
        "text, message, offset",
        SYNTAX_ERRORS,
        ids=[
            f"{text if len(text) < 40 else 'S2;(9x5000,1)'}-{offset}"
            for text, _, offset in SYNTAX_ERRORS
        ],
    )
    def test_syntax_error_offsets(self, text, message, offset):
        with pytest.raises(DescriptorSyntaxError) as excinfo:
            parse_descriptor(text)
        assert str(excinfo.value) == f"{message} (byte {offset})"
        assert excinfo.value.offset == offset

    @pytest.mark.parametrize(
        "head, run, tail, offset",
        [
            ("S2;", " ", "x", 3 + 10**7),
            ("S2;", "\u3000", "x", 3 + 3 * 10**7),
            ("S2;(", "1", "", 4),  # past int()'s digit limit
            ("S2;b=", "1", ";", 5),  # well-formed, with an integer past the limit
            ("S2;(2,", "1", ")", 6),
            ("S2;(2,1)", " ", "(", 8 + 10**7 + 1),  # the end of the text
        ],
        ids=["ascii", "ideographic", "digits", "b_digits", "beta_digits", "space_before_pair"],
    )
    def test_long_whitespace_run_fails_promptly(self, head, run, tail, offset):
        # a scanner that steps over whitespace one character at a time in
        # Python takes over a second here; a pattern that backtracks
        # through the run takes close to one
        assert [error.offset for error in _refused_within_a_second(head + run * 10**7 + tail)] \
            == [offset]

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("S2;" + "(2,1)" * 10**6 + "x", "expected '('", 5_000_003),
            ("S2;" + "( 2 , 1 ) " * 5 * 10**5 + "(", "expected an integer", 5_000_004),
            ("S2;" + "(2,1)" * 10**6 + "(2," + "1" * (digit_limit() + 1) + ")",
             "integer has too many digits", 5_000_006),
            ("S2;" + _LIMIT_PAIR * _LIMIT_PAIRS + "x",
             "expected '('", 3 + len(_LIMIT_PAIR) * _LIMIT_PAIRS),
        ],
        ids=["junk", "spaced_open_pair", "beta_digits", "junk_after_limit_digits"],
    )
    def test_error_after_a_long_well_formed_prefix_is_prompt(self, text, message, offset):
        # a parser that walks the well-formed prefix token by token in
        # Python, or a digit-limit check that counts each digit run again
        # from every digit in it, takes seconds here; the error is named
        # from the one construct where the pattern's match stopped
        assert [str(error) for error in _refused_within_a_second(text)] \
            == [f"{message} (byte {offset})"]

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("S2;(" + "9" * 5000 + ",1)", 4),
            ("S2;b=" + "9" * 5000 + ";", 5),
            ("S2;(2,-" + "9" * 5000 + ")", 6),
            ("S2;(\u00b2,1)", 4),  # str.isdigit accepts it, but it is not ASCII
        ],
        ids=["long_alpha", "long_b", "long_negative_beta", "superscript_digit"],
    )
    def test_unreadable_integer_names_its_start(self, text, offset):
        with pytest.raises(DescriptorSyntaxError) as excinfo:
            parse_descriptor(text)
        assert excinfo.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("S2;\u00a0x", 5),  # U+00A0 is two bytes in UTF-8
            ("S2;\u3000(2,1)x", 11),  # U+3000 is three
            ("S2;\u00a0(2,1\u00a0", 11),  # the end of the text
        ],
    )
    def test_offsets_count_utf8_bytes(self, text, offset):
        with pytest.raises(DescriptorSyntaxError) as excinfo:
            parse_descriptor(text)
        assert excinfo.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("S2;(\u0662,1)(\u0662,1)(2,-1)(2,-1)", 4),  # ARABIC-INDIC DIGIT TWO
            ("S2;b=\u0661;(2,1)", 5),
            ("S2;(2,\uff11)", 6),  # FULLWIDTH DIGIT ONE
        ],
    )
    def test_only_ascii_digits(self, text, offset):
        # int() reads these as 2 and 1, so they used to parse, and the
        # accepted text did not survive render_descriptor
        with pytest.raises(DescriptorSyntaxError, match="expected an integer") as excinfo:
            parse_descriptor(text)
        assert excinfo.value.offset == offset

    def test_round_trip_is_identity(self):
        samples = [
            SeifertData(BaseSurface.S2, 0, ((2, 1), (3, -1), (6, -1))),
            SeifertData(BaseSurface.S2, -3, ((5, 2),)),
            SeifertData(BaseSurface.T2),
        ]
        samples += [e.seifert for e in flat_catalog() if e.seifert is not None]
        for data in samples:
            assert parse_descriptor(render_descriptor(data)) == data


@st.composite
def _fiber(draw):
    alpha = draw(st.integers(2, 10**6))
    beta = draw(st.integers(-(10**6), 10**6).filter(lambda beta: gcd(alpha, beta) == 1))
    return FiberPair(alpha, beta)


_SEIFERT_DATA = st.builds(
    SeifertData,
    st.sampled_from(BaseSurface),
    st.integers(-(10**30), 10**30),
    st.lists(_fiber(), max_size=6).map(tuple),
)
# str.isspace() characters, two of them more than one byte in UTF-8
_WHITESPACE = st.text(alphabet=" \t\n\r\u00a0\u3000", max_size=3)
# the descriptor's tokens: a base, "b", a signed integer, or one character
_RENDERED_TOKEN = re.compile(r"[ST]2|b|[-+]?[0-9]+|.", re.DOTALL)


@st.composite
def _mutated(draw):
    """A rendered descriptor after up to four random edits: truncation,
    deletion, insertion or replacement of one character, or insertion of
    a run of digits one longer than the digit limit."""
    text = render_descriptor(draw(_SEIFERT_DATA))
    alphabet = st.sampled_from("ST2;b=(),+-0139 x\u00a0\u00b2\u0662")
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["truncate", "delete", "insert", "replace", "long_run"]))
        if edit == "truncate":
            text = text[:pos]
        elif edit == "insert":
            text = text[:pos] + draw(alphabet) + text[pos:]
        elif edit == "long_run":
            text = text[:pos] + "1" * (digit_limit() + 1) + text[pos:]
        else:
            text = text[:pos] + (draw(alphabet) if edit == "replace" else "") + text[pos + 1:]
    return text


@st.composite
def _spaced(draw):
    """A rendered descriptor with whitespace drawn before each token and at the end."""
    tokens = _RENDERED_TOKEN.findall(render_descriptor(draw(_SEIFERT_DATA)))
    return "".join(draw(_WHITESPACE) + token for token in tokens) + draw(_WHITESPACE)


# The token walk that parse_descriptor used before it read every text
# with one pattern, kept as the reference it is compared with: it reads
# the whole text one token at a time and mirrors the grammar's lines.
_TOKEN = re.compile(r"\s*(([+-]?[0-9]+)|S2|T2|.|\Z)", re.DOTALL)


def _integer(numeral: str) -> int:
    """int(numeral); ValueError, before int() runs, past digit_limit()."""
    if len(numeral.lstrip("+-")) > digit_limit():
        raise ValueError("integer has too many digits")
    return int(numeral)


def _walk(text: str) -> SeifertData:
    """parse_descriptor token by token; the source of every syntax error."""
    tokens = _TOKEN.finditer(text)  # lazily: junk fails at its first token
    token = next(tokens)

    def fail(message: str):
        # Only ASCII and str.isspace() characters precede the token, so this encodes.
        raise DescriptorSyntaxError(message, len(text[: token.start(1)].encode()))

    def take(*grammar) -> list[int]:
        """Consume one token per grammar item, a literal or int; return the ints."""
        nonlocal token
        values = []
        for want in grammar:
            if want is int:
                if token[2] is None:
                    fail("expected an integer")
                try:
                    value = _integer(token[2])
                except ValueError:
                    fail("integer has too many digits")
                values.append(value)
            elif token[1] != want:
                fail(f"expected {want!r}")
            token = next(tokens)
        return values

    base = token[1]
    if base not in ("S2", "T2"):
        fail("expected base 'S2' or 'T2'")
    take(base, ";")
    b = take("b", "=", int, ";")[0] if token[1] == "b" else 0
    fibers = []
    while token[1]:  # the empty token is the end of the text
        fibers.append(FiberPair(*take("(", int, ",", int, ")")))
    return SeifertData(base, b, tuple(fibers))


def _parse_outcome(parse, text):
    """The parsed value, or the error's type, message and offset."""
    try:
        return parse(text)
    except (DescriptorSyntaxError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


class TestDescriptorGrammarProperties:
    @given(data=_SEIFERT_DATA)
    @settings(max_examples=200, deadline=None)
    def test_valid_data_round_trips(self, data):
        assert parse_descriptor(render_descriptor(data)) == data

    @given(data=_SEIFERT_DATA, spacing=st.data())
    @settings(max_examples=200, deadline=None)
    def test_whitespace_between_tokens_is_ignored(self, data, spacing):
        canonical = render_descriptor(data)
        spaced = "".join(
            spacing.draw(_WHITESPACE) + token for token in _RENDERED_TOKEN.findall(canonical)
        ) + spacing.draw(_WHITESPACE)
        assert render_descriptor(parse_descriptor(spaced)) == canonical

    @given(text=st.one_of(_mutated(), _spaced(), _SEIFERT_DATA.map(render_descriptor)))
    @settings(max_examples=400, deadline=None)
    def test_one_step_parse_matches_the_walk(self, text):
        # parse_descriptor reads every text with one prefix match and names
        # an error from the construct where it stopped; the token walk reads
        # the whole text; both must agree on every text
        assert _parse_outcome(parse_descriptor, text) == _parse_outcome(_walk, text)

    @given(text=_mutated())
    @settings(max_examples=400, deadline=None)
    def test_mutated_text_parses_or_fails_typed(self, text):
        try:
            parse_descriptor(text)
        except DescriptorSyntaxError as exc:
            assert 0 <= exc.offset <= len(text.encode())
        except ValidationError:
            pass


# Whole argv lists: the five commands and unknown ones, --json/--quiet
# (and now and then a help flag) anywhere, and hostile values.  Dedekind
# alphas stay within 60, apart from values the ceiling refuses at once.
_INTEGER_TEXT = st.one_of(
    st.integers(-60, 60).map(str),
    st.sampled_from(["0", "-1", "-1001", "1001", str(10**9), "x", "1.5", ""]),
)
_REAL_TEXT = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "text", "13.1594725348", "0", "-1"]),
)
_FLAT = [render_descriptor(e.seifert) for e in flat_catalog() if e.seifert is not None]
_DESCRIPTOR = st.one_of(_mutated(), st.sampled_from(_FLAT))
_HELP_FLAGS = {"-h", "--help"}


@st.composite
def _argv(draw):
    commands = ["eta", "obstruct", "dedekind", "catalog", "gauss-bonnet", "frobnicate", "ETA"]
    command = draw(st.sampled_from(commands))
    argv = [command]
    if command in ("eta", "obstruct"):
        argv.append(draw(_DESCRIPTOR))
    elif command == "dedekind":
        argv += [draw(_INTEGER_TEXT), draw(_INTEGER_TEXT)]
    elif command == "gauss-bonnet":
        options = (("--chi", _INTEGER_TEXT), ("--volume", _REAL_TEXT), ("--tol", _REAL_TEXT))
        for flag, values in options:
            if draw(st.booleans()):
                # the name or a prefix of it, with its value next or attached
                name = flag[: draw(st.integers(3, len(flag)))]
                value = draw(values)
                argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if draw(st.integers(0, 4)) == 0:  # "--": every token after it is a value
        argv.insert(draw(st.integers(1, len(argv))), "--")
    if draw(st.integers(0, 9)) == 0:  # a stray argument
        argv.append(draw(st.one_of(_INTEGER_TEXT, _DESCRIPTOR)))
    flags = st.sampled_from(
        ["--json", "--quiet"] * 3 + ["--help", "-h", "--jso", "--qui", "-hx", "-1", "-2.5"]
    )
    for flag in draw(st.lists(flags, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), flag)
    return argv


class TestWholeArgvContract:
    @given(argv=_argv())
    @settings(max_examples=300, deadline=None)
    def test_every_argv_ends_in_a_typed_outcome(self, argv):
        code, out, err = within(5, lambda: invoke(*argv))  # nothing escaped run()
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert err == ""
        else:
            assert err.endswith("\n") and err.count("\n") == 1
        if code in (1, 2):
            assert out == ""
        if "--json" in argv and code in (0, 3) and not _HELP_FLAGS & set(argv):
            assert out.endswith("\n") and out.count("\n") == 1
            assert isinstance(parse_json_output(out), dict)


# Argvs at the edges of the grammar and the exit code each ends in, or, for
# a help argv (exit 0), the start of the usage line it writes first.  The
# codes are those argparse gave on CPython 3.11; -hx stays a usage error.
EDGE_ARGVS = [
    ([], 1),
    (["--"], 1),
    (["--json"], 1),
    (["--help"], "usage: flateta [-h]"),
    (["--json", "eta", "T2;"], 0),
    (["--quiet", "--json", "catalog"], 0),
    (["et", "T2;"], 1),
    (["eta", "--", "T2;"], 0),
    (["eta", "T2;", "--"], 0),
    (["eta", "--", "--json"], 1),
    (["dedekind", "--", "-1", "5"], 0),
    (["dedekind", "-1", "5"], 0),
    (["eta", "T2;", "--js"], 0),
    (["eta", "T2;", "--json=1"], 1),
    (["eta", "T2;", "--quiet=", "--json"], 1),
    (["eta", "-hx"], 1),
    (["catalog", "-hx"], 1),
    (["eta", "--help", "T2;"], "usage: flateta eta [-h]"),
    (["eta", "T2;", "-h"], "usage: flateta eta [-h]"),
    (["dedekind", "1", "5", "--q"], 0),
    (["dedekind", "1", "5", "--"], 0),
    (["dedekind", "1"], 1),
    (["catalog", "extra"], 1),
    (["catalog", "--json", "--json"], 0),
    (["gauss-bonnet", "--chi", "2", "--js"], 0),
    (["gauss-bonnet", "--c", "2"], 0),
    (["gauss-bonnet", "--chi", "2", "--volume", "1.0"], 1),
    (["gauss-bonnet", "--", "--chi", "2"], 1),
    (["gauss-bonnet", "--chi=-2"], 2),
    (["eta", "T2;", "eta", "T2;"], 1),
    (["eta", "catalog"], 1),
    (["eta", ""], 1),
    (["eta"], 1),
    (["obstruct", "--json", "--quiet"], 1),
    (["eta", " -S2;"], 1),
    (["obstruct", "-1"], 1),
    (["eta", "-"], 1),
    (["eta", "T2;", "x"], 1),
    (["catalog", ""], 1),
    (["eta", "T2;", "--json", "--quiet", "--json"], 0),
    (["eta", "T2;", "\u2014json"], 1),  # an em dash, not "--"
    (["eta", "T2;", "-hx"], 1),
    (["gauss-bonnet", "--=x"], 1),
    (["--", "eta", "T2;"], 1),
    (["--json", "--", "catalog"], 1),
]


def _takes_value(token):
    """Whether token names --chi, --volume or --tol, or a prefix of one,
    without an attached value: the token after it is that option's value."""
    return len(token) > 2 and "=" not in token and any(
        option.startswith(token) for option in ("--chi", "--volume", "--tol")
    )


def _respelled(argv):
    """argv with --json and --quiet before any "--" shortened to prefixes
    and, unless one stands where an option's value goes, moved before the
    command: no byte of what it writes may change."""
    cut = argv.index("--") if "--" in argv else len(argv)
    flags = {i for i, token in enumerate(argv[:cut]) if token in ("--json", "--quiet")}
    moved = [i for i in sorted(flags) if not (i and _takes_value(argv[i - 1]))]
    short = [token[:4] if i in flags else token for i, token in enumerate(argv)]
    return [short[i] for i in moved] + [token for i, token in enumerate(short) if i not in moved]


class TestArgvOutcomes:
    @pytest.mark.parametrize("case", EDGE_ARGVS)
    def test_edge_argv(self, case):
        argv, want = case
        code, out, err = invoke(*argv)
        if isinstance(want, str):
            assert (code, err) == (0, "")
            assert out.startswith(want)
        elif code:
            assert (code, out) == (want, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert (code, err) == (want, "")

    @pytest.mark.parametrize("argv", [r["argv"] for r in TRANSCRIPT])
    def test_transcript_argvs(self, argv):
        assert invoke(*_respelled(argv)) == invoke(*argv)

    @given(argv=_argv())
    @settings(max_examples=300, deadline=None)
    def test_generated_argvs(self, argv):
        assert invoke(*_respelled(argv)) == invoke(*argv)

    @pytest.mark.parametrize("argv", [["gauss-bonnet", "--=x"], ["--json", "gauss-bonnet", "--=x"]])
    def test_ambiguous_prefix_names_the_commands_own_options(self, argv):
        candidates = "--help, --json, --quiet, --chi, --volume, --tol"
        assert invoke(*argv) == (1, "", f"error: ambiguous option: --=x could match {candidates}\n")


class TestEtaCommand:
    def test_prints_exact_value(self):
        code, out, err = invoke("eta", "S2;(2,1)(3,-1)(6,-1)")
        assert code == 0
        assert err == ""
        assert "-4/3" in out

    def test_quiet_prints_value_only(self):
        code, out, err = invoke("eta", "S2;(2,1)(3,-1)(6,-1)", "--quiet")
        assert (code, out, err) == (0, "-4/3\n", "")

    def test_json_payload(self):
        code, out, err = invoke("eta", "S2;(2,1)(3,-1)(6,-1)", "--json")
        assert code == 0
        payload = parse_json_output(out)
        assert payload["schema"] == "1"
        assert payload["eta"] == "-4/3"
        assert payload["integral"] is False
        assert payload["fibers"][2] == {"alpha": 6, "beta": -1, "dedekind_sum": "-5/18"}

    def test_not_flat_is_domain_error(self):
        code, out, err = invoke("eta", "S2;(2,1)")
        assert code == 2
        assert "not flat: e = -1/2" in err
        assert out == ""

    def test_syntax_error_is_usage_error(self):
        code, out, err = invoke("eta", "S2;(2,1")
        assert code == 1
        assert "byte 7" in err

    def test_offset_after_non_ascii_space_is_in_bytes(self):
        code, out, err = invoke("eta", "S2;\u00a0x")
        assert (code, out) == (1, "")
        assert err == "error: expected '(' (byte 5)\n"

    def test_oversized_integer_is_usage_error(self):
        code, out, err = invoke("eta", "S2;(" + "9" * 5000 + ",1)")
        assert (code, out) == (1, "")
        assert err.startswith("error: integer has too many digits") and err.count("\n") == 1
        assert "byte 4" in err

    def test_matches_catalog_values(self):
        for entry in flat_catalog():
            if entry.seifert is None:
                continue
            code, out, _ = invoke("eta", render_descriptor(entry.seifert), "--quiet")
            assert code == 0
            assert Fraction(out.strip()) == entry.eta, entry.name


class TestObstructCommand:
    def test_obstructed_exits_three(self):
        code, out, err = invoke("obstruct", "S2;(2,1)(3,-1)(6,-1)")
        assert code == 3
        assert "obstructed" in out
        assert "multi-cusped" in out
        assert "not an integer" in err

    def test_obstructed_json(self):
        code, out, err = invoke("obstruct", "S2;(2,1)(3,-1)(6,-1)", "--json")
        assert code == 3
        payload = parse_json_output(out)
        assert payload["geodesic_boundary_obstructed"] is True
        assert payload["one_cusped_cross_section_obstructed"] is True
        assert payload["predicted_signature"] is None
        assert "multi-cusped" in payload["note"]

    def test_unobstructed_torus(self):
        code, out, err = invoke("obstruct", "T2;", "--json")
        assert code == 0
        assert err == ""
        payload = parse_json_output(out)
        assert payload["geodesic_boundary_obstructed"] is False
        assert payload["predicted_signature"] == 0

    def test_signature_prediction(self):
        code, out, _ = invoke("obstruct", "S2;(2,1)(4,-1)(4,-1)", "--json")
        assert code == 0
        assert parse_json_output(out)["predicted_signature"] == 1


class TestDedekindCommand:
    def test_json_shows_both_paths(self):
        code, out, err = invoke("dedekind", "3", "7", "--json")
        assert code == 0
        payload = parse_json_output(out)
        assert payload["sawtooth"] == "-1/14"
        assert payload["cotangent"] == "-1/14"

    def test_negative_beta(self):
        code, out, _ = invoke("dedekind", "-1", "6", "--quiet")
        assert code == 0
        assert out.strip() == "-5/18"

    def test_human_output_names_both_paths(self):
        code, out, _ = invoke("dedekind", "3", "7")
        assert code == 0
        assert "sawtooth" in out and "cotangent" in out

    def test_non_coprime_is_domain_error(self):
        code, out, err = invoke("dedekind", "2", "4")
        assert code == 2
        assert "coprime" in err

    @pytest.mark.parametrize("alpha", ["5000", "1000000000"])
    def test_alpha_above_ceiling_is_refused_at_once(self, alpha):
        code, out, err = within(1, lambda: invoke("dedekind", "1", alpha))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_three_routes_agree_so_the_disagreement_error_is_never_reached(self):
        # every coprime pair with alpha <= 60 and |beta| <= alpha; the
        # whole domain is tools/dedekind_domain.py's
        for alpha in range(1, 61):
            for beta in range(-alpha, alpha + 1):
                if gcd(beta, alpha) == 1:
                    code, out, err = invoke("dedekind", str(beta), str(alpha), "--json")
                    payload = json.loads(out)
                    assert (code, err) == (0, ""), (beta, alpha)
                    assert payload["sawtooth"] == payload["cotangent"], (beta, alpha)

    @pytest.mark.parametrize("route", ["dedekind_sawtooth", "_cot_sum"])
    def test_a_disagreeing_route_is_an_internal_error(self, monkeypatch, route):
        # the check is live: a route made to disagree stops the command
        monkeypatch.setattr(cli, route, lambda beta, alpha: Fraction(1, 3))
        with pytest.raises(RuntimeError, match=r"internal error: Dedekind routes disagree"):
            invoke("dedekind", "3", "7")


class TestCatalogCommand:
    def test_lists_all_six(self):
        code, out, err = invoke("catalog")
        assert code == 0
        for name in ("G1", "G2", "G3", "G4", "G5", "G6"):
            assert name in out

    def test_json_matches_library_catalog(self):
        code, out, _ = invoke("catalog", "--json")
        assert code == 0
        payload = parse_json_output(out)
        entries = payload["entries"]
        assert len(entries) == 6
        by_name = {e["name"]: e for e in entries}
        assert by_name["G5"]["eta"] == "-4/3"
        assert by_name["G3"]["eta"] == "-2/3"
        assert by_name["G1"]["eta"] == "0/1"
        assert by_name["G6"]["eta"] is None
        assert by_name["G6"]["descriptor"] is None
        assert by_name["G6"]["eta_integral"] is True
        for entry in flat_catalog():
            row = by_name[entry.name]
            if entry.seifert is not None:
                assert row["descriptor"] == render_descriptor(entry.seifert)

    def test_built_once_and_kept_apart_from_the_library_list(self, monkeypatch):
        computed, returned = [], []
        real_eta_flat, real_catalog = eta.eta_flat, cli.flat_catalog
        monkeypatch.setattr(eta, "eta_flat", lambda s: computed.append(s) or real_eta_flat(s))
        monkeypatch.setattr(
            cli, "flat_catalog", lambda: returned.append(real_catalog()) or returned[-1]
        )
        cli._catalog.cache_clear()
        first = [invoke("catalog", *mode) for mode in ((), ("--quiet",), ("--json",))]
        assert len(computed) == 5 and len(returned) == 1
        returned[0].reverse()
        del returned[0][1:]
        again = [invoke("catalog", *mode) for mode in ((), ("--quiet",), ("--json",))]
        assert again == first
        assert len(computed) == 5 and len(returned) == 1


class TestGaussBonnetCommand:
    def test_chi_to_volume(self):
        code, out, _ = invoke("gauss-bonnet", "--chi", "1", "--json")
        assert code == 0
        payload = parse_json_output(out)
        assert payload["volume_coefficient"] == "4/3"
        assert payload["volume"] == "13.1594725348"

    def test_volume_to_chi(self):
        code, out, _ = invoke("gauss-bonnet", "--volume", "13.1594725348", "--json")
        assert code == 0
        assert parse_json_output(out)["chi"] == 1

    def test_off_lattice_is_domain_error(self):
        code, out, err = invoke("gauss-bonnet", "--volume", "20.0")
        assert code == 2
        assert "lattice" in err

    def test_nonpositive_chi_is_domain_error(self):
        code, out, err = invoke("gauss-bonnet", "--chi", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--volume", "nan"),
            ("--volume", "inf"),
            ("--volume", "13.1594725348", "--tol", "nan"),
            ("--volume", "13.1594725348", "--tol", "inf"),
            ("--chi", "1" + "0" * 400),
        ],
    )
    def test_non_finite_or_overflowing_input_is_domain_error(self, argv):
        code, out, err = invoke("gauss-bonnet", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_volume_past_the_float_spacing_is_refused(self):
        # a float's ulp there (16) exceeds the spacing; the nearest lattice point is 6.17 away
        code, out, err = invoke("gauss-bonnet", "--volume", "9.87e16")
        assert (code, out) == (2, "")
        assert err.startswith("error: no integer chi with |9.87e+16 - (4*pi^2/3)*chi| <= 1e-06;")

    def test_printed_volume_reads_back(self):
        code, out, _ = invoke("gauss-bonnet", "--chi", "123456789", "--quiet")
        assert (code, out) == (0, "1624626224.078347\n")
        assert invoke("gauss-bonnet", "--volume", out.strip(), "--quiet")[:2] == (0, "123456789\n")

    def test_grouped_volume_is_read_exactly(self):
        # a float's ulp there (256) exceeds the spacing, so only the exact digits read back
        code, out, _ = invoke("gauss-bonnet", "--chi", str(10**17), "--quiet")
        whole, point, fraction = out.strip().partition(".")
        grouped = f"{int(whole):_}{point}{'_'.join(fraction[i:i + 3] for i in range(0, len(fraction), 3))}"
        assert (code, "_" in grouped) == (0, True)
        assert invoke("gauss-bonnet", "--volume", grouped, "--quiet")[:2] == (0, f"{10**17}\n")

    @pytest.mark.parametrize("volume", ["13__1594725348", "_13.1594725348", "13.1594725348_", "13._1594725348"])
    def test_misplaced_group_separator_is_a_usage_error(self, volume):
        code, out, err = invoke("gauss-bonnet", "--volume", volume)
        assert (code, out) == (1, "")
        assert err == f"error: --volume: invalid float value: '{volume}'\n"

    @pytest.mark.parametrize(
        "volume, code",
        [  # (4*pi^2/3)*7 + 1e-6 -/+ 1e-30: the default 1e-6 is exact, not a float below it
            ("92.1163087435006804424552493321764105962611945", 0),
            ("92.1163087435006804424552493321784105962611945", 2),
        ],
    )
    def test_omitted_tol_decides_like_tol_1e_6(self, volume, code):
        omitted = invoke("gauss-bonnet", "--volume", volume, "--json")
        assert omitted == invoke("gauss-bonnet", "--volume", volume, "--tol", "1e-6", "--json")
        assert omitted[0] == code
        if code == 0:
            assert parse_json_output(omitted[1])["tolerance"] == 1e-06

    def test_chi_and_volume_conflict(self):
        code, out, err = invoke("gauss-bonnet", "--chi", "1", "--volume", "13.0")
        assert code == 1

    def test_requires_an_argument(self):
        code, out, err = invoke("gauss-bonnet")
        assert code == 1


class TestCliContract:
    def test_unknown_command(self):
        code, out, err = invoke("frobnicate")
        assert code == 1
        assert err != ""

    def test_missing_command(self):
        code, out, err = invoke()
        assert code == 1

    def test_global_flag_before_subcommand(self):
        code, out, _ = invoke("--json", "dedekind", "3", "7")
        assert code == 0
        assert parse_json_output(out)["sawtooth"] == "-1/14"

    def test_exit_zero_iff_no_error_text(self):
        invocations = [
            ("eta", "S2;(2,1)(3,-1)(6,-1)"),
            ("eta", "S2;(2,1)"),
            ("eta", "nonsense"),
            ("obstruct", "T2;"),
            ("obstruct", "S2;(3,2)(3,-1)(3,-1)"),
            ("dedekind", "3", "7"),
            ("dedekind", "2", "4"),
            ("catalog",),
            ("gauss-bonnet", "--chi", "5"),
            ("gauss-bonnet", "--volume", "20.0"),
            ("gauss-bonnet", "--chi", "0"),
        ]
        for argv in invocations:
            code, out, err = invoke(*argv)
            assert (code == 0) == (err == ""), argv

    # Numeric arguments past the digit limit in force, or CPython's default
    # one when the limit is off (0), where int() reads 10**6 digits in
    # seconds: each is refused at once, its token shown cut short.
    # (argv, the start of its one error line)
    LONG_ARGUMENTS = {
        "beta_one_past": (["dedekind", "1" * (digit_limit() + 1), "7"], "beta: invalid int"),
        "beta": (["dedekind", "1" * 10**6, "7"], "beta: invalid int"),
        "negative_beta": (["dedekind", "--", "-" + "1" * 10**6, "7"], "beta: invalid int"),
        "alpha": (["dedekind", "1", "1" * 10**6], "alpha: invalid int"),
        "grouped_alpha": (["dedekind", "1", "1_" * 10**6 + "1"], "alpha: invalid int"),
        "chi": (["gauss-bonnet", "--chi", "1" * 10**6], "--chi: invalid int"),
        "attached_chi": (["gauss-bonnet", "--chi=" + "1" * 10**6], "--chi: invalid int"),
        "volume": (["gauss-bonnet", "--volume", "1" * 10**6], "--volume: invalid float"),
    }

    @pytest.mark.parametrize("case", LONG_ARGUMENTS.values(), ids=LONG_ARGUMENTS.keys())
    def test_numeric_argument_past_the_digit_limit_is_refused_at_once(self, case):
        argv, message = case
        code, out, err = within(1, lambda: invoke(*argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message} value: '") and err.count("\n") == 1
        assert len(err) < 200

    def test_integer_argument_at_the_digit_limit_is_read(self):
        beta = "1" * digit_limit()
        code, out, err = within(1, lambda: invoke("dedekind", beta, "7", "--quiet"))
        assert (code, err) == (0, "")
        assert out == invoke("dedekind", str(int(beta) % 7), "7", "--quiet")[1]

    @pytest.mark.parametrize("argv", ["eta", [5], ["eta", 5]], ids=["str", "int", "int_arg"])
    def test_argv_that_is_not_a_list_of_str_is_refused(self, argv):
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, stdout=out, stderr=err) == 1
        assert out.getvalue() == ""
        assert err.getvalue() == f"error: argv must be a list or tuple of str, got {argv!r}\n"

    @pytest.mark.parametrize("argv", [("--help",), ("eta", "--help"), ("gauss-bonnet", "-h")])
    def test_help_goes_to_the_given_stdout(self, argv, capsys):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: flateta")
        assert capsys.readouterr() == ("", "")

    def test_concurrent_runs_leave_sys_stdout_alone(self):
        # Eight threads, each with its own streams, alternate help and results,
        # sharing the JSON encoder and the once-built catalog.
        stdout = sys.stdout
        argvs = (["eta", "--help"], ["eta", "T2;"], ["eta", "T2;", "--json"], ["catalog", "--json"])
        cases = [(argv, invoke(*argv)[1]) for argv in argvs]
        cli._catalog.cache_clear()  # the threads race to build it
        assert cases[0][1].startswith("usage: flateta eta")
        failures = []

        def worker():
            for _ in range(50):
                for argv, want in cases:
                    out, err = io.StringIO(), io.StringIO()
                    code = run(argv, stdout=out, stderr=err)
                    if (code, out.getvalue(), err.getvalue()) != (0, want, ""):
                        failures.append(argv)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sys.stdout is stdout
        assert failures == []

    @pytest.mark.parametrize(
        "argv", [("eta", "T2;"), ("catalog", "--json"), ("--help",), ("catalog",)]
    )
    def test_failed_stdout_write_is_reported(self, argv):
        err = io.StringIO()
        assert run(list(argv), stdout=_Full(), stderr=err) == 1
        assert err.getvalue() == NO_SPACE
        err = io.StringIO()
        assert run(list(argv), stdout=_closed(), stderr=err) == 1
        assert err.getvalue() == "error: cannot write output: I/O operation on closed file\n"
        err = io.StringIO()  # a stream without write() fails like a full one
        assert run(list(argv), stdout=5, stderr=err) == 1
        assert err.getvalue() == "error: cannot write output: 'int' object has no attribute 'write'\n"

    def test_failed_flush_is_reported(self):
        class Unflushable(io.StringIO):
            def flush(self):
                raise OSError(errno.EPIPE, "Broken pipe")

        err = io.StringIO()
        assert run(["eta", "T2;"], stdout=Unflushable(), stderr=err) == 1
        assert err.getvalue() == f"error: cannot write output: [Errno {errno.EPIPE}] Broken pipe\n"

    def test_error_is_reported_when_nothing_is_written(self):
        err = io.StringIO()
        assert run(["eta", "X2;"], stdout=_Full(), stderr=err) == 1
        assert err.getvalue() == "error: expected base 'S2' or 'T2' (byte 0)\n"

    def test_failed_stderr_write_is_swallowed(self):
        assert run(["eta", "T2;"], stdout=_Full(), stderr=_Full()) == 1
        assert run(["eta", "X2;"], stdout=io.StringIO(), stderr=_Full()) == 1
        assert run(["obstruct", "S2;(2,1)(3,-1)(6,-1)"], stdout=io.StringIO(), stderr=_Full()) == 3
        assert run(["catalog"], stdout=_closed(), stderr=_closed()) == 1
        assert run(["frobnicate"], stdout=io.StringIO(), stderr=_closed()) == 1
        assert run(["frobnicate"], stdout=io.StringIO(), stderr=5) == 1
        assert run(["catalog"], stdout=5, stderr=5) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("eta", "T2;"), ("catalog", "--json"), ("--help",)])
    def test_console_script_writing_to_a_full_device(self, argv, buffered):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-c", "from flateta.cli import main; main()", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        assert (done.returncode, done.stderr) == (1, NO_SPACE)

    def test_json_output_is_single_object(self):
        for argv in (
            ("eta", "T2;", "--json"),
            ("obstruct", "T2;", "--json"),
            ("dedekind", "1", "3", "--json"),
            ("catalog", "--json"),
            ("gauss-bonnet", "--chi", "2", "--json"),
            ("gauss-bonnet", "--volume", "13.1594725348", "--json"),
        ):
            code, out, _ = invoke(*argv)
            payload = parse_json_output(out)  # validates against the schema
            assert isinstance(payload, dict)
            assert payload["schema"] == "1"
            assert len(out.strip().splitlines()) == 1
