"""Tests for the file formats and the command-line front end."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from shatterlab import ParseError, SetFamily, SpernerSystem, augment, peel
from shatterlab.cli import _emit, _json, _text, main
from shatterlab.families import elements_of_mask
from shatterlab.fileio import (
    certificate_to_object,
    family_from_object,
    family_to_object,
    format_family_text,
    parse_family,
    parse_family_text,
    parse_system,
    system_from_object,
    system_to_object,
)

EX_TEXT = "# three supports over [3]\nn=3\n3\n1,2\n2,3\n1,2,3\n"
EX_FAMILY = SetFamily.of(3, [0b100, 0b011, 0b110, 0b111])
EX_SYSTEM_JSON = json.dumps({
    "n": 3,
    "members": [
        {"S": [1, 2], "H": [1]},
        {"S": [1, 3], "H": []},
        {"S": [2, 3], "H": []},
    ],
})


class TestFamilyText:
    def test_parse_example(self):
        assert parse_family_text(EX_TEXT) == EX_FAMILY

    def test_empty_set_marker_and_blank_lines(self):
        fam = parse_family_text("n=2\n\n-\n1\n")
        assert fam.masks == (0, 1)

    def test_format_is_canonical(self):
        assert format_family_text(EX_FAMILY) == "n=3\n1,2\n3\n2,3\n1,2,3\n"

    def test_roundtrip(self):
        assert parse_family_text(format_family_text(EX_FAMILY)) == EX_FAMILY

    @pytest.mark.parametrize("bad, match", [
        ("1,2\n", "header"),
        ("n=x\n1\n", "bad ground set"),
        ("n=2\n3\n", "outside ground set"),
        ("n=2\n1\n1\n", "duplicate"),
        ("n=2\n1,1\n", "repeated element"),
        ("n=2\na\n", "bad element"),
        ("", "missing header"),
    ])
    def test_parse_errors(self, bad, match):
        with pytest.raises(ParseError, match=match):
            parse_family_text(bad)

    @pytest.mark.parametrize("parse, payload, match", [
        (parse_family, {"n": True, "sets": []}, "'n' must be an integer"),
        (parse_family, {"n": 2, "sets": [[1.5]]}, "bad element 1.5"),
        (parse_family, {"n": 2, "sets": [1]}, "must be an array"),
        (parse_family, {"n": 2, "sets": [[True]]}, "bad element True"),
        (parse_family, {"n": 2, "sets": [[2, 2]]}, "repeated element 2"),
        (parse_family, {"n": 25, "sets": []}, "outside"),
        (parse_system, {"n": 2, "members": [{"S": [1, 1], "H": []}]}, "repeated element 1"),
        (parse_system, {"n": 2, "members": [{"S": 5, "H": []}]}, "must be an array"),
        (parse_system, {"n": 2, "members": [{"S": [1], "H": ["1"]}]}, "bad element '1'"),
    ])
    def test_json_parse_errors(self, parse, payload, match):
        # JSON elements obey the rules of the text format's set lines
        with pytest.raises(ParseError, match=match):
            parse(json.dumps(payload))
        assert run_cli(["check" if parse is parse_family else "construct"],
                       json.dumps(payload))[0] == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_family_text("n=2\n1\n7\n")

    @pytest.mark.parametrize("line, mask", [
        ("01", 0b01), (" 1 , 2 ", 0b11), ("+1", 0b01), ("2 ,01", 0b11), ("\u0661", 0b01),
    ])
    def test_non_canonical_tokens_accepted(self, line, mask):
        # int() reads each stripped token; canonical spelling is not required
        assert parse_family_text(f"n=2\n{line}\n").masks == (mask,)
        with pytest.raises(ParseError) as info:
            parse_family_text(f"n=2\n{line}\n{line}\n")
        assert str(info.value) == f"line 3: duplicate set {line.strip()!r}"

    @pytest.mark.parametrize("sets, message", [
        ([[1.0]], "bad element 1.0"),
        ([[1, True]], "bad element True"),
        ([[2, 1, 2]], "repeated element 2"),
        ([[1], [3]], "element 3 outside ground set [2]"),
        ([[0]], "element 0 outside ground set [2]"),
    ])
    def test_json_elements_refused(self, sets, message):
        # True and 1.0 compare equal to 1, yet they are not elements
        with pytest.raises(ParseError) as info:
            parse_family(json.dumps({"n": 2, "sets": sets}))
        assert str(info.value) == message

    @given(st.integers(0, 6), st.lists(
        st.text(alphabet="0123456789,-+ _", max_size=8)
        | st.lists(st.integers(0, 7), min_size=1, max_size=4).map(lambda es: ",".join(map(str, es))),
        max_size=6))
    def test_set_lines_match_int_reference(self, n, lines):
        text = f"n={n}\n" + "\n".join(lines) + "\n"
        try:
            got = parse_family_text(text).masks
        except ParseError as exc:
            got = str(exc)
        assert got == helpers.reference_parse_set_lines(n, lines)


class TestStructuredFormats:
    def test_family_object_roundtrip(self):
        obj = family_to_object(EX_FAMILY)
        assert obj == {"n": 3, "sets": [[1, 2], [3], [2, 3], [1, 2, 3]]}
        assert family_from_object(obj) == EX_FAMILY

    def test_both_encodings_agree(self):
        structured = json.dumps(family_to_object(EX_FAMILY))
        assert parse_family(structured) == parse_family(EX_TEXT)

    def test_family_object_rejects_duplicates(self):
        with pytest.raises(ParseError):
            family_from_object({"n": 2, "sets": [[1], [1]]})

    def test_family_object_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            family_from_object({"n": 2, "sets": [[3]]})

    def test_system_object_roundtrip(self):
        system = parse_system(EX_SYSTEM_JSON)
        assert system.members == ((0b011, 0b001), (0b101, 0), (0b110, 0))
        assert system_from_object(system_to_object(system)) == system

    def test_system_object_validates(self):
        with pytest.raises(ParseError):
            parse_system(json.dumps({"n": 3, "members": [{"S": [1], "H": [2]}]}))
        with pytest.raises(ParseError):
            parse_system(json.dumps({"n": 3, "members": [
                {"S": [1], "H": []}, {"S": [1, 2], "H": []}]}))
        with pytest.raises(ParseError):
            parse_system("{not json")

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            family_from_object({"n": 2})
        with pytest.raises(ParseError):
            system_from_object({"members": []})


_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80) | st.text(max_size=4)
    | st.lists(st.integers(-3, 3) | st.booleans(), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


class TestJsonWriter:
    @given(_REPORT_VALUES)
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {1: [], None: {}, True: 0, 2.5: "x", "\u00e9": [True, 1]},
        (1, (2,), ()),
        [1.0, -0.0, float("inf")],
        "\ud800",
        {"a": {"b": [[1, 2], [False]]}},
    ])
    def test_edge_cases(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    def test_refuses_what_json_refuses(self):
        for value in ({(1,): 0}, [object()]):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                _json(value)


# strings with line breaks: json escapes them, so indenting a row value leaves them alone
_MULTILINE = st.text(alphabet="\n\r\"\\\u00e9 x", max_size=6)
_ROWS = st.lists(
    st.tuples(st.text(max_size=4), _REPORT_VALUES | _MULTILINE | st.lists(_MULTILINE, max_size=3)),
    min_size=1, max_size=5, unique_by=lambda row: row[0].replace("-", "_"))


class TestEmit:
    @given(_ROWS)
    def test_structured_rows_match_json_dumps(self, rows):
        # a text-only row (key None) stays out of the JSON
        want = {key.replace("-", "_"): value for key, value in rows}
        got = _emit([*rows, (None, None, ["text only"])], "structured")
        assert got == json.dumps(want, indent=2) + "\n"


# every family over [n] for n <= 3, the n = 0 ones included
ALL_SMALL_FAMILIES = [SetFamily(n, bits) for n in range(4) for bits in range(1 << (1 << n))]


@st.composite
def _families_up_to_12(draw):
    n = draw(st.integers(0, 12))
    bits = draw(st.integers(0, (1 << (1 << n)) - 1)
                | st.sets(st.integers(0, (1 << n) - 1), max_size=40).map(
                    lambda masks: sum(1 << m for m in masks)))
    return SetFamily(n, bits)


def _check_family_writer(fam):
    """Each rendering the CLI uses is json's byte for byte and parses back to `fam`."""
    obj = family_to_object(fam)
    compact, top = _text(fam), _json(fam)
    row = _emit([("removed-set", [1]), ("augmented-family", fam), ("s-extremal", True)],
                "structured")
    assert compact == json.dumps(obj)
    assert top == json.dumps(obj, indent=2)
    assert row == json.dumps({"removed_set": [1], "augmented_family": obj, "s_extremal": True},
                             indent=2) + "\n"
    assert parse_family(compact) == parse_family(top) == fam
    assert family_from_object(json.loads(row)["augmented_family"]) == fam
    lines = [",".join(map(str, elems)) or "-" for elems in fam.sets()]
    assert format_family_text(fam) == "\n".join([f"n={fam.n}", *lines, ""])
    assert parse_family_text(format_family_text(fam)) == fam


class TestFamilyWriter:
    def test_every_family_up_to_n3(self):
        for fam in ALL_SMALL_FAMILIES:
            _check_family_writer(fam)

    @pytest.mark.parametrize("fam", [
        SetFamily.empty(0), SetFamily.full(0), SetFamily(3, 0b1), SetFamily(12, 0b1),
        SetFamily(12, 0b11), SetFamily.full(5), SetFamily.full(12), SetFamily(12, 1 << 4095),
    ])
    def test_edge_families(self, fam):
        _check_family_writer(fam)

    @given(_families_up_to_12())
    def test_families_up_to_n12(self, fam):
        _check_family_writer(fam)

    @given(helpers.anchored_systems(max_n=7, max_members=4))
    def test_cli_family_rows(self, triple):
        # top level in construct, one level down in augment and peel
        system = SpernerSystem.from_anchor(*triple)
        fam = system.family()
        system_json = json.dumps(system_to_object(system))
        assert run_cli(["construct", "--format", "structured"], system_json) == (
            0, json.dumps(family_to_object(fam), indent=2) + "\n")
        if fam.is_full() or not fam.bits:
            return
        cert = augment(system)
        code, report = run_cli(["augment", "--format", "structured"], system_json)
        assert (code, report) == (0, json.dumps(certificate_to_object(cert), indent=2) + "\n")
        code, report = run_cli(["augment"], system_json)
        augmented = json.dumps(family_to_object(cert.augmented_family))
        assert code == 0 and f"augmented-family: {augmented}\n" in report
        removed = peel(fam)
        remaining = family_to_object(fam.without_member(removed))
        code, report = run_cli(["peel", "--format", "structured"], format_family_text(fam))
        assert code == 0 and json.loads(report)["remaining_family"] == remaining
        assert report == json.dumps({"removed_set": list(elements_of_mask(removed)),
                                     "remaining_family": remaining, "s_extremal": True},
                                    indent=2) + "\n"
        code, report = run_cli(["peel"], format_family_text(fam))
        assert code == 0 and f"remaining-family: {json.dumps(remaining)}\n" in report


_ODD_ELEMENTS = st.sampled_from([True, False, 1.0, 2.5, "1", None, [1], [], -1, 0, 2 ** 70])
_ODD_SETS = st.lists(st.integers(-1, 5) | _ODD_ELEMENTS, max_size=4) | _ODD_ELEMENTS


class TestFamilyObjectInput:
    """`family_from_object` against `helpers.reference_family_from_sets`, set by set."""

    @pytest.mark.parametrize("sets", [
        [[True]], [[1.0]], [[1, 1]], [[5]], [[0]], [[1], [1]], [[2, 1], [1, 2]], [1], ["1"],
        [[[1]]], [[1, [2]]], [[]], [[], []], [], [[1], [2], [1, 2], []], [[2 ** 70]],
        [[1], [True], [1]], [[1], [1], [3]], [[1, 1], 7],
    ])
    def test_pinned(self, sets):
        self._agree(4, sets)

    @given(st.integers(0, 5), st.lists(
        _ODD_SETS | st.lists(st.integers(1, 5), max_size=5), max_size=8))
    def test_mixes(self, n, sets):
        self._agree(n, sets)

    @staticmethod
    def _agree(n, sets):
        try:
            got = family_from_object({"n": n, "sets": sets}).masks
        except ParseError as exc:
            got = str(exc)
        assert got == helpers.reference_family_from_sets(n, sets)


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


class TestCli:
    def test_check_extremal(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(EX_TEXT)
        code, report = run_cli(["check", "--input", str(path)])
        assert code == 0
        assert "s-extremal: true" in report
        assert "family-size: 4" in report
        assert "shattered-size: 4" in report
        assert "vc-dimension: 1" in report

    def test_check_not_extremal_exits_2(self):
        code, report = run_cli(["check"], "n=2\n-\n1,2\n")
        assert code == 2
        assert "s-extremal: false" in report

    def test_check_structured(self):
        code, report = run_cli(["check", "--format", "structured"], EX_TEXT)
        obj = json.loads(report)
        assert obj["s_extremal"] is True and obj["vc_dimension"] == 1

    def test_construct(self):
        code, report = run_cli(["construct"], EX_SYSTEM_JSON)
        assert code == 0
        assert report == "n=3\n1,2\n3\n2,3\n1,2,3\n"

    def test_decompose_then_construct_roundtrip(self):
        code, system_json = run_cli(["decompose"], EX_TEXT)
        assert code == 0
        obj = json.loads(system_json)
        assert obj["members"][0] == {"S": [1, 2], "H": [1]}
        code, family_text = run_cli(["construct"], system_json)
        assert code == 0
        assert parse_family(family_text) == EX_FAMILY

    def test_decompose_non_extremal_exits_2(self):
        code, report = run_cli(["decompose"], "n=2\n-\n1,2\n")
        assert code == 2

    def test_balance(self):
        code, report = run_cli(["balance"], EX_SYSTEM_JSON)
        assert code == 0
        assert "defect: 0" in report
        assert "partial[2]: 1" in report and "partial[3]: -1" in report

    def test_balance_nonzero_exits_2(self):
        payload = json.dumps({"n": 3, "members": [
            {"S": [1, 2], "H": [1]}, {"S": [2, 3], "H": [2]}]})
        code, report = run_cli(["balance"], payload)
        assert code == 2
        assert "defect: 1" in report

    def test_graph(self):
        code, report = run_cli(["graph"], EX_SYSTEM_JSON)
        assert code == 0
        assert "classification: degree-one-vertex" in report
        assert "edges: 1-3; 2-3" in report

    def test_augment_and_reload_certificate(self):
        code, report = run_cli(["augment", "--format", "structured"], EX_SYSTEM_JSON)
        assert code == 0
        cert = json.loads(report)
        assert cert["added_set"] == [1, 3]
        # the emitted family re-verifies through check
        code2, report2 = run_cli(["check"], json.dumps(cert["augmented_family"]))
        assert code2 == 0 and "s-extremal: true" in report2

    def test_peel_and_reload(self):
        code, report = run_cli(["peel", "--format", "structured"], EX_TEXT)
        assert code == 0
        obj = json.loads(report)
        code2, report2 = run_cli(["check"], json.dumps(obj["remaining_family"]))
        assert code2 == 0 and "s-extremal: true" in report2

    def test_groebner(self):
        code, report = run_cli(["groebner"], EX_SYSTEM_JSON)
        assert code == 0
        assert "generator: x1*x2 - x1" in report
        assert "groebner-basis: true" in report
        assert "equivalence-holds: true" in report

    def test_groebner_with_order(self):
        code, report = run_cli(["groebner", "--order", "3,2,1"], EX_SYSTEM_JSON)
        assert code == 0
        assert "order: 3,2,1" in report

    def test_augment_unbalanced_exits_2(self):
        payload = json.dumps({"n": 3, "members": [
            {"S": [1, 2], "H": [1]}, {"S": [2, 3], "H": [2]}]})
        code, report = run_cli(["augment"], payload)
        assert code == 2
        assert "not extremal" in report

    def test_audit_exhaustive(self):
        code, report = run_cli(["audit", "--n", "2"])
        assert code == 0
        assert "families-examined: 16" in report
        assert "ok: true" in report

    def test_audit_random(self):
        code, report = run_cli(["audit", "--n", "5", "--count", "50", "--seed", "7"])
        assert code == 0
        assert "mode: random" in report

    def test_groebner_rejects_bad_order(self, capsys):
        code, _ = run_cli(["groebner", "--order", "2,1"], EX_SYSTEM_JSON)
        assert code == 1
        code, _ = run_cli(["groebner", "--order", "1,1,2"], EX_SYSTEM_JSON)
        assert code == 1
        # an empty --order is the empty priority list: a permutation only of [0]
        code, out = run_cli(["groebner", "--order", ""], EX_SYSTEM_JSON)
        assert (code, out) == (1, "")
        err = capsys.readouterr().err.splitlines()   # one line per rejection
        assert len(err) == 3 and err[-1] == "error: --order must be a permutation of 1..3, got -"
        code, out = run_cli(["groebner", "--order", ""], json.dumps({"n": 0, "members": []}))
        assert code == 0 and "order: -\n" in out and "standard-monomials: 1\n" in out

    def test_audit_random_needs_seed(self):
        code, _ = run_cli(["audit", "--n", "5", "--count", "50"])
        assert code == 1

    def test_audit_seed_needs_count(self, capsys):
        # the exhaustive sweep draws nothing, so a seed there would be reported unused
        assert run_cli(["audit", "--n", "2", "--seed", "1"]) == (1, "")
        assert capsys.readouterr().err == "error: --count is required with --seed\n"

    def test_construct_empty_system_gives_power_set(self):
        code, report = run_cli(["construct"], json.dumps({"n": 2, "members": []}))
        assert code == 0
        assert report == "n=2\n-\n1\n2\n1,2\n"

    def test_determinism(self):
        first = run_cli(["graph", "--format", "structured"], EX_SYSTEM_JSON)
        second = run_cli(["graph", "--format", "structured"], EX_SYSTEM_JSON)
        assert first == second

    def test_parse_error_exits_1(self):
        code, _ = run_cli(["check"], "n=2\n9\n")
        assert code == 1

    @pytest.mark.parametrize("payload", [
        '{"n": ' + "9" * 5000 + ', "sets": []}',   # beyond int's digit limit
        '{"n": ' + "[" * 100000,                   # beyond the decoder's recursion limit
    ])
    def test_undecodable_json_exits_1(self, payload):
        assert run_cli(["check"], payload) == (1, "")

    def test_missing_file_exits_1(self):
        code, _ = run_cli(["check", "--input", "/nonexistent/family.txt"])
        assert code == 1

    def test_directory_input_exits_1(self, tmp_path, capsys):
        code, report = run_cli(["check", "--input", str(tmp_path)])
        assert (code, report) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_undecodable_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_bytes(b"n=2\n\xff\n")
        assert run_cli(["check", "--input", str(path)]) == (1, "")
        assert capsys.readouterr().err.startswith("error: input is not UTF-8")

    def test_audit_negative_count_exits_1(self, capsys):
        assert run_cli(["audit", "--n", "3", "--count", "-5", "--seed", "1"]) == (1, "")
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-5", str(2 ** 64)])
    def test_audit_seed_outside_64_bits_exits_1(self, seed, capsys):
        assert run_cli(["audit", "--n", "3", "--count", "5", "--seed", seed]) == (1, "")
        err = capsys.readouterr().err
        assert err == f"error: splitmix64 seed must be in [0, 2^64), got {seed}\n"

    def test_audit_random_size_cap_exits_1(self, capsys):
        assert run_cli(["audit", "--n", "11", "--count", "1", "--seed", "1"]) == (1, "")
        assert capsys.readouterr().err == "error: random audit needs n <= 10, got 11\n"

    def test_usage_error_exits_1(self):
        assert run_cli(["definitely-not-a-command"])[0] == 1
        assert run_cli([])[0] == 1

    def test_repeated_main_calls_agree(self, capsys):
        # the parser is built once and shared by every call in the process
        calls = [(["check"], EX_TEXT), (["definitely-not-a-command"], ""),
                 (["check", "--format", "structured"], EX_TEXT),
                 (["audit", "--n", "2", "--format", "structured"], ""),
                 (["check", "--format", "csv"], EX_TEXT)]
        first = []
        for argv, text in calls:
            first.append((run_cli(argv, text), capsys.readouterr()))
        assert [code for (code, _), _ in first] == [0, 1, 0, 0, 1]
        for _ in range(3):
            for (argv, text), expected in zip(calls, first):
                assert (run_cli(argv, text), capsys.readouterr()) == expected

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shatterlab", "check"],
            input=EX_TEXT, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "s-extremal: true" in proc.stdout


# -- fuzzing: every run ends in exit 0, 1 or 2, never in a traceback --------------

def _small_ground(text):
    """False when the text format's header would ask for n > 6 (slow, not wrong)."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            try:
                return key.strip() != "n" or int(value) <= 6
            except ValueError:
                return True
    return True


_LEAVES = st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "sets", "members", "S", "H"]), inner, max_size=5),
    max_leaves=16)
_ELEMENTS = st.lists(st.integers(0, 7) | _LEAVES, max_size=4) | _LEAVES
_GROUND = st.integers(-1, 6) | _LEAVES
_SHAPED = (
    st.fixed_dictionaries({"n": _GROUND, "sets": st.lists(_ELEMENTS, max_size=5)})
    | st.fixed_dictionaries({"n": _GROUND, "members": st.lists(
        st.fixed_dictionaries({"S": _ELEMENTS, "H": _ELEMENTS}) | _JSON_VALUES, max_size=4)}))
_TEXT_FAMILIES = st.builds("n={}\n{}".format, st.integers(-1, 6),
                           st.text(alphabet="0123456789,-# \n", max_size=30))
PAYLOADS = (st.text(max_size=60).filter(_small_ground) | _TEXT_FAMILIES
            | st.builds(json.dumps, _JSON_VALUES | _SHAPED))


@given(st.sampled_from(["check", "construct", "balance", "graph", "decompose"]),
       st.sampled_from(["text", "structured"]), PAYLOADS)
def test_fuzz_main_exits_cleanly(command, fmt, payload):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, report = run_cli([command, "--format", fmt], payload)
    assert code in (0, 1, 2)
    if code == 1:
        assert report == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
