"""End-to-end CLI behavior: exit codes, determinism, the ignored --cache-dir."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from battery import (a_type, antipodal, binary_dihedral, build, quaternion, scalar_cyclic,
                     times_scalars, trivial)
from orbifill import chen_ruan as chen_ruan_module
from orbifill import cli as cli_module
from orbifill import reeb as reeb_module
from orbifill import spans
from orbifill import parse_group
from orbifill.cli import EXIT_INTERNAL, _guarded, main
from orbifill.cyclotomic import CyclotomicNumber
from orbifill.errors import InvariantViolation, ParseError

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


class Result:
    def __init__(self, exit_code, stdout, stderr):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = stdout + stderr


class Runner:
    """Runs ``main(argv)`` in process, capturing stdout, stderr and the code
    it exits with (0 when it returns)."""

    def invoke(self, args):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as e:
                code = 0 if e.code is None else e.code
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture
def runner():
    return Runner()


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "antipodal2.json").write_text(json.dumps(antipodal(2)))
    (tmp_path / "q8.json").write_text(json.dumps(quaternion()))
    (tmp_path / "z3.json").write_text(json.dumps(scalar_cyclic(3, n=3)))
    (tmp_path / "trivial.json").write_text(json.dumps(trivial()))
    (tmp_path / "bd12xmu5.json").write_text(json.dumps(times_scalars(binary_dihedral(3), 5)))
    (tmp_path / "broken.json").write_text(
        json.dumps({"dimension": 2, "conductor": 2, "generators": [[["1/2", "0"], ["0", "1"]]]})
    )
    (tmp_path / "span_pair.json").write_text(
        json.dumps(
            {
                "span1": {
                    "left": {"cyclic": 2}, "middle": {"cyclic": 2}, "right": {"cyclic": 2},
                    "source": [0, 1], "target": [0, 0],
                },
                "span2": {
                    "left": {"cyclic": 2}, "middle": {"cyclic": 2}, "right": {"cyclic": 2},
                    "source": [0, 0], "target": [0, 1],
                },
            }
        )
    )
    (tmp_path / "one_span.json").write_text(
        json.dumps(
            {
                "span": {
                    "left": {"cyclic": 1}, "middle": {"cyclic": 4}, "right": {"cyclic": 2},
                    "source": [0, 0, 0, 0], "target": [0, 1, 0, 1],
                }
            }
        )
    )
    (tmp_path / "ref_span.json").write_text(
        json.dumps(
            {
                "span": {
                    "left": {"ref": "q8.json"}, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                    "source": [0], "target": [0],
                }
            }
        )
    )
    return tmp_path


def invoke(runner, workspace, *args):
    return runner.invoke([*args, "--cache-dir", str(workspace / "cache")])


class TestExitCodes:
    def test_cr_ring_success(self, runner, workspace):
        result = invoke(runner, workspace, "cr", "ring", str(workspace / "antipodal2.json"),
                        "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert [s["degree"] for s in payload["sectors"]] == ["0", "2"]

    def test_inadmissible_exits_one(self, runner, workspace):
        result = invoke(runner, workspace, "constraints", "admit", str(workspace / "z3.json"),
                        "--boundary", "lens:2,3")
        assert result.exit_code == 1

    def test_admissible_exits_zero(self, runner, workspace):
        result = invoke(runner, workspace, "constraints", "admit",
                        str(workspace / "antipodal2.json"), "--boundary", "lens:2,2")
        assert result.exit_code == 0

    def test_parse_diagnostics_exit_two(self, runner, workspace):
        result = runner.invoke(["group", "info", str(workspace / "broken.json")])
        assert result.exit_code == 2
        assert "not unitary" in result.stderr

    def test_infinite_group_exits_two(self, runner, workspace):
        # A unitary rotation of infinite order: 3/5 + 4/5 i is no root of unity.
        path = workspace / "rotation.json"
        path.write_text(json.dumps({"name": "rot", "dimension": 2, "conductor": 4,
                                    "generators": [[["3/5", "-4/5"], ["4/5", "3/5"]]]}))
        result = invoke(runner, workspace, "group", "info", str(path))
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            "error: the generators do not generate a finite group"]

    def test_corrupted_reduction_exits_three(self):
        # A reduced matrix that is not diagonalizable, as in
        # test_non_group_element_is_internal, is a broken internal state,
        # not an input error.
        group = build(quaternion())
        group._reduction.matrices[3] = ((1, 1), (0, 1))
        with pytest.raises(SystemExit) as info:
            _guarded(lambda: group.eigen_multiplicities(3))()
        assert info.value.code == EXIT_INTERNAL

    @pytest.mark.parametrize("error", [MemoryError("out of memory"), RuntimeError("broken")],
                             ids=lambda e: type(e).__name__)
    def test_unexpected_exception_exits_three(self, runner, monkeypatch, error):
        # Python itself would exit 1, which reads as "not admissible".
        def fail(*args):
            raise error

        monkeypatch.setattr(cli_module, "enumerate_group", fail)
        result = runner.invoke(["constraints", "admit", str(SAMPLES / "a3.json"),
                                "--boundary", "lens:2,3"])
        assert result.exit_code == EXIT_INTERNAL
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"internal error: {type(error).__name__}: {error}"]

    def test_keyboard_interrupt_propagates(self, runner, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "enumerate_group", interrupt)
        with pytest.raises(KeyboardInterrupt):
            runner.invoke(["group", "info", str(SAMPLES / "a3.json")])

    def test_unequal_battery_trial_exits_one(self, runner, monkeypatch):
        # The identity holds on every trial, so one trial is made to fail.
        real, seen = spans.composition_check, []

        def unequal_second_trial(span1, span2):
            lhs, rhs, equal = real(span1, span2)
            seen.append(([span1.left.name, span1.right.name, span2.right.name], lhs, rhs + 1))
            return (lhs, rhs + 1, False) if len(seen) == 2 else (lhs, rhs, equal)

        monkeypatch.setattr(spans, "composition_check", unequal_second_trial)
        result = runner.invoke(["span", "random", "--trials", "3", "--seed", "5",
                                "--format", "json"])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        groups, lhs, rhs = seen[1]
        assert payload["failures"] == [
            {"trial": 1, "groups": groups, "lhs": str(lhs), "rhs": str(rhs)}]
        assert payload["trials"] == 3
        assert payload["all_equal"] is False

    def test_cr_ring_reports_sweep_on_stderr(self, runner, workspace):
        result = invoke(runner, workspace, "cr", "ring", str(workspace / "bd12xmu5.json"),
                        "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["convention"] == "orbit-reps"
        assert payload["associativity_sweep"] == {"full-pairs": False, "orbit-reps": True}
        line = next(x for x in result.stderr.splitlines() if x.startswith("associativity sweep:"))
        assert line == (
            "associativity sweep: full-pairs fails at (c1, c1, c3); orbit-reps passes; "
            "using orbit-reps (chosen by sweep)"
        )

    def test_non_vanishing_report(self, runner, workspace):
        result = invoke(runner, workspace, "ledger", "build", str(workspace / "antipodal2.json"),
                        "--slope", "5/4", "--coefficient", "Z/2", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["vanishes"] is False


GROUP_DOCUMENT = {"name": "g", "dimension": 2, "conductor": 4}
REJECTED_DOCUMENTS = {
    "array.json": [1, 2],
    "int_name.json": {**GROUP_DOCUMENT, "name": 5, "generators": []},
    "object_generators.json": {**GROUP_DOCUMENT, "generators": {}},
    "short_row.json": {**GROUP_DOCUMENT, "generators": [[["1", "0"], ["0"]]]},
    "int_entry.json": {**GROUP_DOCUMENT, "generators": [[["1", 0], ["0", "1"]]]},
    "plus_literal.json": {**GROUP_DOCUMENT, "generators": [[["+1", "0"], ["0", "1"]]]},
    "superscript_literal.json": {**GROUP_DOCUMENT, "generators": [[["\u00b2", "0"], ["0", "1"]]]},
    "long_literal.json": {**GROUP_DOCUMENT, "generators": [[["7" * 5000, "0"], ["0", "1"]]]},
    "ragged_table.json": {"span": {"left": {"cyclic": 1}, "middle": {"table": [[0, 1], [1]]},
                                   "right": {"cyclic": 1}, "source": [0, 0], "target": [0, 0]}},
    "short_images.json": {"span": {"left": {"cyclic": 1}, "middle": {"cyclic": 2},
                                   "right": {"cyclic": 1}, "source": [0], "target": [0, 0]}},
    "a_file": "",
}


class TestRejections:
    """Each rejection and exit that no other test reaches: the exit code
    and the start of the last line on stderr, which for a usage error is
    argparse's message after its usage lines. A run that exits 0 writes
    nothing to stderr."""

    @pytest.mark.parametrize("args, code, message", [
        (["constraints", "admit", "{samples}/quaternion.json", "--boundary", "brieskorn:5,3"],
         1, "constraints not applicable: requires k < n, got k=5, n=3"),
        (["group", "info", "{docs}/array.json"], 2, "error: group document must be a JSON object"),
        (["group", "info", "{docs}/int_name.json"], 2, "error: name: must be a string"),
        (["group", "info", "{docs}/object_generators.json"],
         2, "error: generators: must be a list of matrices"),
        (["group", "info", "{docs}/short_row.json"],
         2, "error: generators[0][1]: must have 2 entries"),
        (["group", "info", "{docs}/int_entry.json"],
         2, "error: generators[0][0][1]: entry must be a cyclotomic literal string"),
        (["group", "info", "{docs}/plus_literal.json"],
         2, "error: generators[0][0][0]: unexpected leading '+' at offset 0 in '+1'"),
        (["group", "info", "{docs}/superscript_literal.json"],
         2, "error: generators[0][0][0]: unexpected character '\u00b2' at offset 0 in '\u00b2'"),
        (["group", "info", "{docs}/long_literal.json"],
         2, "error: generators[0][0][0]: integer too long at offset 0 in '7777"),
        (["span", "random", "--trials", "x"],
         2, "orbifill span: error: argument --trials: 'x' is not a valid integer"),
        (["group", "info", "{docs}"], 2, "orbifill group: error: argument path: file '"),
        (["group", "info", "{samples}/a3.json", "--cache-dir", "{docs}/a_file"],
         2, "orbifill group: error: argument --cache-dir: directory '"),
        (["ledger", "build", "{samples}/antipodal2.json", "--slope", "5/4", "--profile", "bad"],
         2, "error: profile 'bad' must look like CLASS:PERIOD=idx,idx,..."),
        (["ledger", "build", "{samples}/antipodal2.json", "--slope", "5/4",
          "--coefficient", "Z"], 0, ""),
        (["cr", "filling", "--betti", "1", "--singularity", "{samples}/antipodal2.json",
          "--coefficient", "Z"], 0, ""),
        (["ledger", "build", "{samples}/antipodal2.json", "--slope", "5/4",
          "--coefficient", "Z/1"], 2, "error: modulus must be at least 2"),
        (["ledger", "build", "{samples}/antipodal2.json", "--slope", "5/4",
          "--coefficient", "R"], 2, "error: unknown coefficient ring 'R'"),
        (["constraints", "boundary", "subcritical:0"],
         2, "error: bad boundary descriptor 'subcritical:0': n must be positive"),
        (["constraints", "rp", "1"], 2, "error: n must be at least 2"),
        (["reeb", "report", "{samples}/a3.json", "--bound", "0"],
         2, "error: periods are positive rationals in units of 2*pi"),
        (["constraints", "boundary", f"lens:{'9' * 400},3"],
         2, f"error: boundary lens:{'9' * 400},3: its divisor {'9' * 400}! has more than 4300"),
        (["span", "check", "{docs}/ragged_table.json"],
         2, "error: multiplication table is not square"),
        (["span", "check", "{docs}/short_images.json"],
         2, "error: homomorphism image list has the wrong length"),
    ], ids=["not-applicable", "array-document", "int-name", "object-generators", "short-row",
            "int-entry", "plus-literal", "superscript-literal", "long-literal", "trials-x",
            "directory-document", "cache-dir-file", "malformed-profile", "integers",
            "filling-integers", "z-mod-1", "unknown-ring", "subcritical-0", "rp-1", "bound-0",
            "lens-400-digits", "ragged-table", "short-images"])
    def test_exit_and_message(self, runner, tmp_path, args, code, message):
        for name, doc in REJECTED_DOCUMENTS.items():
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        result = runner.invoke([a.format(docs=tmp_path, samples=SAMPLES) for a in args])
        assert result.exit_code == code
        if code:
            assert result.stderr.splitlines()[-1].startswith(message)
        else:
            assert result.stderr == ""

    def test_long_literal_is_quoted_as_an_excerpt(self, runner, tmp_path):
        path = tmp_path / "long_literal.json"
        path.write_text(json.dumps(REJECTED_DOCUMENTS["long_literal.json"]))
        result = runner.invoke(["group", "info", str(path)])
        assert result.exit_code == 2
        assert result.stderr == ("error: generators[0][0][0]: integer too long at offset 0 in '"
                                 + "7" * 60 + "'... (5000 characters)\n")
        assert len(result.stderr.encode()) < 200

    def test_invariant_violation_exits_one(self, capsys):
        # No command line reaches this arm: `ledger build` checks only the
        # entry that known_differentials forces, which always holds.
        def violated():
            raise InvariantViolation(3, "homotopy classes differ")

        with pytest.raises(SystemExit) as info:
            _guarded(violated)()
        assert info.value.code == 1
        assert capsys.readouterr().err == "check failed: entry 3: homotopy classes differ\n"

    def test_indeterminate_parity(self, runner, tmp_path):
        # C/mu4 in U(1) has the degrees 0, 1/2, 1 and 3/2.
        path = tmp_path / "mu4.json"
        path.write_text(json.dumps(scalar_cyclic(4, n=1)))
        result = runner.invoke(["cr", "ring", str(path), "--format", "json"])
        assert result.exit_code == 0
        sectors = json.loads(result.stdout)["sectors"]
        assert [(s["degree"], s["parity"]) for s in sectors] == [
            ("0", "even"), ("1/2", "indeterminate"), ("1", "odd"), ("3/2", "indeterminate")]


class TestSpanInputs:
    """Malformed span documents and out-of-range span options are input
    errors: exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("source", [[0, 5], [0, True], 1], ids=["index-5", "bool", "not-list"])
    def test_bad_image_list_exits_two(self, runner, workspace, source):
        doc = json.loads((workspace / "span_pair.json").read_text())
        doc["span1"]["source"] = source
        (workspace / "bad_span.json").write_text(json.dumps(doc))
        result = invoke(runner, workspace, "span", "check", str(workspace / "bad_span.json"))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "groups",
        [{"left": {"cyclic": True}},
         {"middle": {"table": [[False, True], [True, False]]}},
         {"left": {"cyclic": True}, "middle": {"table": [[False, True], [True, False]]}}],
        ids=["cyclic-bool", "table-bools", "both"],
    )
    def test_bool_group_exits_two(self, runner, workspace, groups):
        # Read as ints, these are Z1 and Z2 and the span would pass with
        # pushpull 1/2.
        doc = {"span": {"left": {"cyclic": 1}, "middle": {"cyclic": 2},
                        "right": {"cyclic": 1}, "source": [0, 0], "target": [0, 0],
                        **groups}}
        (workspace / "bool_span.json").write_text(json.dumps(doc))
        result = invoke(runner, workspace, "span", "check", str(workspace / "bool_span.json"))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("table", [5, [1, 2], None, []],
                             ids=["int", "flat-list", "null", "empty"])
    def test_malformed_table_exits_two(self, runner, workspace, table):
        # Empty image lists match the empty table, which has no identity.
        doc = {"span": {"left": {"cyclic": 1}, "middle": {"table": table},
                        "right": {"cyclic": 1}, "source": [], "target": []}}
        (workspace / "table_span.json").write_text(json.dumps(doc))
        result = invoke(runner, workspace, "span", "check", str(workspace / "table_span.json"))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "doc",
        ["span",
         {"span": "left middle right source target"},
         {"span1": "left middle right", "span2": "source target"},
         {"span": {"left": "cyclic", "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                   "source": [0], "target": [0]}},
         {"span": {"left": {"ref": 5}, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                   "source": [0], "target": [0]}}],
        ids=["document-string", "span-string", "pair-strings", "group-string", "ref-int"],
    )
    def test_non_object_exits_two(self, runner, workspace, doc):
        # As strings, "in" tests for substrings and indexing takes characters.
        (workspace / "odd_span.json").write_text(json.dumps(doc))
        result = invoke(runner, workspace, "span", "check", str(workspace / "odd_span.json"))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_random_max_order_below_two_exits_two(self, runner, workspace, value):
        result = invoke(runner, workspace, "span", "random", "--trials", "3",
                        "--max-order", value)
        assert result.exit_code == 2
        assert "x>=2" in result.stderr

    def test_random_negative_trials_exits_two(self, runner, workspace):
        result = invoke(runner, workspace, "span", "random", "--trials", "-1")
        assert result.exit_code == 2
        assert "x>=0" in result.stderr

    def test_check_honours_max_order(self, runner, workspace):
        target = str(workspace / "ref_span.json")
        capped = invoke(runner, workspace, "span", "check", target, "--max-order", "4")
        assert capped.exit_code == 2
        assert "order cap 4" in capped.stderr
        default = invoke(runner, workspace, "span", "check", target, "--format", "json")
        exact = invoke(runner, workspace, "span", "check", target, "--max-order", "8",
                       "--format", "json")
        assert default.exit_code == exact.exit_code == 0
        assert default.stdout == exact.stdout
        assert json.loads(default.stdout)["pushpull"] == "1"


class TestSpanCap:
    """--max-order bounds cyclic and table span groups before any table is
    built."""

    @pytest.mark.parametrize("group", [{"cyclic": 3000}, {"table": [[0, 1, 2]] * 3}],
                             ids=["cyclic", "table"])
    def test_group_above_cap_exits_two(self, runner, workspace, monkeypatch, group):
        def unexpected(*args, **kwargs):
            raise AssertionError("a span group was built above the cap")

        monkeypatch.setattr(spans, "cyclic", unexpected)
        monkeypatch.setattr(spans, "FiniteGroupTable", unexpected)
        # The left group is read first, so no span group is built at all.
        doc = {"span": {"left": group, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                        "source": [0], "target": [0]}}
        (workspace / "big_span.json").write_text(json.dumps(doc))
        result = invoke(runner, workspace, "span", "check", str(workspace / "big_span.json"),
                        "--max-order", "2")
        assert result.exit_code == 2
        assert "order cap 2" in result.stderr
        assert "Traceback" not in result.output

    def test_cyclic_groups_at_the_cap(self, runner, workspace):
        # Z20000 is at the default cap, where a full table would hold 4e8
        # entries: rows and columns are composed one at a time instead.
        z, one = {"cyclic": 20000}, {"cyclic": 1}
        identity = {"left": z, "middle": z, "right": z,
                    "source": list(range(20000)), "target": list(range(20000))}
        cases = [
            ({"span": {"left": z, "middle": one, "right": one, "source": [0], "target": [0]}},
             {"pushpull": "1"}),
            ({"span": {"left": one, "middle": one, "right": z, "source": [0], "target": [0]}},
             {"pushpull": "20000"}),
            ({"span1": identity, "span2": identity}, {"lhs": "1", "rhs": "1", "equal": True}),
        ]
        for doc, expected in cases:
            (workspace / "cap_span.json").write_text(json.dumps(doc))
            tracemalloc.start()
            try:
                result = invoke(runner, workspace, "span", "check",
                                str(workspace / "cap_span.json"), "--format", "json")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.stderr
            payload = json.loads(result.stdout)
            del payload["metadata"]
            assert payload == expected
            assert peak < 40 * 2**20, peak


class TestDivisorDigits:
    """A divisor with more digits than Python converts to text (4300) is
    refused from k and n alone, before it is built."""

    def test_largest_printable_factorial(self, runner, workspace):
        result = invoke(runner, workspace, "constraints", "boundary", "lens:1558,2",
                        "--format", "json")
        assert result.exit_code == 0
        divisors = json.loads(result.stdout)["divisors"]
        assert [len(str(d["divides"])) for d in divisors] == [4300]

    @pytest.mark.parametrize("boundary", ["lens:1559,2", "lens:100000000,2", "lens:2,100000"])
    @pytest.mark.parametrize("action", ["boundary", "admit"])
    def test_too_many_digits_exit_two(self, runner, workspace, action, boundary):
        if action == "boundary":
            args = ["constraints", "boundary", boundary]
        else:
            args = ["constraints", "admit", str(workspace / "trivial.json"), "--boundary", boundary]
        result = invoke(runner, workspace, *args)
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: boundary {boundary}: its divisor ")
        assert result.stderr.endswith("has more than 4300 digits\n")


class TestGroupDocuments:
    """Group document fields that would mislead or exhaust the program are
    input errors: exit 2 with the field named, never a traceback."""

    @pytest.mark.parametrize("conductor", [15015, 10**8])
    def test_conductor_above_bound_exits_two(self, runner, workspace, conductor):
        path = workspace / "big_conductor.json"
        path.write_text(json.dumps({"name": "neg", "dimension": 2, "conductor": conductor,
                                    "generators": [[["-1", "0"], ["0", "-1"]]]}))
        result = invoke(runner, workspace, "group", "info", str(path))
        assert result.exit_code == 2
        assert "conductor" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("field", ["dimension", "conductor"])
    def test_bool_field_exits_two(self, runner, workspace, field):
        # Read as ints, both are 1 and the document is the group {-1}.
        doc = {"dimension": 1, "conductor": 1, "generators": [[["-1"]]], field: True}
        path = workspace / "bool_group.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, workspace, "group", "info", str(path))
        assert result.exit_code == 2
        assert field in result.stderr
        assert "Traceback" not in result.output


class TestZeroDenominators:
    """A rational option with denominator 0 is an input error (exit 2), not
    a ZeroDivisionError."""

    @pytest.mark.parametrize("args", [
        ("reeb", "report", "antipodal2.json", "--bound", "1/0"),
        ("ledger", "build", "antipodal2.json", "--slope", "1/0"),
        ("ledger", "build", "antipodal2.json", "--slope", "5/4", "--profile", "Id:1/0=0"),
    ], ids=["bound", "slope", "profile"])
    def test_exits_two(self, runner, workspace, args):
        command, action, doc, *rest = args
        result = invoke(runner, workspace, command, action, str(workspace / doc), *rest)
        assert result.exit_code == 2
        assert "1/0" in result.stderr
        assert "Traceback" not in result.output


class TestExponentNotation:
    """Rational options refuse 1eK text, which Fraction would expand into a
    K-digit int before any check; ints, p/q and decimals still parse."""

    A3 = str(Path(__file__).resolve().parent.parent / "samples" / "a3.json")

    def test_bound_exits_two(self, runner, workspace):
        result = invoke(runner, workspace, "reeb", "report", self.A3, "--bound", "304e-2")
        assert result.exit_code == 2
        assert "304e-2" in result.stderr
        assert "Traceback" not in result.output

    def test_profile_period_exits_two(self, runner, workspace):
        result = invoke(runner, workspace, "ledger", "build", self.A3,
                        "--slope", "203/101", "--profile", "Id:1e0=0")
        assert result.exit_code == 2
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "1e0" in errors[0]
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("bound", ["304/101", "2.4"])
    def test_plain_forms_accepted(self, runner, workspace, bound):
        assert invoke(runner, workspace, "reeb", "report", self.A3, "--bound", bound).exit_code == 0

    def test_rational_forms(self):
        assert cli_module.rational("2.5") == Fraction(5, 2)
        assert cli_module.rational("304/101") == Fraction(304, 101)
        assert cli_module.rational("-7") == -7
        for text in ("1e1000000", "2E3", "1e0"):
            with pytest.raises(ValueError, match="exponent notation"):
                cli_module.rational(text)


class TestMaxOrder:
    QUERIES = [
        ("group", "info", "trivial.json"),
        ("cr", "ring", "trivial.json"),
        ("reeb", "report", "trivial.json"),
        ("ledger", "build", "trivial.json", "--slope", "5/4"),
        ("constraints", "admit", "trivial.json", "--boundary", "lens:2,2"),
    ]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cap_below_one_exits_two(self, runner, workspace, value):
        for command, action, doc, *rest in self.QUERIES:
            result = invoke(runner, workspace, command, action, str(workspace / doc), *rest,
                            "--max-order", value)
            assert result.exit_code == 2, command
            assert "x>=1" in result.stderr, command

    def test_cap_of_one_admits_trivial_group(self, runner, workspace):
        result = invoke(runner, workspace, "group", "info", str(workspace / "trivial.json"),
                        "--max-order", "1", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["order"] == 1


class TestDeterminism:
    def test_byte_identical_reports(self, runner, workspace):
        args = ("cr", "ring", str(workspace / "q8.json"), "--format", "json")
        first = invoke(runner, workspace, *args)
        second = invoke(runner, workspace, *args)
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code == 0

    def test_group_info_byte_identical(self, runner, workspace):
        args = ("group", "info", str(workspace / "q8.json"), "--format", "json")
        first = invoke(runner, workspace, *args)
        second = invoke(runner, workspace, *args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout

    def test_span_battery_seeded(self, runner, workspace):
        args = ("span", "random", "--trials", "25", "--seed", "11", "--format", "json")
        first = invoke(runner, workspace, *args)
        second = invoke(runner, workspace, *args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["all_equal"] is True

    # sha256 of the stdout of `span random --trials 150` at seeds 0-29 in
    # turn, recorded before the battery's groups moved onto tables.closure.
    SPAN_RANDOM_DIGESTS = {
        "json": "0d1a91fa2689789e67973423c70f7bd7b8b3dbc95f4e1bf7fccb4f3e7b106581",
        "table": "437c2f30e7e48213762d4289e72471389d3609f92de4ac9bdf603643ff558f6c",
    }

    @pytest.mark.parametrize("fmt", sorted(SPAN_RANDOM_DIGESTS))
    def test_span_random_stdout_pinned(self, runner, fmt):
        digest = hashlib.sha256()
        for seed in range(30):
            result = runner.invoke(["span", "random", "--trials", "150", "--seed", str(seed),
                                    "--format", fmt])
            assert result.exit_code == 0, seed
            digest.update(result.stdout.encode())
        assert digest.hexdigest() == self.SPAN_RANDOM_DIGESTS[fmt]


class TestIgnoredCacheDir:
    """Nothing is cached: --cache-dir is accepted for old invocations, and no
    query writes under it, $ORBIFILL_CACHE_DIR or ~/.cache/orbifill."""

    QUERIES = [
        ("group", "info", "q8.json"),
        ("cr", "ring", "bd12xmu5.json"),
        ("reeb", "report", "antipodal2.json", "--bound", "9/4"),
        ("ledger", "build", "antipodal2.json", "--slope", "5/4"),
        ("constraints", "admit", "z3.json", "--boundary", "lens:2,3"),
        ("span", "check", "ref_span.json"),
    ]

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: f"{q[0]}-{q[1]}")
    def test_cache_dir_accepted_and_unused(self, runner, workspace, monkeypatch, query):
        home, env_dir = workspace / "home", workspace / "env-cache"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("ORBIFILL_CACHE_DIR", str(env_dir))
        command, action, doc, *rest = query
        args = [command, action, str(workspace / doc), *rest, "--format", "json"]
        plain = runner.invoke(args)
        with_dir = invoke(runner, workspace, *args)
        assert plain.exit_code == with_dir.exit_code
        assert plain.stdout == with_dir.stdout
        assert not (workspace / "cache").exists()
        assert not env_dir.exists()
        assert list(home.iterdir()) == []

    def test_cache_dir_hidden_from_help(self, runner):
        for command in ("group", "span"):
            result = runner.invoke([command, "--help"])
            assert result.exit_code == 0
            assert "--cache-dir" not in result.stdout

    def test_stale_cache_file_is_ignored(self, runner, workspace):
        target = str(workspace / "q8.json")
        first = invoke(runner, workspace, "group", "info", target, "--format", "json")
        digest = json.loads(first.stdout)["metadata"]["input_digest"]
        (workspace / "cache").mkdir()
        (workspace / "cache" / f"{digest}.json").write_text("{definitely corrupt")
        second = invoke(runner, workspace, "group", "info", target, "--format", "json")
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout


class TestCommands:
    def test_group_info_payload(self, runner, workspace):
        result = invoke(runner, workspace, "group", "info", str(workspace / "q8.json"),
                        "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["order"] == 8
        assert payload["isolated_singularity"] is True
        assert len(payload["classes"]) == 5

    def test_reeb_report(self, runner, workspace):
        result = invoke(runner, workspace, "reeb", "report", str(workspace / "antipodal2.json"),
                        "--bound", "9/4", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["discrepancy"]["verdict"] == "canonical-not-terminal"
        periods = {(f["class"], f["period"]) for f in payload["families"]}
        assert ("c1", "1/2") in periods and ("Id", "1") in periods

    def test_constraints_boundary_table(self, runner, workspace):
        result = invoke(runner, workspace, "constraints", "boundary", "lens:2,3",
                        "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["effective_bound"] == 2
        assert payload["uniqueness"]["count"] == 1

    def test_constraints_boundary_inapplicable(self, runner, workspace):
        result = invoke(runner, workspace, "constraints", "boundary", "brieskorn:5,3",
                        "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["applicable"] is False
        assert payload["reason"] == "requires k < n, got k=5, n=3"
        assert "effective_bound" not in payload

    def test_constraints_rp(self, runner, workspace):
        result = invoke(runner, workspace, "constraints", "rp", "4", "--format", "json")
        assert json.loads(result.stdout)["conclusion"] is None

    def test_span_check_pair(self, runner, workspace):
        result = invoke(runner, workspace, "span", "check", str(workspace / "span_pair.json"),
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["equal"] is True

    def test_span_check_single(self, runner, workspace):
        result = invoke(runner, workspace, "span", "check", str(workspace / "one_span.json"),
                        "--format", "json")
        assert json.loads(result.stdout)["pushpull"] == "1/2"

    def test_cr_filling(self, runner, workspace):
        result = invoke(runner, workspace, "cr", "filling", "--betti", "1",
                        "--singularity", str(workspace / "antipodal2.json"),
                        "--coefficient", "Q", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["total_rank"] == 2
        assert payload["ranks_by_degree"] == {"0": 1, "2": 1}

    def test_ledger_build(self, runner, workspace):
        result = invoke(runner, workspace, "ledger", "build", str(workspace / "antipodal2.json"),
                        "--slope", "5/4", "--format", "json")
        payload = json.loads(result.stdout)
        assert len(payload["known_differentials"]) == 1
        assert payload["known_differentials"][0]["coefficient"] == 2

    def test_ledger_profile_of_no_family_exits_two(self, runner, workspace):
        result = invoke(runner, workspace, "ledger", "build", str(workspace / "antipodal2.json"),
                        "--slope", "5/4", "--profile", "Zz:9=0", "--profile", "Id:1=0,3")
        assert result.exit_code == 2
        assert "Zz:9" in result.stderr and "Id:1" not in result.stderr

    def test_family_cap_exits_two_quickly(self, runner, workspace):
        # A3 has 6 periods per unit of bound: 200,001 families below 100001/3.
        path = workspace / "a3.json"
        path.write_text(json.dumps(a_type(4)))
        for command, option in (("reeb", "report"), ("ledger", "build")):
            flag = "--bound" if command == "reeb" else "--slope"
            start = time.perf_counter()
            result = invoke(runner, workspace, command, option, str(path), flag, "100001/3")
            assert time.perf_counter() - start < 1.0, command
            assert result.exit_code == 2, command
            assert "200001 orbit families" in result.stderr and "100000" in result.stderr
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, value, message", [
        ("reeb", "5/2", "--bound 5/2 is an admissible period"),
        ("ledger", "5/2", "slope 5/2 is an admissible period"),
        ("reeb", "100001/3",
         "--bound 100001/3 gives 200001 orbit families, more than the cap of 100000"),
        ("ledger", "100001/3",
         "slope 100001/3 gives 200001 orbit families, more than the cap of 100000"),
    ], ids=["reeb-spectrum", "ledger-spectrum", "reeb-cap", "ledger-cap"])
    def test_messages_name_the_option(self, runner, workspace, command, value, message):
        path = workspace / "a3.json"
        path.write_text(json.dumps(a_type(4)))
        action, flag = ("report", "--bound") if command == "reeb" else ("build", "--slope")
        result = invoke(runner, workspace, command, action, str(path), flag, value)
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    def test_cell_cap_exits_two(self, runner, workspace, monkeypatch):
        # A3 has 6 periods per unit of slope: 39,998 families, within the
        # family cap, and 79,996 cells below 19999/3. No family is built.
        monkeypatch.setattr(reeb_module, "OrbitFamily", None)
        path = workspace / "a3.json"
        path.write_text(json.dumps(a_type(4)))
        result = invoke(runner, workspace, "ledger", "build", str(path), "--slope", "19999/3")
        assert result.exit_code == 2
        assert result.stderr == (
            "error: slope 19999/3 gives 79996 Morse cells, more than the cap of 40000\n"
        )

    def test_ring_pair_cap_exits_two_before_building(self, runner, workspace, monkeypatch):
        # mu4 has 4 sectors: 6 twisted sector pairs i <= j, above a cap of 5.
        def unexpected(*args):
            raise AssertionError("a ring was built above the cap")

        monkeypatch.setattr(chen_ruan_module, "MAX_RING_PAIRS", 5)
        monkeypatch.setattr(chen_ruan_module, "build_ring", unexpected)
        path = workspace / "mu4.json"
        path.write_text(json.dumps(scalar_cyclic(4)))
        result = invoke(runner, workspace, "cr", "ring", str(path), "--format", "json")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: 4 sectors give 6 twisted sector pairs, more than the cap of 5\n"
        )

    def test_ring_at_the_pair_cap_builds(self, runner, workspace, monkeypatch):
        monkeypatch.setattr(chen_ruan_module, "MAX_RING_PAIRS", 6)
        path = workspace / "mu4.json"
        path.write_text(json.dumps(scalar_cyclic(4)))
        result = invoke(runner, workspace, "cr", "ring", str(path), "--format", "json")
        assert result.exit_code == 0
        assert len(json.loads(result.stdout)["products"]) == 6

    def test_table_format_renders(self, runner, workspace):
        result = invoke(runner, workspace, "cr", "sectors", str(workspace / "antipodal2.json"))
        assert result.exit_code == 0
        assert "degree" in result.stdout

    def test_admit_multiplies_no_cyclotomics_after_parsing(self, runner, workspace,
                                                           monkeypatch):
        # Admissibility reads only |G|, which the closure mod p0 gives
        # without an exact matrix product.
        path = workspace / "mu500.json"
        path.write_text(json.dumps(scalar_cyclic(500)))
        products = []
        multiply = CyclotomicNumber.__mul__

        def counted(a, b):
            products.append(1)
            return multiply(a, b)

        def parse_then_count(text):
            group = parse_group(text)
            monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
            monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted)
            return group

        monkeypatch.setattr(cli_module, "parse_group", parse_then_count)
        result = invoke(runner, workspace, "constraints", "admit", str(path),
                        "--boundary", "lens:2,2", "--format", "json")
        assert json.loads(result.stdout)["group_order"] == 500
        assert CyclotomicNumber.__mul__ is counted
        assert products == []

    def test_version(self, runner):
        result = runner.invoke(["--version"])
        assert result.exit_code == 0 and "orbifill" in result.output


class TestCommandLine:
    """The parts of the command-line contract that do not depend on a command's
    output: version text, usage errors exit 2, help exits 0."""

    def test_version_text(self, runner):
        result = runner.invoke(["--version"])
        assert result.exit_code == 0
        assert result.stdout == "orbifill, version 0.1.0\n"

    def test_no_command_exits_two(self, runner):
        result = runner.invoke([])
        assert result.exit_code == 2
        assert result.stdout == "" and "usage: orbifill" in result.stderr

    def test_unknown_action_exits_two(self, runner, workspace):
        result = invoke(runner, workspace, "group", "describe", str(workspace / "q8.json"))
        assert result.exit_code == 2
        assert "invalid choice: 'describe'" in result.stderr

    def test_missing_document_exits_two(self, runner, workspace):
        result = invoke(runner, workspace, "group", "info", str(workspace / "absent.json"))
        assert result.exit_code == 2
        assert "absent.json' does not exist" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", [[], ["group"], ["cr"], ["reeb"], ["ledger"], ["span"],
                                         ["constraints"]], ids=lambda c: c[0] if c else "top")
    def test_help_exits_zero(self, runner, command):
        result = runner.invoke([*command, "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith(" ".join(["usage: orbifill", *command]))

    def test_each_line_is_one_write(self, monkeypatch):
        # On an unbuffered stdout, a reader that closes the pipe after the
        # report would fail a separate write of the final newline.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        cli_module._emit({"a": 1}, "json")
        cli_module._emit({"a": 1}, "table")
        assert writes == ['{\n  "a": 1\n}\n', "a: 1\n"]

    def test_main_freezes_the_heap(self, runner):
        # main freezes the heap alive at its call, so that no collection,
        # during the query or at exit, walks the start-up objects again.
        expected = {
            "applicable": True,
            "boundary": "lens:2,3",
            "dimension": 5,
            "divisors": [{"divides": 2, "rule": "lens-factorial"},
                         {"divides": 8, "rule": "lens-power"}],
            "effective_bound": 2,
            "metadata": {"conventions": {"period_unit": "2*pi"}, "tool": "orbifill",
                         "version": "0.1.0"},
            "uniqueness": {"count": 1, "model": "C^3/(Z/2)"},
        }
        gc.unfreeze()
        try:
            assert gc.get_freeze_count() == 0
            result = runner.invoke(["constraints", "boundary", "lens:2,3", "--format", "json"])
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert result.exit_code == 0
        assert result.stdout == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_options_may_precede_an_optional_path(self, runner, workspace):
        target = str(workspace / "q8.json")
        before = invoke(runner, workspace, "cr", "sectors", "--format", "json", target)
        after = invoke(runner, workspace, "cr", "sectors", target, "--format", "json")
        assert before.exit_code == after.exit_code == 0
        assert before.stdout == after.stdout

    @pytest.mark.parametrize("args", [
        ("cr", "pairing", "antipodal2.json"),
        ("span", "check", "span_pair.json"),
        ("constraints", "admit", "antipodal2.json", "--boundary", "lens:2,2"),
    ], ids=lambda a: f"{a[0]}-{a[1]}")
    def test_success_returns_from_main(self, workspace, args):
        # A positive verdict returns from main, as every other success does;
        # only a negative one exits.
        command, action, doc, *rest = args
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, action, str(workspace / doc), *rest]) is None

    def test_rendering_errors_keep_their_exit_code(self, runner, monkeypatch):
        # Reports are rendered inside _guarded: an input error raised by a
        # report's generator as it is written, and a closed stdout, exit 2
        # with a message, as they would from the command itself.
        def families(*args, **kwargs):
            raise ParseError("raised while rendering")
            yield

        monkeypatch.setattr(cli_module, "families_below", families)
        result = runner.invoke(["reeb", "report", str(SAMPLES / "a3.json"), "--bound", "7/3",
                                "--format", "json"])
        assert result.exit_code == 2
        assert result.stderr == "error: raised while rendering\n"

        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        err = io.StringIO()
        with contextlib.redirect_stdout(Closed()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                main(["constraints", "boundary", "lens:2,3"])
        assert info.value.code == 2
        assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


class TestDefaults:
    """Each command and action runs on samples/ with only the arguments it
    requires, and leaving out an option an action requires is a usage error
    that names it."""

    # The positional arguments of each action, if not a sample group document.
    POSITIONAL = {
        ("cr", "filling"): [],
        ("span", "check"): [str(SAMPLES / "span_pair.json")],
        ("span", "random"): [],
        ("constraints", "boundary"): ["lens:2,3"],
        ("constraints", "rp"): ["3"],
    }
    REQUIRED = {
        ("reeb", "report"): ["--bound", "7/3"],
        ("ledger", "build"): ["--slope", "7/3"],
        ("constraints", "admit"): ["--boundary", "lens:2,3"],
    }
    ACTIONS = [
        (command, action)
        for command, (_, arguments) in cli_module.COMMANDS.items()
        for names, kwargs in arguments if names == ("action",)
        for action in kwargs["choices"]
    ]

    @pytest.mark.parametrize("command, action", ACTIONS, ids=lambda x: x)
    def test_runs_with_required_arguments_only(self, runner, command, action):
        positional = self.POSITIONAL.get((command, action), [str(SAMPLES / "a3.json")])
        result = runner.invoke([command, action, *positional,
                                *self.REQUIRED.get((command, action), [])])
        assert result.exit_code in (0, 1), result.stderr

    @pytest.mark.parametrize("command, action", sorted(REQUIRED), ids=lambda x: x)
    def test_missing_option_is_a_usage_error(self, runner, command, action):
        option = self.REQUIRED[command, action][0]
        result = runner.invoke([command, action, str(SAMPLES / "a3.json")])
        assert result.exit_code == 2
        error = result.stderr.splitlines()[-1]
        assert error.startswith(f"orbifill {command}: error: ") and option in error
        assert "required" in error or "requires" in error


def test_import_loads_neither_click_nor_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, orbifill.cli; print([m for m in ('click', 'dataclasses') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class Recorder:
    """A stdout that keeps each write and discards nothing."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def written(value):
    """The writes ``cli._write_json`` makes for ``value``."""
    sink = Recorder()
    cli_module._write_json(value, sink)
    return sink.writes


class TestJsonWriter:
    """The --format json writer prints exactly json.dumps(sort_keys=True,
    indent=2) and a newline, and takes iterators as lists."""

    SAMPLES = [
        {"b": {"d": [1, (2, 3), {"e": ["f"]}], "c": ()}, "a": [[[]], {}]},
        {}, [], {"x": {}}, {"x": []}, [{}], [[]], [[], {}, [{}], {"y": [[{}]]}],
        {"t": True, "f": False, "n": None, "l": [True, False, None]},
        [0, -1, -(2**70), 2**64, 2**64 + 1, 10**40],
        ["", "é 中 \U0001f600", 'quote " and \\ backslash', "\x00\x01\n\t\r\x1f\x7f", "/"],
        {"z": 1, "a": 2, "m": 3, "B": 4, "é": 5, '"': 6, "\\": 7, "\n": 8, "": 9},
        "top-level string", 7, None,
    ]

    @pytest.mark.parametrize("value", SAMPLES, ids=range(len(SAMPLES)))
    def test_matches_json_dumps(self, value):
        assert "".join(written(value)) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_iterators_are_lists(self):
        def items(n):
            for i in range(n):
                yield {"i": i, "empty": iter(()), "pair": (x for x in "ab")}

        value = {"many": items(5), "none": items(0), "map": map(str, range(3))}
        expected = {"many": [{"i": i, "empty": [], "pair": ["a", "b"]} for i in range(5)],
                    "none": [], "map": ["0", "1", "2"]}
        assert "".join(written(value)) == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        1.5, {"x": float("nan")}, {1, 2}, b"bytes", object(), [Fraction(1, 2)],
        {1: "int key"}, {None: 1}, {("a",): 1}, {"a": 1, 2: "mixed keys"},
    ], ids=["float", "nan", "set", "bytes", "object", "fraction", "int-key", "none-key",
            "tuple-key", "mixed-keys"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            written(value)

    def test_large_report_arrives_in_chunks(self):
        report = {"rows": [{"label": f"c{i}", "size": i} for i in range(5000)]}
        writes = written(report)
        assert len(writes) > 1
        assert "".join(writes) == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert all(not w.endswith("\n") for w in writes[:-1]) and writes[-1].endswith("}\n")

    def test_table_takes_iterators(self, monkeypatch):
        lines = []
        monkeypatch.setattr(cli_module, "_echo", lines.append)
        report = {"a": [1, {"b": [2, 3]}], "c": "d"}
        cli_module._emit(report, "table")
        as_lists = list(lines)
        lines.clear()
        cli_module._emit({"a": iter([1, {"b": iter([2, 3])}]), "c": "d"}, "table")
        assert lines == as_lists

    def test_long_generator_memory_is_bounded(self):
        # 200,000 items print 10.4 MB of JSON; written a chunk at a time,
        # they hold a small fraction of that.
        class Counter:
            size = 0

            def write(self, text):
                self.size += len(text)

            def flush(self):
                pass

        report = {"items": (f"item {i:06}" * 4 for i in range(200_000))}
        sink = Counter()
        tracemalloc.start()
        try:
            cli_module._write_json(report, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 10**7
        assert peak < 2**20, peak
