"""End-to-end CLI behavior that one query's output cannot show: faults
injected into a command, two command lines compared, time, memory and byte
bounds, and values from theory. tests/cli_pins.json records the exit code
and output of each single query."""

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

from battery import BD12_MU5, corpus, corrupt_generator, run_cli, trivial
from orbifill import chen_ruan as chen_ruan_module
from orbifill import cli as cli_module
from orbifill import reeb as reeb_module
from orbifill import spans
from orbifill.cli import EXIT_INTERNAL, main
from orbifill.cyclotomic import CyclotomicNumber
from orbifill.errors import InputError
from orbifill.groups import MAX_DIMENSION, parse_group

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


class Result:
    """The exit code, stdout and stderr of ``main(args)`` run in process."""

    def __init__(self, args):
        self.exit_code, self.stdout, self.stderr = run_cli(args)
        self.output = self.stdout + self.stderr


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "antipodal2.json").write_text(json.dumps(corpus.antipodal(2).document()))
    (tmp_path / "q8.json").write_text(json.dumps(corpus.quaternion().document()))
    (tmp_path / "z3.json").write_text(json.dumps(corpus.scalar_cyclic(3, n=3).document()))
    (tmp_path / "trivial.json").write_text(json.dumps(trivial().document()))
    (tmp_path / "bd12xmu5.json").write_text(json.dumps(BD12_MU5.document()))
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


def invoke(workspace, *args):
    """``Result(args)`` with a --cache-dir under ``workspace``, for an action
    that takes one."""
    return Result([*args, "--cache-dir", str(workspace / "cache")])


def options_of(command, action):
    """The option strings that ``orbifill COMMAND ACTION`` takes."""
    _, arguments = cli_module.COMMANDS[command][action]
    return {name for names, _ in arguments for name in names if name.startswith("--")}


class TestExitCodes:
    def test_cr_ring_success(self, workspace):
        result = invoke(workspace, "cr", "ring", str(workspace / "antipodal2.json"),
                        "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert [s["degree"] for s in payload["sectors"]] == ["0", "2"]

    def test_corrupted_reduction_exits_three(self, monkeypatch):
        # A reduced matrix that is not diagonalizable, as in
        # test_non_group_element_is_internal, is a broken internal state,
        # not an input error.
        # Element 1, the first generator, represents its class, and it is
        # built as the identity times its reduced generator, here ((1, 1),
        # (0, 1)).
        corrupt_generator(monkeypatch, ((1, 1), (0, 1)))
        result = Result(["group", "info", str(SAMPLES / "quaternion.json")])
        assert result.exit_code == EXIT_INTERNAL
        assert result.stdout == ""
        assert result.stderr.startswith("internal invariant violation: ")
        assert "not diagonalizable" in result.stderr

    @pytest.mark.parametrize("error", [MemoryError("out of memory"), RuntimeError("broken")],
                             ids=lambda e: type(e).__name__)
    def test_unexpected_exception_exits_three(self, monkeypatch, error):
        # Python itself would exit 1, which reads as "not admissible".
        def fail(*args):
            raise error

        monkeypatch.setattr(cli_module, "enumerate_group", fail)
        result = Result(["constraints", "admit", str(SAMPLES / "a3.json"),
                         "--boundary", "lens:2,3"])
        assert result.exit_code == EXIT_INTERNAL
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"internal error: {type(error).__name__}: {error}"]

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "enumerate_group", interrupt)
        with pytest.raises(KeyboardInterrupt):
            Result(["group", "info", str(SAMPLES / "a3.json")])

    def test_unequal_battery_trial_exits_one(self, monkeypatch):
        # The identity holds on every trial, so one trial is made to fail.
        real, seen = spans.composition_check, []

        def unequal_second_trial(span1, span2):
            lhs, rhs, equal = real(span1, span2)
            seen.append(([span1.left.name, span1.right.name, span2.right.name], lhs, rhs + 1))
            return (lhs, rhs + 1, False) if len(seen) == 2 else (lhs, rhs, equal)

        monkeypatch.setattr(spans, "composition_check", unequal_second_trial)
        result = Result(["span", "random", "--trials", "3", "--seed", "5",
                         "--format", "json"])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        groups, lhs, rhs = seen[1]
        assert payload["failures"] == [
            {"trial": 1, "groups": groups, "lhs": str(lhs), "rhs": str(rhs)}]
        assert payload["trials"] == 3
        assert payload["all_equal"] is False

    def test_cr_ring_reports_sweep_on_stderr(self, workspace):
        result = invoke(workspace, "cr", "ring", str(workspace / "bd12xmu5.json"),
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

    def test_non_vanishing_report(self, workspace):
        result = invoke(workspace, "ledger", "build", str(workspace / "antipodal2.json"),
                        "--slope", "5/4", "--coefficient", "Z/2", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["vanishes"] is False


class TestSpanInputs:
    """Span options: --trials above the cap runs no trial, and span check
    honours --max-order. tests/cli_pins.json records each rejection of a span
    document or option."""

    def test_random_trials_above_the_cap_run_none(self, monkeypatch):
        monkeypatch.setattr(cli_module, "random_composition_battery", None)
        result = Result(["span", "random", "--trials", str(spans.MAX_TRIALS + 1)])
        assert result.exit_code == 2
        assert result.stderr == f"error: --trials 50001 is above the cap of {spans.MAX_TRIALS}\n"

    def test_check_honours_max_order(self, workspace):
        target = str(workspace / "ref_span.json")
        capped = invoke(workspace, "span", "check", target, "--max-order", "4")
        assert capped.exit_code == 2
        assert "order cap 4" in capped.stderr
        default = invoke(workspace, "span", "check", target, "--format", "json")
        exact = invoke(workspace, "span", "check", target, "--max-order", "8",
                       "--format", "json")
        assert default.exit_code == exact.exit_code == 0
        assert default.stdout == exact.stdout
        assert json.loads(default.stdout)["pushpull"] == "1"


class TestSpanCap:
    """--max-order bounds cyclic and table span groups before any table is
    built."""

    @pytest.mark.parametrize("group", [{"cyclic": 3000}, {"table": [[0, 1, 2]] * 3}],
                             ids=["cyclic", "table"])
    def test_group_above_cap_exits_two(self, workspace, monkeypatch, group):
        def unexpected(*args, **kwargs):
            raise AssertionError("a span group was built above the cap")

        monkeypatch.setattr(spans, "cyclic", unexpected)
        monkeypatch.setattr(spans, "FiniteGroupTable", unexpected)
        # The left group is read first, so no span group is built at all.
        doc = {"span": {"left": group, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                        "source": [0], "target": [0]}}
        (workspace / "big_span.json").write_text(json.dumps(doc))
        result = invoke(workspace, "span", "check", str(workspace / "big_span.json"),
                        "--max-order", "2")
        assert result.exit_code == 2
        assert "order cap 2" in result.stderr
        assert "Traceback" not in result.output

    def test_cyclic_groups_at_the_cap(self, workspace):
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
                result = invoke(workspace, "span", "check",
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
    refused from k and n alone, before it is built; one of up to 4300 digits
    is printed."""

    @pytest.mark.parametrize("boundary", ["lens:1559,2", "lens:100000000,2", "lens:2,100000"])
    @pytest.mark.parametrize("action", ["boundary", "admit"])
    def test_too_many_digits_exit_two(self, workspace, action, boundary):
        if action == "boundary":
            args = ["constraints", "boundary", boundary]
        else:
            args = ["constraints", "admit", str(workspace / "trivial.json"), "--boundary", boundary]
        result = Result(args) if action == "boundary" else invoke(workspace, *args)
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: boundary {boundary}: its divisor ")
        assert result.stderr.endswith("has more than 4300 digits\n")

    def test_largest_printable_factorial(self):
        result = Result(["constraints", "boundary", "lens:1558,2", "--format", "json"])
        assert result.exit_code == 0
        divisors = json.loads(result.stdout)["divisors"]
        assert [len(str(d["divides"])) for d in divisors] == [4300]


class TestGroupDocuments:
    """Group documents at a cap or with repeated generators are read as the
    group they give; tests/cli_pins.json records each document rejection."""

    def test_dimension_at_the_cap(self, workspace):
        # One above the cap exits 2, naming the dimension (TestLongValues).
        path = workspace / "cap_dimension.json"
        path.write_text(json.dumps(trivial(MAX_DIMENSION).document()))
        result = invoke(workspace, "group", "info", str(path))
        assert result.exit_code == 0 and not result.stderr

    @pytest.mark.parametrize("positions", [[0, 1, 0], [None, 0, 1]],
                             ids=["repeated", "identity-first"])
    def test_generator_positions(self, workspace, positions):
        # A repeated generator, or the identity among the generators, gives
        # Q8 itself: the elements are built from each generator's position.
        q8 = corpus.quaternion().document()
        identity = [["1", "0"], ["0", "1"]]
        doc = dict(q8, generators=[identity if k is None else q8["generators"][k]
                                   for k in positions])
        path = workspace / "q8_positions.json"
        path.write_text(json.dumps(doc))
        for command in (["group", "info"], ["cr", "ring"]):
            payloads = []
            for target in (workspace / "q8.json", path):
                result = invoke(workspace, *command, str(target), "--format", "json")
                assert result.exit_code == 0
                payload = json.loads(result.stdout)
                del payload["metadata"]["input_digest"]
                payloads.append(payload)
            assert payloads[0] == payloads[1], command


class TestExponentNotation:
    """Rational options refuse 1eK text, which Fraction would expand into a
    K-digit int before any check; ints, p/q and decimals still parse."""

    A3 = str(Path(__file__).resolve().parent.parent / "samples" / "a3.json")

    @pytest.mark.parametrize("bound", ["304/101", "2.4"])
    def test_plain_forms_accepted(self, workspace, bound):
        assert invoke(workspace, "reeb", "report", self.A3, "--bound", bound).exit_code == 0

    def test_rational_forms(self):
        assert cli_module.rational("2.5") == Fraction(5, 2)
        assert cli_module.rational("304/101") == Fraction(304, 101)
        assert cli_module.rational("-7") == -7
        for text in ("1e1000000", "2E3", "1e0"):
            with pytest.raises(ValueError, match="exponent notation"):
                cli_module.rational(text)


class TestLongValues:
    """However long the refused value, a rejection is one error line of at
    most 300 bytes that names the option or cap refusing it: a long number
    is quoted as its leading digits and its digit count."""

    A3 = TestExponentNotation.A3
    LONG = "1" + "0" * 4000 + "/3"  # 10^4000/3 written out
    # About 10^4299/11 * 1008 families on Q8 x mu63: more digits than int()
    # converts to text, which the family cap's message once tried.
    PAST_THE_DIGIT_LIMIT = "9" * 4299 + "/11"

    JUNK = "x" * 5000
    DIGITS = "9" * 5000  # past the 4300 digits int() reads
    NINES = "9" * 4000  # an int, whose factorial has more than 4300 digits
    LEDGER = ["ledger", "build", "{dir}/antipodal2.json", "--slope", "5/4"]

    @pytest.mark.parametrize("args, named", [
        (["reeb", "report", "{q8xmu63}", "--bound", LONG], "--bound"),
        (["ledger", "build", A3, "--slope", LONG], "cap"),
        (["reeb", "report", "{q8xmu63}", "--bound", "1" * 5000], "--bound"),
        (["reeb", "report", "{q8xmu63}", "--bound", PAST_THE_DIGIT_LIMIT], "cap"),
        (["ledger", "build", "{q8xmu63}", "--slope", PAST_THE_DIGIT_LIMIT], "cap"),
        (["group", "info", "{big}"], "dimension"),
        (["group", "info", A3, "--max-order", JUNK], "--max-order"),
        (["span", "random", "--trials", JUNK], "--trials"),
        (["span", "random", "--trials", DIGITS], "--trials"),
        (["span", "random", "--trials", NINES], "--trials"),
        (["span", "random", "--seed", JUNK], "--seed"),
        (["cr", "filling", "--coefficient", JUNK], "coefficient ring"),
        (["cr", "filling", "--coefficient", "Z/x"], "coefficient ring"),
        (["cr", "filling", "--coefficient", "Z/" + DIGITS], "coefficient ring"),
        (["cr", "filling", "--betti", "1,x"], "--betti"),
        (["cr", "filling", "--betti", DIGITS], "--betti"),
        (["cr", "filling", "--singularity", "{dir}/" + JUNK], "--singularity"),
        (["constraints", "boundary", f"lens:{DIGITS},3"], "boundary"),
        (["constraints", "boundary", JUNK + ":1"], "boundary"),
        (["constraints", "admit", A3, "--boundary", JUNK + ":1"], "boundary"),
        (["constraints", "admit", "{dir}/" + JUNK, "--boundary", "lens:2,2"], "argument path"),
        (["constraints", "rp", "x"], "target"),
        (["constraints", "rp", DIGITS], "target"),
        ([*LEDGER, "--profile", "X" * 5000 + ":1=0,1"], "cell profiles"),
        ([*LEDGER, "--profile", "Id:1=0,x"], "--profile"),
        ([*LEDGER, "--profile", "Id:1=0," + DIGITS], "--profile"),
        ([*LEDGER, "--profile", "Id:1=0," + "9" * 4000], "Morse index"),
        ([*LEDGER, "--profile", "X" * 5000 + ":1=0", "--profile", "X" * 5000 + ":1=1"],
         "two cell profiles"),
        ([*LEDGER, "--profile", "X" * 5000 + ":1=1,1"], "Morse index twice"),
        (["span", "check", "{far_ref}"], "too long"),
        (["group", "info", "{digits}"], "JSON"),
        (["span", "check", "{cyclic_digits}"], "JSON"),
        (["span", "check", "{bad_json}"], "invalid JSON"),
        (["span", "check", "{deep}"], "invalid JSON"),
        ([JUNK], "COMMAND"),
        (["group", JUNK, A3], "action"),
        (["group", "info", A3, "--format", JUNK], "--format"),
        (["cr", "ring", A3, "--convention", JUNK], "--convention"),
        (["constraints", "boundary", f"lens:{NINES},3"], "divisor"),
    ], ids=["bound-on-the-spectrum", "slope-over-the-family-cap", "bound-of-5000-digits",
            "bound-with-a-family-count-past-the-digit-limit",
            "slope-with-a-family-count-past-the-digit-limit", "dimension-over-the-cap",
            "max-order", "trials", "trials-of-5000-digits", "trials-of-4000-digits", "seed", "coefficient-ring", "coefficient-modulus-x",
            "coefficient-modulus-of-5000-digits", "betti-x", "betti-of-5000-digits",
            "singularity-path", "lens-of-5000-digits", "boundary-kind", "admit-boundary-kind",
            "admit-path", "rp-x", "rp-of-5000-digits", "profile-label", "profile-index-x",
            "profile-index-of-5000-digits", "profile-index-of-4000-digits", "profile-label-twice",
            "profile-label-index-twice", "span-ref-path", "json-dimension-of-5000-digits",
            "json-cyclic-order-of-5000-digits", "span-json-missing-comma", "span-json-too-deep",
            "command", "action", "format", "convention", "lens-of-4000-digits"])
    def test_one_short_error_line(self, workspace, args, named):
        docs = {"q8xmu63": workspace / "q8xmu63.json", "big": workspace / "big.json",
                "far_ref": workspace / "far_ref.json", "digits": workspace / "digits.json",
                "cyclic_digits": workspace / "cyclic_digits.json",
                "bad_json": workspace / "bad_json.json", "deep": workspace / "deep.json"}
        q8xmu63 = corpus.times_scalars(corpus.quaternion(), 63)
        docs["q8xmu63"].write_text(json.dumps(q8xmu63.document()))
        docs["big"].write_text(json.dumps(trivial(MAX_DIMENSION + 1).document()))
        one = {"middle": {"cyclic": 1}, "right": {"cyclic": 1}, "source": [0], "target": [0]}
        docs["far_ref"].write_text(json.dumps({"span": {"left": {"ref": self.JUNK}, **one}}))
        docs["digits"].write_text(f'{{"dimension": {self.DIGITS}, "conductor": 1, '
                                  '"generators": []}')
        docs["cyclic_digits"].write_text(
            json.dumps({"span": {"left": {"cyclic": 0}, **one}}).replace("0", self.DIGITS, 1))
        docs["bad_json"].write_text('{"span": {"left": {"cyclic": 1} "middle": 1}}')
        docs["deep"].write_text("[" * 100000)
        result = Result([a.format(dir=workspace, **docs) for a in args])
        assert result.exit_code == 2
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0].encode()) <= 300, errors
        assert named in errors[0]
        assert "Traceback" not in result.output

    def test_one_short_inapplicable_line(self):
        # The domain-negative exit quotes the boundary's numbers the same way.
        result = Result(["constraints", "admit", self.A3,
                         "--boundary", f"brieskorn:{self.NINES},3"])
        assert result.exit_code == 1
        assert result.stderr == ("constraints not applicable: requires k < n, "
                                 f"got k={'9' * 12}... (4000 digits), n=3\n")


class TestMaxOrder:
    QUERIES = [
        ("group", "info", "trivial.json"),
        ("cr", "ring", "trivial.json"),
        ("reeb", "report", "trivial.json"),
        ("ledger", "build", "trivial.json", "--slope", "5/4"),
        ("constraints", "admit", "trivial.json", "--boundary", "lens:2,2"),
    ]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cap_below_one_exits_two(self, workspace, value):
        for command, action, doc, *rest in self.QUERIES:
            result = invoke(workspace, command, action, str(workspace / doc), *rest,
                            "--max-order", value)
            assert result.exit_code == 2, command
            assert "x>=1" in result.stderr, command

    def test_cap_of_one_admits_trivial_group(self, workspace):
        result = invoke(workspace, "group", "info", str(workspace / "trivial.json"),
                        "--max-order", "1", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["order"] == 1


class TestDeterminism:
    def test_byte_identical_reports(self, workspace):
        args = ("cr", "ring", str(workspace / "q8.json"), "--format", "json")
        first = invoke(workspace, *args)
        second = invoke(workspace, *args)
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code == 0

    def test_group_info_byte_identical(self, workspace):
        args = ("group", "info", str(workspace / "q8.json"), "--format", "json")
        first = invoke(workspace, *args)
        second = invoke(workspace, *args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout

    def test_span_battery_seeded(self):
        args = ["span", "random", "--trials", "25", "--seed", "11", "--format", "json"]
        first = Result(args)
        second = Result(args)
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
    def test_span_random_stdout_pinned(self, fmt):
        digest = hashlib.sha256()
        for seed in range(30):
            result = Result(["span", "random", "--trials", "150", "--seed", str(seed),
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
    def test_cache_dir_accepted_and_unused(self, workspace, monkeypatch, query):
        home, env_dir = workspace / "home", workspace / "env-cache"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("ORBIFILL_CACHE_DIR", str(env_dir))
        command, action, doc, *rest = query
        args = [command, action, str(workspace / doc), *rest, "--format", "json"]
        plain = Result(args)
        with_dir = invoke(workspace, *args)
        assert plain.exit_code == with_dir.exit_code
        assert plain.stdout == with_dir.stdout
        assert not (workspace / "cache").exists()
        assert not env_dir.exists()
        assert list(home.iterdir()) == []

    def test_actions_that_take_cache_dir(self):
        # Every action that takes --max-order, but span random.
        taking = {(command, action) for command, actions in cli_module.COMMANDS.items()
                  for action in actions if "--cache-dir" in options_of(command, action)}
        assert taking == {
            ("group", "info"), ("cr", "ring"), ("cr", "sectors"), ("cr", "pairing"),
            ("cr", "filling"), ("reeb", "report"), ("reeb", "discrepancy"),
            ("reeb", "components"), ("ledger", "build"), ("span", "check"),
            ("constraints", "admit")}

    def test_cache_dir_hidden_from_help(self):
        for command, action in (("group", "info"), ("span", "check")):
            result = Result([command, action, "--help"])
            assert result.exit_code == 0
            assert "--cache-dir" not in result.stdout

    def test_stale_cache_file_is_ignored(self, workspace):
        target = str(workspace / "q8.json")
        first = invoke(workspace, "group", "info", target, "--format", "json")
        digest = json.loads(first.stdout)["metadata"]["input_digest"]
        (workspace / "cache").mkdir()
        (workspace / "cache" / f"{digest}.json").write_text("{definitely corrupt")
        second = invoke(workspace, "group", "info", target, "--format", "json")
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout


class TestCommands:
    def test_group_info_payload(self, workspace):
        result = invoke(workspace, "group", "info", str(workspace / "q8.json"),
                        "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["order"] == 8
        assert payload["isolated_singularity"] is True
        assert len(payload["classes"]) == 5

    def test_reeb_report(self, workspace):
        result = invoke(workspace, "reeb", "report", str(workspace / "antipodal2.json"),
                        "--bound", "9/4", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["discrepancy"]["verdict"] == "canonical-not-terminal"
        periods = {(f["class"], f["period"]) for f in payload["families"]}
        assert ("c1", "1/2") in periods and ("Id", "1") in periods

    def test_constraints_boundary_table(self):
        result = Result(["constraints", "boundary", "lens:2,3", "--format", "json"])
        payload = json.loads(result.stdout)
        assert payload["effective_bound"] == 2
        assert payload["uniqueness"]["count"] == 1

    def test_constraints_boundary_inapplicable(self):
        result = Result(["constraints", "boundary", "brieskorn:5,3", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["applicable"] is False
        assert payload["reason"] == "requires k < n, got k=5, n=3"
        assert "effective_bound" not in payload

    def test_constraints_rp(self):
        result = Result(["constraints", "rp", "4", "--format", "json"])
        assert json.loads(result.stdout)["conclusion"] is None

    def test_span_check_pair(self, workspace):
        result = invoke(workspace, "span", "check", str(workspace / "span_pair.json"),
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["equal"] is True

    def test_span_check_single(self, workspace):
        result = invoke(workspace, "span", "check", str(workspace / "one_span.json"),
                        "--format", "json")
        assert json.loads(result.stdout)["pushpull"] == "1/2"

    def test_cr_filling(self, workspace):
        result = invoke(workspace, "cr", "filling", "--betti", "1",
                        "--singularity", str(workspace / "antipodal2.json"),
                        "--coefficient", "Q", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["total_rank"] == 2
        assert payload["ranks_by_degree"] == {"0": 1, "2": 1}

    def test_ledger_build(self, workspace):
        result = invoke(workspace, "ledger", "build", str(workspace / "antipodal2.json"),
                        "--slope", "5/4", "--format", "json")
        payload = json.loads(result.stdout)
        assert len(payload["known_differentials"]) == 1
        assert payload["known_differentials"][0]["coefficient"] == 2

    @pytest.mark.parametrize("command, value, message", [
        ("reeb", "5/2", "--bound 5/2 is an admissible period"),
        ("ledger", "5/2", "slope 5/2 is an admissible period"),
        ("reeb", "100001/3",
         "--bound 100001/3 gives 200001 orbit families, more than the cap of 100000"),
        ("ledger", "100001/3",
         "slope 100001/3 gives 200001 orbit families, more than the cap of 100000"),
    ], ids=["reeb-spectrum", "ledger-spectrum", "reeb-cap", "ledger-cap"])
    def test_messages_name_the_option(self, workspace, command, value, message):
        path = workspace / "a3.json"
        path.write_text(json.dumps(corpus.a_type(4).document()))
        action, flag = ("report", "--bound") if command == "reeb" else ("build", "--slope")
        result = invoke(workspace, command, action, str(path), flag, value)
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    def test_family_cap_exits_two_quickly(self, workspace):
        # A3 has 6 periods per unit of bound: 200,001 families below 100001/3.
        path = workspace / "a3.json"
        path.write_text(json.dumps(corpus.a_type(4).document()))
        for command, option in (("reeb", "report"), ("ledger", "build")):
            flag = "--bound" if command == "reeb" else "--slope"
            start = time.perf_counter()
            result = invoke(workspace, command, option, str(path), flag, "100001/3")
            assert time.perf_counter() - start < 1.0, command
            assert result.exit_code == 2, command
            assert "200001 orbit families" in result.stderr and "100000" in result.stderr
            assert "Traceback" not in result.stderr

    def test_cell_cap_exits_two(self, workspace, monkeypatch):
        # A3 has 6 periods per unit of slope: 39,998 families, within the
        # family cap, and 79,996 cells below 19999/3. No family is built.
        monkeypatch.setattr(reeb_module, "OrbitFamily", None)
        path = workspace / "a3.json"
        path.write_text(json.dumps(corpus.a_type(4).document()))
        result = invoke(workspace, "ledger", "build", str(path), "--slope", "19999/3")
        assert result.exit_code == 2
        assert result.stderr == (
            "error: slope 19999/3 gives 79996 Morse cells, more than the cap of 40000\n"
        )

    def test_ring_pair_cap_exits_two_before_building(self, workspace, monkeypatch):
        # mu4 has 4 sectors: 6 twisted sector pairs i <= j, above a cap of 5.
        def unexpected(*args):
            raise AssertionError("a ring was built above the cap")

        monkeypatch.setattr(chen_ruan_module, "MAX_RING_PAIRS", 5)
        monkeypatch.setattr(chen_ruan_module, "build_ring", unexpected)
        path = workspace / "mu4.json"
        path.write_text(json.dumps(corpus.scalar_cyclic(4).document()))
        result = invoke(workspace, "cr", "ring", str(path), "--format", "json")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: 4 sectors give 6 twisted sector pairs, more than the cap of 5\n"
        )

    def test_ring_at_the_pair_cap_builds(self, workspace, monkeypatch):
        monkeypatch.setattr(chen_ruan_module, "MAX_RING_PAIRS", 6)
        path = workspace / "mu4.json"
        path.write_text(json.dumps(corpus.scalar_cyclic(4).document()))
        result = invoke(workspace, "cr", "ring", str(path), "--format", "json")
        assert result.exit_code == 0
        assert len(json.loads(result.stdout)["products"]) == 6

    def test_table_format_renders(self, workspace):
        result = invoke(workspace, "cr", "sectors", str(workspace / "antipodal2.json"))
        assert result.exit_code == 0
        assert "degree" in result.stdout

    def test_admit_multiplies_no_cyclotomics_after_parsing(self, workspace,
                                                           monkeypatch):
        # Admissibility reads only |G|, which the closure mod p0 gives
        # without an exact matrix product.
        path = workspace / "mu500.json"
        path.write_text(json.dumps(corpus.scalar_cyclic(500).document()))
        products = []
        multiply = CyclotomicNumber.__mul__

        def counted(a, b):
            products.append(1)
            return multiply(a, b)

        def parse_then_count(text):
            group = parse_group(text)
            monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
            return group

        monkeypatch.setattr(cli_module, "parse_group", parse_then_count)
        result = invoke(workspace, "constraints", "admit", str(path),
                        "--boundary", "lens:2,2", "--format", "json")
        assert json.loads(result.stdout)["group_order"] == 500
        assert CyclotomicNumber.__mul__ is counted
        assert products == []

    def test_indeterminate_parity(self, tmp_path):
        # C/mu4 in U(1) has the degrees 0, 1/2, 1 and 3/2.
        path = tmp_path / "mu4.json"
        path.write_text(json.dumps(corpus.scalar_cyclic(4, n=1).document()))
        result = Result(["cr", "ring", str(path), "--format", "json"])
        assert result.exit_code == 0
        sectors = json.loads(result.stdout)["sectors"]
        assert [(s["degree"], s["parity"]) for s in sectors] == [
            ("0", "even"), ("1/2", "indeterminate"), ("1", "odd"), ("3/2", "indeterminate")]


class TestCommandLine:
    """The parts of the command-line contract that do not depend on a command's
    output: help exits 0, each line is one write, and a success returns from
    main."""

    @pytest.mark.parametrize("command", [
        [], *([command] for command in cli_module.COMMANDS),
        *([command, action] for command, actions in cli_module.COMMANDS.items()
          for action in actions),
    ], ids=lambda c: "-".join(c) or "top")
    def test_help_exits_zero(self, command):
        result = Result([*command, "--help"])
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

    def test_main_freezes_the_heap(self):
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
            result = Result(["constraints", "boundary", "lens:2,3", "--format", "json"])
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert result.exit_code == 0
        assert result.stdout == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_options_may_precede_the_path(self, workspace):
        target = str(workspace / "q8.json")
        before = invoke(workspace, "cr", "sectors", "--format", "json", target)
        after = invoke(workspace, "cr", "sectors", target, "--format", "json")
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

    def test_rendering_errors_keep_their_exit_code(self, monkeypatch):
        # main renders a report inside the try that maps exceptions onto exit
        # codes: an input error raised by a report's generator as it is
        # written, and a closed stdout, exit 2 with a message, as they would
        # from the command itself.
        def families(*args, **kwargs):
            raise InputError("raised while rendering")
            yield

        monkeypatch.setattr(cli_module, "families_below", families)
        result = Result(["reeb", "report", str(SAMPLES / "a3.json"), "--bound", "7/3",
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
    requires, leaving out an option an action requires is a usage error
    that names it, and so is giving it an option that only a sibling action
    of its command takes."""

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
    ACTIONS = [(command, action) for command, actions in cli_module.COMMANDS.items()
               for action in actions]

    def required_only(self, command, action):
        positional = self.POSITIONAL.get((command, action), [str(SAMPLES / "a3.json")])
        return [command, action, *positional, *self.REQUIRED.get((command, action), [])]

    @pytest.mark.parametrize("command, action", ACTIONS, ids=lambda x: x)
    def test_runs_with_required_arguments_only(self, command, action):
        result = Result(self.required_only(command, action))
        assert result.exit_code in (0, 1), result.stderr

    # Each action with each option that a sibling action takes and it does not.
    SIBLING_OPTIONS = [
        (command, action, option)
        for command, actions in cli_module.COMMANDS.items()
        for action in actions
        for option in sorted(set().union(*(options_of(command, other) for other in actions))
                             - options_of(command, action))
    ]

    @pytest.mark.parametrize("command, action, option", SIBLING_OPTIONS,
                             ids=lambda x: x.lstrip("-"))
    def test_sibling_option_is_refused(self, command, action, option):
        # An option the action does not read exits 2 rather than being ignored.
        result = Result([*self.required_only(command, action), option, "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        error = result.stderr.splitlines()[-1]
        assert error == f"orbifill {command} {action}: error: unrecognized arguments: {option} 1"

    @pytest.mark.parametrize("command, action", sorted(REQUIRED), ids=lambda x: x)
    def test_missing_option_is_a_usage_error(self, command, action):
        option = self.REQUIRED[command, action][0]
        result = Result([command, action, str(SAMPLES / "a3.json")])
        assert result.exit_code == 2
        error = result.stderr.splitlines()[-1]
        assert error == (f"orbifill {command} {action}: error: "
                         f"the following arguments are required: {option}")


def test_import_loads_neither_click_nor_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, orbifill.cli; print([m for m in ('click', 'dataclasses') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestImportGraph:
    """The package imports nothing itself: a module loads only the orbifill
    modules it needs, and each imports on its own, without an import cycle."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    MODULES = sorted(f"orbifill.{p.stem}" for p in (SRC / "orbifill").glob("*.py")
                     if p.stem != "__init__")

    def loaded(self, module):
        """The orbifill modules that ``import module`` loads in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        probe = (f"import sys, {module}; "
                 "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'orbifill'))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    @pytest.mark.parametrize("module", MODULES)
    def test_imports_alone(self, module):
        assert {"orbifill", module} <= self.loaded(module)

    def test_spans_loads_no_unitary_group_code(self):
        assert self.loaded("orbifill.spans") == {"orbifill", "orbifill.errors", "orbifill.record",
                                                 "orbifill.spans", "orbifill.tables"}

    def test_cli_loads_every_module(self):
        assert self.loaded("orbifill.cli") == {"orbifill", *self.MODULES}


class Recorder:
    """A stdout that keeps each write and discards nothing."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def written(value, writer=cli_module._write_json):
    """The writes ``writer`` makes for ``value``."""
    sink = Recorder()
    writer(value, sink)
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

    def test_table_takes_iterators(self):
        texts = []
        for report in ({"a": [1, {"b": [2, 3]}], "c": "d"},
                       {"a": iter([1, {"b": iter([2, 3])}]), "c": "d"}):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli_module._emit(report, "table")
            texts.append(out.getvalue())
        assert texts[0] == texts[1] == "a:\n  - 1\n  -\n    b:\n      - 2\n      - 3\nc: d\n"

    def test_large_table_arrives_in_chunks(self):
        report = {"rows": [{"label": f"c{i}", "size": i} for i in range(5000)]}
        expected = "rows:\n" + "".join(f"  -\n    label: c{i}\n    size: {i}\n"
                                        for i in range(5000))
        lines = expected.count("\n")
        writes = written(report, cli_module._write_table)
        # Each write but the last holds at least _CHUNK lines, and ends a line.
        assert lines > cli_module._CHUNK and 1 < len(writes) <= 1 + lines // cli_module._CHUNK
        assert "".join(writes) == expected
        assert all(w.endswith("\n") for w in writes)

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
