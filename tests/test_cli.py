"""End-to-end CLI behavior: exit codes, determinism, the ignored --cache-dir."""

import json

import pytest
from click.testing import CliRunner

from battery import antipodal, binary_dihedral, quaternion, scalar_cyclic, times_scalars
from orbifill import parse_group
from orbifill.cli import EXIT_INTERNAL, _guarded, cli


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "antipodal2.json").write_text(json.dumps(antipodal(2)))
    (tmp_path / "q8.json").write_text(json.dumps(quaternion()))
    (tmp_path / "z3.json").write_text(json.dumps(scalar_cyclic(3, n=3)))
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
    return runner.invoke(
        cli, [*args, "--cache-dir", str(workspace / "cache")], catch_exceptions=False
    )


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
        result = runner.invoke(cli, ["group", "info", str(workspace / "broken.json")])
        assert result.exit_code == 2
        assert "not unitary" in result.stderr

    def test_unenumerated_group_exits_three(self):
        # Reading an enumerated-only property of a parsed group is a broken
        # internal state, not an input error.
        group = parse_group(quaternion())
        with pytest.raises(SystemExit) as info:
            _guarded(lambda: group.order)()
        assert info.value.code == EXIT_INTERNAL

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
        plain = runner.invoke(cli, args, catch_exceptions=False)
        with_dir = invoke(runner, workspace, *args)
        assert plain.exit_code == with_dir.exit_code
        assert plain.stdout == with_dir.stdout
        assert not (workspace / "cache").exists()
        assert not env_dir.exists()
        assert list(home.iterdir()) == []

    def test_cache_dir_hidden_from_help(self, runner):
        for command in ("group", "span"):
            result = runner.invoke(cli, [command, "--help"])
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

    def test_table_format_renders(self, runner, workspace):
        result = invoke(runner, workspace, "cr", "sectors", str(workspace / "antipodal2.json"))
        assert result.exit_code == 0
        assert "degree" in result.stdout

    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0 and "orbifill" in result.output
