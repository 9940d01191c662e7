"""The private names bench/tracer.py wraps (``FiniteUnitaryGroup._classes``,
``_mult_table``, ``_eigen``, ``_isolated``, ``cli._load_group`` and
``cli._default_cache_dir``): a traced query keeps its exit code and stdout,
and records the group spans; a traced ``span random`` records its battery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUATERNION = ROOT / "samples" / "quaternion.json"


def run(args, trace=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    prefix = [str(ROOT / "bench" / "tracer.py"), str(trace), "--"] if trace else ["-m", "orbifill.cli"]
    return subprocess.run([sys.executable, *prefix, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


@pytest.fixture
def documents(tmp_path):
    """Paths of the documents the queries below name by placeholder."""
    ref_span = tmp_path / "ref_span.json"
    ref_span.write_text(json.dumps({"span": {
        "left": {"ref": str(QUATERNION)}, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
        "source": [0], "target": [0]}}))
    # diag(-1, 1) fixes a line, so it reports a witness element.
    reflection = tmp_path / "reflection.json"
    reflection.write_text(json.dumps({"dimension": 2, "conductor": 2,
                                      "generators": [[["-1", "0"], ["0", "1"]]]}))
    return {"REF_SPAN": str(ref_span), "REFLECTION": str(reflection)}


@pytest.mark.parametrize("query, spans", [
    (("cr", "ring", str(QUATERNION), "--format", "json"), {"groups.classes"}),
    (("span", "check", "REF_SPAN", "--format", "json"), {"groups.enumerate_group"}),
    (("group", "info", "REFLECTION", "--format", "json"),
     {"groups.is_isolated_singularity", "groups.classes"}),
], ids=["cr-ring", "span-check-ref", "group-info-reflection"])
def test_traced_query_matches_untraced(tmp_path, documents, query, spans):
    args = [documents.get(a, a) for a in query]
    trace = tmp_path / "trace.json"
    plain, traced = run(args), run(args, trace)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert plain.stdout == traced.stdout
    names = {s[0] for s in json.loads(trace.read_text())["spans"]}
    assert spans <= names
    assert "cli._load_group" in names


def test_traced_span_random_matches_untraced(tmp_path):
    args = ["span", "random", "--trials", "5", "--seed", "3", "--format", "json"]
    trace = tmp_path / "trace.json"
    plain, traced = run(args), run(args, trace)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert plain.stdout == traced.stdout
    spans = json.loads(trace.read_text())["spans"]
    battery = [s for s in spans if s[0] == "spans.random_composition_battery"]
    assert len(battery) == 1 and battery[0][4] == 5
