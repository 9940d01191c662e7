"""Byte identity: every non-seeded benchmark query, run in process on the
benchmark corpus, prints the stdout and exits with the code recorded in
``bench/goldens.json``."""

import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
import sys
from pathlib import Path

from orbifill.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_corpus():
    """bench/corpus.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run(argv):
    """stdout bytes and exit code of ``main(argv)``, 0 when it returns."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    return out.getvalue().encode(), code


def test_goldens_byte_identical(tmp_path, monkeypatch):
    corpus = load_corpus()
    shutil.copytree(ROOT / "samples", tmp_path / "samples")
    paths = corpus.write_corpus(tmp_path, tmp_path / "corpus")
    (tmp_path / "cache").mkdir()
    monkeypatch.chdir(tmp_path)
    goldens = json.loads((BENCH / "goldens.json").read_text())
    queries = {q.key: q for build in corpus.WORKLOADS.values() for q in build(0) if not q.seeded}
    assert sorted(queries) == sorted(goldens)
    differing = []
    for key, query in queries.items():
        argv = [paths[a[1:]] if a.startswith("@") else a for a in query.args]
        argv += ["--format", "json"] + (["--cache-dir", "cache"] if query.groups else [])
        stdout, code = run(argv)
        golden = goldens[key]
        if (hashlib.sha256(stdout).hexdigest(), code) != (golden["sha256"], golden["exit"]):
            differing.append(key)
    assert not differing, (
        f"{len(differing)} of {len(queries)} queries differ from bench/goldens.json: "
        f"{differing}; if the change of output is intended, re-record them with "
        f"python3 bench/run.py --record-goldens and list them in CHANGES.md"
    )
