"""Byte identity: every non-seeded benchmark query, run in process on the
benchmark corpus, prints the stdout and exits with the code recorded in
``bench/goldens.json``."""

import hashlib
import json
import shutil
from pathlib import Path

from battery import corpus, run_cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def prepare(directory: Path) -> dict[str, list[str]]:
    """Write a copy of ``samples/``, the benchmark corpus and an empty cache
    directory into ``directory``, and return each non-seeded query's argv by
    its key, to be run from there."""
    shutil.copytree(ROOT / "samples", directory / "samples")
    paths = corpus.write_corpus(directory, directory / "corpus")
    (directory / "cache").mkdir()
    queries = {}
    for build in corpus.WORKLOADS.values():
        for query in build(0):
            if not query.seeded:
                argv = [paths[a[1:]] if a.startswith("@") else a for a in query.args]
                argv += ["--format", "json"] + (["--cache-dir", "cache"] if query.groups else [])
                queries[query.key] = argv
    return queries


def test_goldens_byte_identical(tmp_path, monkeypatch):
    queries = prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    goldens = json.loads((BENCH / "goldens.json").read_text())
    assert sorted(queries) == sorted(goldens)
    differing = []
    for key, argv in queries.items():
        code, stdout, _ = run_cli(argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        golden = goldens[key]
        if (digest, code) != (golden["sha256"], golden["exit"]):
            differing.append(key)
    assert not differing, (
        f"{len(differing)} of {len(queries)} queries differ from bench/goldens.json: "
        f"{differing}; if the change of output is intended, re-record them with "
        f"python3 bench/run.py --record-goldens and list them in CHANGES.md"
    )
