"""Reach: every function defined in ``src/orbifill`` is entered by a golden
query, a CLI pin or a README example, or is listed in ``ALLOWED`` with the
reason it stays.

One child process installs a trace hook and only then imports orbifill,
so calls made at import count. It runs the golden queries as
``test_goldens.py`` builds them, the pins of ``test_cli_pins.py`` and each
``orbifill ...`` line of README's example block through ``main``, and
reports every code object it entered and each example's exit code. A README
example that exits non-zero fails its own test. The functions defined
are read from the source with ``ast``, nested ones and properties included,
each named by its module and the classes and functions around it. The test
fails on a function that is neither entered nor listed (give it a command
path and a pin, or list it with its reason), on a listed function that is
now entered, and on a listed name that is no longer defined. To see every
function not entered, with its reason or UNLISTED, run

    PYTHONPATH=src python3 tests/test_reach.py
"""

import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbifill"

BENCH_TRACER = "bench/tracer.py reads it; no command does"
CRITERION_10 = "acceptance criterion 10 (the cyclotomic kernel) only"
DEBUGGING = "debugging only: no command prints a repr"
IMMUTABILITY = "refuses a write to a record's fields, which no command attempts"

# name -> why it stays though no golden, pin or README example enters it.
ALLOWED = {
    "cli._default_cache_dir": BENCH_TRACER,
    "groups.FiniteUnitaryGroup.mult_table": BENCH_TRACER,
    "cyclotomic.CyclotomicNumber.__repr__": DEBUGGING,
    "record.Record.__repr__": DEBUGGING,
    "record.Record.__eq__": "records are compared by tests only; commands read their fields",
    "record.Record.__setattr__": IMMUTABILITY,
    "record.Record.__delattr__": IMMUTABILITY,
    "cyclotomic.zeta": CRITERION_10,
    "cyclotomic.CyclotomicNumber.is_zero": CRITERION_10,
    "cyclotomic.CyclotomicNumber.inverse": CRITERION_10,
}


def defined() -> dict[str, set[tuple[str, int, str]]]:
    """{name: the (file, first line, name) of each code object defining it}
    for every function in ``src/orbifill``. A decorated function's code
    begins at its first decorator, as ``co_firstlineno`` does."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found.setdefault(name, set()).add((path, line, child.name))
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem + ".")
    return found


def readme_examples() -> list[str]:
    """The ``orbifill ...`` lines of the first ``sh`` block under README's
    "Command line" heading."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("```sh", lines.index("## Command line")) + 1
    return [line for line in lines[start:lines.index("```", start)]
            if line.startswith("orbifill ")]


def run_trace(directory: Path) -> tuple[set[str], dict[str, int]]:
    """The names of the functions the child, run in ``directory``, did not
    enter, and the exit code of each README example."""
    child = subprocess.run([sys.executable, __file__, "--trace"], cwd=directory,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                           capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    codes = {tuple(code) for code in report["codes"]}
    missing = {name for name, places in defined().items() if not places <= codes}
    return missing, report["readme"]


def trace():
    """The child: the goldens, the pins and the README examples under a
    trace hook set before orbifill is imported; prints the code objects
    entered in src/orbifill and each example's exit code."""
    codes = set()
    sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))
    import test_cli_pins
    import test_goldens
    from battery import run_cli

    work = Path.cwd()
    for name in ("goldens", "pins"):
        (work / name).mkdir()
    queries = test_goldens.prepare(work / "goldens")
    os.chdir(work / "goldens")
    for argv in queries.values():
        run_cli(argv)
    test_cli_pins.prepare(work / "pins")
    os.chdir(work / "pins")
    for args in test_cli_pins.QUERIES.values():
        run_cli(args.split())
    # The pins' directory holds a copy of samples/, which the examples read.
    readme = {line: run_cli(shlex.split(line, comments=True)[1:])[0]
              for line in readme_examples()}
    sys.settrace(None)
    src = str(SRC)
    print(json.dumps({"codes": [[c.co_filename, c.co_firstlineno, c.co_name]
                                for c in codes if c.co_filename.startswith(src)],
                      "readme": readme}))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_trace(tmp_path_factory.mktemp("reach"))


def test_readme_examples_exit_zero(traced):
    _, readme = traced
    assert len(readme) == len(readme_examples()) > 0
    failed = {line: code for line, code in readme.items() if code != 0}
    assert not failed, f"README examples exited non-zero: {failed}"


def test_every_function_is_entered_or_listed(traced):
    missing, names = traced[0], defined().keys()
    unlisted = sorted(missing - ALLOWED.keys())
    entered_now = sorted((ALLOWED.keys() & names) - missing)
    gone = sorted(ALLOWED.keys() - names)
    assert not unlisted, (
        f"no golden, pin or README example enters {unlisted}: add a pin that runs them, "
        f"or list each in ALLOWED with the reason it stays")
    assert not entered_now, f"listed in ALLOWED, but entered: {entered_now}"
    assert not gone, f"listed in ALLOWED, but no longer defined: {gone}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--trace"]:
        trace()
    else:
        with tempfile.TemporaryDirectory() as work:
            missing, _ = run_trace(Path(work))
        for name in sorted(missing | ALLOWED.keys()):
            if name not in missing:
                print(f"{name}: entered or not defined, but listed")
            else:
                print(f"{name}: {ALLOWED.get(name, 'UNLISTED')}")
