"""What the goldens leave out, pinned: the ``--format table`` output of a
query per command and action, the usage errors and the domain-negative exits.

Each query runs in process, in a directory holding a copy of ``samples/`` and
the two documents below, and its stdout sha256, stderr sha256 and exit code
must equal those in ``tests/cli_pins.json``. After an intended change of
output, re-record the file with

    PYTHONPATH=src python3 tests/test_cli_pins.py

and list the changed keys in CHANGES.md. Usage errors carry argparse's usage
text, wrapped at $COLUMNS, which both set to 80; its wording may differ on
another Python release.
"""

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from battery import binary_tetrahedral, run_cli

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("cli_pins.json")

DOCUMENTS = {
    # diag(-1, 1) fixes a line: not an isolated singularity.
    "reflection.json": {"dimension": 2, "conductor": 2,
                        "generators": [[["-1", "0"], ["0", "1"]]]},
    "one_span.json": {"span": {"left": {"cyclic": 1}, "middle": {"cyclic": 4},
                               "right": {"cyclic": 2}, "source": [0, 0, 0, 0],
                               "target": [0, 1, 0, 1]}},
    # Scalar mu60 in U(2): its table report of 10,127 lines spans several writes.
    "mu60.json": {"dimension": 2, "conductor": 60,
                  "generators": [[["z", "0"], ["0", "z"]]]},
    # Q8 x mu3 in U(2): full-pairs fails its associativity sweep at (c1, c1, c3).
    "q8xmu3.json": {"name": "Q8xmu3", "dimension": 2, "conductor": 12,
                    "generators": [[["z^3", "0"], ["0", "-z^3"]], [["0", "1"], ["-1", "0"]],
                                   [["z^4", "0"], ["0", "z^4"]]]},
    # Groups given by multiplication tables: the Klein four-group onto Z/2.
    "table_span.json": {"span": {"left": {"table": [[0, 1], [1, 0]]},
                                 "middle": {"table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                                      [2, 3, 0, 1], [3, 2, 1, 0]]},
                                 "right": {"cyclic": 1}, "source": [0, 1, 0, 1],
                                 "target": [0, 0, 0, 0]}},
    # Z/4 -> Z/2 sending 1 and 2 to the generator is no homomorphism.
    "not_a_homomorphism.json": {"span": {"left": {"cyclic": 1}, "middle": {"cyclic": 4},
                                         "right": {"cyclic": 2}, "source": [0, 0, 0, 0],
                                         "target": [0, 1, 1, 0]}},
    # 2T, whose entries have denominator 2: its closure is certified.
    "2t.json": binary_tetrahedral(),
    # A middle group given by reference to a group document: Z/1 <- Q8 -> Z/1.
    "ref_span.json": {"span": {"left": {"cyclic": 1}, "middle": {"ref": "samples/quaternion.json"},
                               "right": {"cyclic": 1}, "source": [0] * 8, "target": [0] * 8}},
    "bad_literal.json": {"dimension": 1, "conductor": 4, "generators": [[["1 +* z"]]]},
    "not_unitary.json": {"dimension": 1, "conductor": 1, "generators": [[["2"]]]},
}

QUERIES = {
    "group-info": "group info samples/quaternion.json",
    "group-info-witness": "group info reflection.json",
    "group-info-certified": "group info 2t.json",
    "group-canonical": "group canonical samples/antipodal2.json",
    "cr-ring": "cr ring samples/quaternion.json",
    "cr-ring-mu60": "cr ring mu60.json",
    "cr-ring-full-pairs": "cr ring q8xmu3.json --convention full-pairs",
    "cr-sectors": "cr sectors samples/a3.json",
    "cr-pairing": "cr pairing samples/quaternion.json",
    "cr-filling": "cr filling --betti 1,0,1 --singularity samples/antipodal2.json "
                  "--singularity samples/quaternion.json --coefficient Z/2",
    "reeb-report": "reeb report samples/a3.json --bound 7/3",
    "reeb-discrepancy": "reeb discrepancy samples/quaternion.json",
    "reeb-components": "reeb components samples/a3.json",
    "ledger-build": "ledger build samples/antipodal2.json --slope 5/4 --coefficient Z/2",
    "ledger-build-integers": "ledger build samples/antipodal2.json --slope 5/4 --coefficient Z",
    # No family lies below the slope: no forced entry, and none checked.
    "ledger-build-no-forced-entry": "ledger build samples/a3.json --slope 1/8",
    # Cell profiles for two families, one of them the contractible family's.
    "ledger-build-profile": "ledger build samples/a3.json --slope 9/7 "
                            "--profile Id:1=0,1,2,3 --profile c1:1/2=0 --format table",
    "span-check-pair": "span check samples/span_pair.json",
    "span-check-single": "span check one_span.json",
    "span-check-table": "span check table_span.json",
    "span-check-ref": "span check ref_span.json",
    "span-random": "span random --trials 20 --seed 7",
    "constraints-boundary": "constraints boundary lens:2,3",
    "constraints-boundary-dilation": "constraints boundary dilation:3",
    "constraints-admit": "constraints admit samples/quaternion.json --boundary brieskorn:2,3",
    "constraints-rp": "constraints rp 3",
    # Usage errors: exit 2, usage text on stderr.
    "usage-cr-ring-no-path": "cr ring",
    "usage-span-check-no-path": "span check",
    "usage-admit-no-boundary": "constraints admit samples/quaternion.json",
    "usage-unknown-action": "group describe samples/quaternion.json",
    "usage-max-order-0": "group info samples/quaternion.json --max-order 0",
    # Domain-negative results (exit 1) and input errors (exit 2).
    "negative-admit": "constraints admit samples/quaternion.json --boundary lens:2,3",
    "negative-cr-ring-non-isolated": "cr ring reflection.json",
    "negative-filling-non-isolated": "cr filling --singularity reflection.json",
    "input-bound-on-spectrum": "reeb report samples/a3.json --bound 5/2",
    "input-profile-twice": "ledger build samples/a3.json --slope 9/7 --profile Id:1=0 "
                           "--profile Id:2/2=3",
    "input-no-span": "span check samples/a3.json",
    "input-not-a-homomorphism": "span check not_a_homomorphism.json",
    "input-missing-document": "group info missing.json",
    "input-malformed-literal": "group info bad_literal.json",
    "input-not-unitary": "group info not_unitary.json",
}


def run(argv):
    """stdout and stderr sha256 and the exit code of ``main(argv)``."""
    code, out, err = run_cli(argv)
    return {"stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest(),
            "exit": code}


def prepare(directory: Path):
    shutil.copytree(ROOT / "samples", directory / "samples")
    for name, doc in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(doc))


def test_pinned_outputs(tmp_path, monkeypatch):
    prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(QUERIES)
    differing = {key: run(args.split()) for key, args in QUERIES.items()}
    differing = {key: found for key, found in differing.items() if found != pins[key]}
    assert not differing, f"{len(differing)} of {len(QUERIES)} queries differ: {differing}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        prepare(Path(work))
        os.chdir(work)
        os.environ["COLUMNS"] = "80"
        pins = {key: run(args.split()) for key, args in QUERIES.items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
