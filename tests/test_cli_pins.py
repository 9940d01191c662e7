"""What the goldens leave out, pinned: every check of one command line's
exit code and output. That is the ``--format table`` output of a query per
command and action, each rejection an option or a document reaches, and the
verdicts that no golden reaches.

Each query runs in process, in a directory holding a copy of ``samples/`` and
the documents below, and its stdout sha256, stderr sha256 and exit code
must equal those in ``tests/cli_pins.json``. Run as a script,

    PYTHONPATH=src python3 tests/test_cli_pins.py [KEY ...]

records the queries not yet pinned and drops the pins of deleted queries. A
query whose output differs from its pin is named, its pin is left as it is,
and the script exits 1. Given keys, it re-records those queries only: after
an intended change of output, name the changed keys, and list them in
CHANGES.md. Usage errors carry argparse's usage text, wrapped at $COLUMNS,
which both set to 80; its wording may differ on another Python release.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from battery import Z7_SEMIDIRECT_Z9, binary_tetrahedral, corpus, run_cli

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
    # The rejections of a group document, in the order they are checked. A
    # str is written as it is, anything else as its JSON.
    "invalid_json.json": "{not json",
    "digits.json": '{"dimension": ' + "9" * 5000 + ', "conductor": 1, "generators": []}',
    "array.json": [],
    "int_name.json": {"name": 1, "dimension": 1, "conductor": 1, "generators": []},
    "no_dimension.json": {"conductor": 1, "generators": []},
    "wide.json": {"dimension": 501, "conductor": 1, "generators": []},
    "conductor_0.json": {"dimension": 1, "conductor": 0, "generators": []},
    # 2*3*5*7*11*13*17: its reduction table has about 3.9e10 entries.
    "conductor_510510.json": {"dimension": 1, "conductor": 510510, "generators": []},
    "object_generators.json": {"dimension": 1, "conductor": 1, "generators": {}},
    "short_matrix.json": {"dimension": 2, "conductor": 1, "generators": [[["1", "0"]]]},
    "short_row.json": {"dimension": 2, "conductor": 1, "generators": [[["1", "0"], ["0"]]]},
    "int_entry.json": {"dimension": 1, "conductor": 1, "generators": [[[1]]]},
    "empty_literal.json": {"dimension": 1, "conductor": 4, "generators": [[[""]]]},
    "plus_literal.json": {"dimension": 1, "conductor": 4, "generators": [[["+1"]]]},
    "open_literal.json": {"dimension": 1, "conductor": 4, "generators": [[["1 +"]]]},
    "long_literal.json": {"dimension": 1, "conductor": 4, "generators": [[["7" * 5000]]]},
    "over_zero.json": {"dimension": 1, "conductor": 4, "generators": [[["1/0"]]]},
    # A unitary rotation of infinite order: 3/5 + 4/5 i is no root of unity.
    "rotation.json": {"dimension": 2, "conductor": 4,
                      "generators": [[["3/5", "-4/5"], ["4/5", "3/5"]]]},
    # 2T at conductor 2^16: its certificate is above the cap.
    "2t_65536.json": binary_tetrahedral(conductor=2**16),
    "trivial.json": {"dimension": 2, "conductor": 1, "generators": []},
    # 634 sectors give 200,661 twisted sector pairs, above the ring's cap.
    "mu634.json": {"dimension": 1, "conductor": 634, "generators": [[["z"]]]},
    # -I in U(3) has age 3/2: its minimal discrepancy 1 is terminal.
    "minus_identity3.json": {"dimension": 3, "conductor": 2,
                             "generators": [[["-1", "0", "0"], ["0", "-1", "0"],
                                             ["0", "0", "-1"]]]},
    # C/mu4 has the degrees 0, 1/2, 1 and 3/2: two of them have no parity.
    "mu4.json": {"dimension": 1, "conductor": 4, "generators": [[["z"]]]},
    # The rejections of a span document.
    "span_array.json": [],
    "span_not_object.json": {"span": 1},
    "span_no_middle.json": {"span": {"left": {"cyclic": 1}}},
    **{name: {"span": {"left": left, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                       "source": [0], "target": [0]}}
       for name, left in [("span_no_kind.json", {}), ("span_empty_table.json", {"table": []}),
                          ("span_cyclic_0.json", {"cyclic": 0}),
                          ("span_ref_int.json", {"ref": 1}),
                          ("span_ref_missing.json", {"ref": "missing.json"}),
                          ("span_ragged_table.json", {"table": [[0, 1], [1]]}),
                          ("span_table_entries.json", {"table": [[0, 1], [1, 2]]}),
                          ("span_table_identity.json", {"table": [[1, 0], [0, 1]]}),
                          ("span_table_no_inverse.json", {"table": [[0, 1], [1, 1]]}),
                          # A loop of order 5 in which every x * x is 0: no group.
                          ("span_table_not_associative.json",
                           {"table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]})]},
    "span_source_not_list.json": {"span": {"left": {"cyclic": 1}, "middle": {"cyclic": 1},
                                           "right": {"cyclic": 1}, "source": 0,
                                           "target": [0]}},
    **{name: {"span": {"left": {"cyclic": 2}, "middle": {"cyclic": 2},
                       "right": {"cyclic": 1}, "source": source, "target": [0, 0]}}
       for name, source in [("span_short_images.json", [0]),
                            ("span_image_range.json", [0, 2]),
                            ("span_image_identity.json", [1, 0])]},
    # The first span ends in Z/2 and the second starts from Z/3.
    "span_middle_mismatch.json": {
        "span1": {"left": {"cyclic": 1}, "middle": {"cyclic": 1}, "right": {"cyclic": 2},
                  "source": [0], "target": [0]},
        "span2": {"left": {"cyclic": 3}, "middle": {"cyclic": 1}, "right": {"cyclic": 1},
                  "source": [0], "target": [0]}},
    # samples/span_pair.json with span1's source images replaced.
    **{name: {"span1": {"left": {"cyclic": 2}, "middle": {"cyclic": 2}, "right": {"cyclic": 2},
                        "source": source, "target": [0, 0]},
              "span2": {"left": {"cyclic": 2}, "middle": {"cyclic": 2}, "right": {"cyclic": 2},
                        "source": [0, 0], "target": [0, 1]}}
       for name, source in [("pair_image_5.json", [0, 5]), ("pair_image_bool.json", [0, True]),
                            ("pair_source_int.json", 1)]},
    # Booleans where a span group's order or table holds ints: read as ints,
    # they are Z1 and Z2, and the span would pass.
    **{name: {"span": {"left": {"cyclic": 1}, "middle": {"cyclic": 2}, "right": {"cyclic": 1},
                       "source": [0, 0], "target": [0, 0], **groups}}
       for name, groups in [
           ("span_cyclic_bool.json", {"left": {"cyclic": True}}),
           ("span_table_bool.json", {"middle": {"table": [[False, True], [True, False]]}}),
           ("span_bool_both.json", {"left": {"cyclic": True},
                                    "middle": {"table": [[False, True], [True, False]]}})]},
    # Middle tables that are no list of rows; empty image lists match the
    # empty table, which has no identity.
    **{name: {"span": {"left": {"cyclic": 1}, "middle": {"table": table},
                       "right": {"cyclic": 1}, "source": [], "target": []}}
       for name, table in [("span_table_int.json", 5), ("span_table_flat.json", [1, 2]),
                           ("span_table_null.json", None), ("span_table_empty_images.json", [])]},
    # Strings where a span document holds objects.
    "span_document_string.json": '"span"',
    "span_string.json": {"span": "left middle right source target"},
    "span_pair_strings.json": {"span1": "left middle right", "span2": "source target"},
    "span_group_string.json": {"span": {"left": "cyclic", "middle": {"cyclic": 1},
                                        "right": {"cyclic": 1}, "source": [0], "target": [0]}},
    "superscript_literal.json": {"dimension": 1, "conductor": 4, "generators": [[["\u00b2"]]]},
    "half_entry.json": {"dimension": 2, "conductor": 2,
                        "generators": [[["1/2", "0"], ["0", "1"]]]},
    **{f"conductor_{conductor}.json": {"name": "neg", "dimension": 2, "conductor": conductor,
                                       "generators": [[["-1", "0"], ["0", "-1"]]]}
       for conductor in (15015, 10**8)},
    # Read as ints, both are 1 and the document is the group {-1}.
    **{f"bool_{field}.json": {"dimension": 1, "conductor": 1, "generators": [[["-1"]]],
                              field: True}
       for field in ("dimension", "conductor")},
    "mu3_dim3.json": corpus.scalar_cyclic(3, n=3).document(),
    # Both conventions pass the sweep on Z7 x| Z9, yet most twisted products differ.
    "z7xz9.json": Z7_SEMIDIRECT_Z9.document(),
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
    # Verdicts that no other query reaches.
    "reeb-discrepancy-terminal": "reeb discrepancy minus_identity3.json",
    "cr-ring-indeterminate-parity": "cr ring mu4.json",
    "constraints-rp-power-of-two": "constraints rp 4",
    "constraints-boundary-inapplicable": "constraints boundary brieskorn:3,2",
    # Every other rejection that an option or a document reaches, one query each.
    "usage-bound-exponent": "reeb report samples/a3.json --bound 1e3",
    "usage-bound-zero-denominator": "reeb report samples/a3.json --bound 1/0",
    "usage-bound-invalid": "reeb report samples/a3.json --bound x",
    "usage-report-no-bound": "reeb report samples/a3.json",
    "usage-trials-x": "span random --trials x",
    "input-trials-cap": "span random --trials 50001",
    "usage-span-max-order-1": "span random --max-order 1",
    "usage-directory-document": "group info samples",
    "usage-cache-dir-file": "group info samples/a3.json --cache-dir samples/a3.json",
    "input-json-invalid": "group info invalid_json.json",
    "input-json-digits": "group info digits.json",
    "input-document-array": "group info array.json",
    "input-document-name": "group info int_name.json",
    "input-document-dimension": "group info no_dimension.json",
    "input-dimension-cap": "group info wide.json",
    "input-document-conductor": "group info conductor_0.json",
    "input-conductor-cap": "group info conductor_510510.json",
    "input-document-generators": "group info object_generators.json",
    "input-document-matrix": "group info short_matrix.json",
    "input-document-row": "group info short_row.json",
    "input-document-entry": "group info int_entry.json",
    "input-literal-empty": "group info empty_literal.json",
    "input-literal-plus": "group info plus_literal.json",
    "input-literal-open": "group info open_literal.json",
    "input-literal-long": "group info long_literal.json",
    "input-literal-zero-denominator": "group info over_zero.json",
    "input-closure-cap": "group info samples/quaternion.json --max-order 3",
    "input-certificate-cap": "group info 2t_65536.json",
    "input-not-finite": "group info rotation.json",
    "input-ring-pair-cap": "cr ring mu634.json",
    "input-betti-x": "cr filling --betti 1,x",
    "input-betti-negative": "cr filling --betti=-1",
    "input-coefficient-modulus-1": "cr filling --coefficient Z/1",
    "input-coefficient-modulus-x": "cr filling --coefficient Z/x",
    "input-coefficient-unknown": "cr filling --coefficient R",
    "input-bound-zero": "reeb report samples/a3.json --bound 0",
    "input-family-cap": "reeb report samples/a3.json --bound 1000000/7",
    "input-discrepancy-trivial": "reeb discrepancy trivial.json",
    "input-slope-on-spectrum": "ledger build samples/a3.json --slope 5/2",
    "input-cell-cap": "ledger build samples/a3.json --slope 30000/7",
    "input-profile-malformed": "ledger build samples/a3.json --slope 9/7 --profile bad",
    "input-profile-index-x": "ledger build samples/a3.json --slope 9/7 --profile Id:1=x",
    "input-profile-index-twice": "ledger build samples/a3.json --slope 9/7 --profile Id:1=0,0",
    "input-profile-index-outside": "ledger build samples/a3.json --slope 9/7 --profile Id:1=0,9",
    "input-profile-no-family": "ledger build samples/a3.json --slope 9/7 --profile X:1=0",
    "input-span-array": "span check span_array.json",
    "input-span-not-object": "span check span_not_object.json",
    "input-span-missing-key": "span check span_no_middle.json",
    "input-span-source-not-list": "span check span_source_not_list.json",
    "input-span-group-kind": "span check span_no_kind.json",
    "input-span-table-empty": "span check span_empty_table.json",
    "input-span-cyclic-0": "span check span_cyclic_0.json",
    "input-span-ref-int": "span check span_ref_int.json",
    "input-span-ref-missing": "span check span_ref_missing.json",
    "input-span-group-cap": "span check one_span.json --max-order 2",
    "input-table-ragged": "span check span_ragged_table.json",
    "input-table-entries": "span check span_table_entries.json",
    "input-table-identity": "span check span_table_identity.json",
    "input-table-no-inverse": "span check span_table_no_inverse.json",
    "input-table-not-associative": "span check span_table_not_associative.json",
    "input-images-length": "span check span_short_images.json",
    "input-images-range": "span check span_image_range.json",
    "input-images-identity": "span check span_image_identity.json",
    "input-middle-mismatch": "span check span_middle_mismatch.json",
    "input-rp-x": "constraints rp x",
    "input-rp-1": "constraints rp 1",
    "input-boundary-kind": "constraints boundary torus:2",
    "input-boundary-form": "constraints boundary lens:2",
    "input-boundary-integer": "constraints boundary lens:x,3",
    "input-boundary-k": "constraints boundary lens:1,3",
    "input-boundary-n": "constraints boundary lens:2,1",
    "input-boundary-n-positive": "constraints boundary subcritical:0",
    "input-divisor-factorial-digits": "constraints boundary lens:2000,3",
    "input-divisor-power-digits": "constraints boundary lens:2,20000",
    # k is past a float's range: the digit estimate overflows.
    "input-divisor-digits-overflow": f"constraints boundary lens:{'9' * 400},3",
    "negative-admit-not-applicable": "constraints admit samples/quaternion.json "
                                     "--boundary brieskorn:5,3",
    "version": "--version",
    "usage-no-command": "",
    "span-random-seed-3": "span random --trials 150 --seed 3 --format json",
    "cr-ring-z7xz9": "cr ring z7xz9.json",
    "cr-ring-z7xz9-full-pairs": "cr ring z7xz9.json --convention full-pairs",
    "cr-ring-z7xz9-orbit-reps": "cr ring z7xz9.json --convention orbit-reps",
    "cr-filling-integers": "cr filling --betti 1 --singularity samples/antipodal2.json "
                           "--coefficient Z",
    "constraints-admit-admissible": "constraints admit samples/antipodal2.json --boundary lens:2,2",
    "negative-admit-mu3": "constraints admit mu3_dim3.json --boundary lens:2,3",
    "input-not-unitary-half": "group info half_entry.json",
    "input-literal-superscript": "group info superscript_literal.json",
    "input-conductor-cap-15015": "group info conductor_15015.json",
    "input-conductor-cap-100000000": "group info conductor_100000000.json",
    "input-document-dimension-bool": "group info bool_dimension.json",
    "input-document-conductor-bool": "group info bool_conductor.json",
    "input-pair-image-range": "span check pair_image_5.json",
    "input-pair-image-bool": "span check pair_image_bool.json",
    "input-pair-source-not-list": "span check pair_source_int.json",
    "input-span-cyclic-bool": "span check span_cyclic_bool.json",
    "input-span-table-bool": "span check span_table_bool.json",
    "input-span-bool-both": "span check span_bool_both.json",
    "input-span-table-int": "span check span_table_int.json",
    "input-span-table-flat": "span check span_table_flat.json",
    "input-span-table-null": "span check span_table_null.json",
    "input-span-table-empty-images": "span check span_table_empty_images.json",
    "input-span-document-string": "span check span_document_string.json",
    "input-span-string": "span check span_string.json",
    "input-span-pair-strings": "span check span_pair_strings.json",
    "input-span-group-string": "span check span_group_string.json",
    "usage-span-max-order-0": "span random --trials 3 --max-order 0",
    "usage-trials-negative": "span random --trials -1",
    "usage-slope-zero-denominator": "ledger build samples/antipodal2.json --slope 1/0",
    "input-profile-zero-denominator": "ledger build samples/antipodal2.json --slope 5/4 "
                                      "--profile Id:1/0=0",
    "usage-bound-exponent-negative": "reeb report samples/a3.json --bound 304e-2",
    "input-profile-exponent": "ledger build samples/a3.json --slope 203/101 --profile Id:1e0=0",
    "input-family-cap-bound": "reeb report samples/a3.json --bound 100001/3",
    "input-family-cap-slope": "ledger build samples/a3.json --slope 100001/3",
    # Only the family that none lies below is named.
    "input-profile-no-family-of-two": "ledger build samples/antipodal2.json --slope 5/4 "
                                      "--profile Zz:9=0 --profile Id:1=0,3",
    "input-admit-boundary-form": "constraints admit samples/quaternion.json "
                                 "--boundary brieskorn:3",
    "input-admit-boundary-form-subcritical": "constraints admit samples/quaternion.json "
                                             "--boundary subcritical:1,2",
    "input-boundary-form-three": "constraints boundary lens:2,3,4",
    # Divisors of more than 4,300 digits: 1559! (the first factorial past
    # them), 100000000! and 2^100000.
    **{f"input-boundary-divisor-digits-{k}-{n}": f"constraints boundary lens:{k},{n}"
       for k, n in ((1559, 2), (10**8, 2), (2, 10**5))},
    **{f"input-admit-divisor-digits-{k}-{n}": f"constraints admit trivial.json "
                                              f"--boundary lens:{k},{n}"
       for k, n in ((1559, 2), (10**8, 2), (2, 10**5))},
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
        (directory / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


def test_pinned_outputs(tmp_path, monkeypatch):
    prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(QUERIES)
    differing = {key: run(args.split()) for key, args in QUERIES.items()}
    differing = {key: found for key, found in differing.items() if found != pins[key]}
    assert not differing, f"{len(differing)} of {len(QUERIES)} queries differ: {differing}"


def record(keys):
    """Record the queries ``keys``, or else those not yet pinned; return the
    pinned keys, not re-recorded, whose output differs from their pin."""
    pins = json.loads(PINS.read_text())
    unknown = sorted(set(keys) - QUERIES.keys())
    if unknown:
        sys.exit(f"no query is named {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as work:
        prepare(Path(work))
        os.chdir(work)
        os.environ["COLUMNS"] = "80"
        found = {key: run(QUERIES[key].split()) for key in keys or QUERIES}
    differing = [] if keys else sorted(k for k in pins.keys() & found.keys()
                                       if found[k] != pins[k])
    kept = {key: pins[key] for key in QUERIES.keys() & pins.keys()}
    kept.update((key, pin) for key, pin in found.items() if keys or key not in pins)
    PINS.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n")
    return differing


if __name__ == "__main__":
    differing = record(sys.argv[1:])
    if differing:
        sys.exit("output differs from the pin, which is left as it was: "
                 + ", ".join(differing) + "\nre-record an intended change by naming its keys")
