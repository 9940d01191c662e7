#!/usr/bin/env python3
"""Benchmark of the orbifill command line over a fixed group corpus.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-small --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json records why each exists): cli-small, ring-midsize,
large-order and span-battery; corpus.py defines their queries.

A run is a closed loop with one client: one `orbifill` child process at a
time, the next started when the last has exited.  Set-up writes the corpus,
checks every group against its closed forms and starts `orbifill --version`
once; it is repeated SETUP_REPEATS times and `setup_s` is the median.  The
loop then makes whole passes over the workload's query list in a seeded
order, each pass from an empty cache directory, and starts another pass only
while it should end within --seconds (always at least one).  Every query's
exit code and stdout are checked: against goldens.json, recorded from the
program, and against invariants computed independently (corpus.py).

--trace 0 prints the end-to-end metrics, with times scaled for the drift
of machine speed (see REFERENCE_S) and the raw figures beside them.
--trace 1 makes one untraced and one traced pass (tracer.py), interleaved
query by query, times `orbifill --version`, runs the kernel probe
(kernel_probe.py) and one read-only `pytest tests/test_acceptance.py`, and
prints the per-layer metrics, unscaled.  Layer self times are summed over the
traced pass; a layer a workload never calls reads 0.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  In a directory without the orbifill sources
the benchmark exits 2 and prints no result.

    python3 bench/run.py --record-goldens

rewrites goldens.json from the program as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
GOLDENS = BENCH / "goldens.json"
WORK = ".bench_work"
LAUNCHER = "import sys; sys.argv[0] = 'orbifill'; from orbifill.cli import main; main()"
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
QUERY_TIMEOUT_S = 60
RUN_BUDGET_S = 150  # no pass starts that should end after this
# On a shared 2-vCPU virtual machine the CPU speed drifts by +-18% over
# tens of seconds, and the time of an orbifill query drifts with it: over
# 150 s the median start-up time moved between 143 and 207 ms while a fixed
# pure-Python loop moved between 24.7 and 35.7 ms, their ratio staying
# within +-4%.  Each query's wall time is therefore scaled by REFERENCE_S
# over the time the reference loop took around it; times read as seconds on
# a machine where the loop takes REFERENCE_S.  Raw medians are printed
# beside them.
REFERENCE_ITERATIONS = 100_000
REFERENCE_S = 0.010


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- checks ----------------------------------------------------------------------


def _class_sizes(d, e):
    total = sum(c["size"] for c in d["classes"])
    if not d["order"] == total == e["order"]:
        return f"|G| = {d['order']} and class sizes sum to {total}, closed form {e['order']}"
    if len(d["classes"]) != e["classes"] or d["isolated_singularity"] is not True:
        return f"{len(d['classes'])} classes, closed form {e['classes']}"


def _ring_associative(d, e):
    chosen = d["metadata"]["conventions"]["cup_product"]
    if d["associativity_sweep"].get(chosen) is not True or d["associative"] is not True:
        return f"the chosen ring ({chosen}) fails its associativity sweep"
    if sum(s["class_size"] for s in d["sectors"]) != e["order"] or len(d["sectors"]) != e["classes"]:
        return "sectors do not partition the group"


def _sector_count(d, e):
    if not d["total_rank"] == len(d["sectors"]) == e["classes"]:
        return f"total rank {d['total_rank']}, closed form {e['classes']}"


def _pairing(d, e):
    if d["all_pass"] is not True or len(d["pairs"]) != e["classes"] - 1:
        return "age duality does not pass on every sector"


def _filling_rank(d, e):
    # Betti number 1 in degree 0 plus one rank per nontrivial class.
    if d["total_rank"] != e["classes"]:
        return f"total rank {d['total_rank']}, expected {e['classes']}"


def _components(d, e):
    if len(d["components"]) != e["classes"]:
        return f"{len(d['components'])} loop components, expected {e['classes']}"


def _forced_differential(d, e):
    coefficients = [x["coefficient"] for x in d["known_differentials"]]
    if coefficients != [e["order"]]:
        return f"forced differential coefficients {coefficients}, expected [{e['order']}]"


def _admit(d, e):
    if d["group_order"] != e["order"] or d["admissible"] != e["admissible"]:
        return f"admissible={d['admissible']} for |G| = {d['group_order']}"


def _span_equal(d, e):
    if d["equal"] is not True:
        return "composition identity fails"


def _span_battery(d, e):
    if d["all_equal"] is not True or d["failures"] or (d["trials"], d["seed"]) != (
        e["trials"], e["seed"]
    ):
        return "battery reports failures or ran the wrong trials"


INVARIANTS = {f.__name__[1:]: f for f in (
    _class_sizes, _ring_associative, _sector_count, _pairing, _filling_rank, _components,
    _forced_differential, _admit, _span_equal, _span_battery,
)}


def check(query: corpus.Query, exit_code: int, stdout: bytes, goldens: dict | None):
    """None when the output is right, else why it is not."""
    if exit_code != query.expect_exit:
        return f"exit {exit_code}, expected {query.expect_exit}"
    if not query.seeded and goldens is not None:
        golden = goldens.get(query.key)
        if golden is None:
            return "no golden recorded"
        if hashlib.sha256(stdout).hexdigest() != golden["sha256"]:
            return "stdout differs from the golden"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    expected = dict(query.expected)
    for name in query.checks:
        try:
            why = INVARIANTS[name](doc, expected)
        except (KeyError, TypeError) as e:
            why = f"missing field {e}"
        if why:
            return f"{name}: {why}"
    return None


def perturb(stdout: bytes) -> bytes:
    """A plausible wrong output: a flipped verdict, else one digit changed."""
    if b'"all_equal": true' in stdout:
        return stdout.replace(b'"all_equal": true', b'"all_equal": false', 1)
    m = re.search(rb"\d", stdout)
    if m is None:
        return stdout + b" "
    digit = b"1" if m.group() == b"0" else b"0"
    return stdout[: m.start()] + digit + stdout[m.end():]


# -- child processes ---------------------------------------------------------------


@dataclass
class Child:
    exit: int
    stdout: bytes
    stderr: bytes
    start_ns: int
    end_ns: int
    rss_kb: int

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Record:
    query: corpus.Query
    cold: bool | None
    child: Child
    trace: dict | None = None
    failure: str | None = None
    scale: float = 1.0  # REFERENCE_S over the reference time around the query

    @property
    def seconds(self) -> float:
        return self.child.wall_s * self.scale


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class Runner:
    def __init__(self, root: Path):
        self.root = root
        self.work = root / WORK
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["ORBIFILL_CACHE_DIR"] = str(self.work / "default-cache")
        self.paths: dict[str, str] = {}
        self.passes = 0

    def spawn(self, argv, env=None, timeout=QUERY_TIMEOUT_S) -> Child:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.root, env=env or self.env)
            # Reap the child here, not through Popen, to read its rusage.
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter_ns()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), start, end,
                     usage.ru_maxrss)

    def hashed_env(self, query: corpus.Query | None) -> dict:
        """The child environment with PYTHONHASHSEED fixed by the query.

        A query's time depends on the hash seed (group info on Q8 x mu7
        takes 0.22 s under some seeds and 0.36 s under others), so each
        query keeps one seed, taken from its text, in every run and mode.
        """
        digest = hashlib.sha256(query.key.encode()).digest() if query else bytes(4)
        return {**self.env, "PYTHONHASHSEED": str(int.from_bytes(digest[:4], "big"))}

    def orbifill(self, args, query: corpus.Query | None = None) -> Child:
        return self.spawn([sys.executable, "-c", LAUNCHER, *args], self.hashed_env(query))

    def setup(self) -> tuple[float, float]:
        """Write and check the corpus, start orbifill once; returns the
        scaled and the raw seconds this took."""
        before = reference_s()
        start = time.perf_counter()
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        try:
            self.paths = corpus.write_corpus(self.root, self.work / "corpus")
        except (OSError, ValueError) as e:
            raise BenchError(f"corpus set-up failed: {e}")
        version = self.orbifill(["--version"])
        if version.exit != 0 or b"orbifill" not in version.stdout:
            raise BenchError(f"orbifill --version failed: {version.stderr.decode()[-300:]}")
        raw = time.perf_counter() - start
        return raw * 2 * REFERENCE_S / (before + reference_s()), raw

    def argv(self, query: corpus.Query, cache: Path) -> list[str]:
        args = [self.paths[a[1:]] if a.startswith("@") else a for a in query.args]
        args += ["--format", "json"]
        if query.groups:
            args += ["--cache-dir", str(cache.relative_to(self.root))]
        return args

    def traced(self, query, cold, args) -> Record:
        trace_file = self.work / "trace.json"
        trace_file.unlink(missing_ok=True)
        child = self.spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_file), "--", *args],
                           self.hashed_env(query))
        trace = json.loads(trace_file.read_text()) if trace_file.exists() else None
        return Record(query, cold, child, trace)

    def run_passes(self, queries, modes=(False,)) -> tuple[list[list[Record]], float]:
        """One pass per mode (True: traced), interleaved query by query so
        that drift in machine speed touches every mode alike; each pass has
        its own cache directory."""
        caches = [self.work / f"cache-{self.passes + i}" for i in range(len(modes))]
        self.passes += len(modes)
        touched = set()
        passes = [[] for _ in modes]
        start = time.perf_counter()
        before = reference_s()
        for query in queries:
            cold = None
            if query.groups:
                entries = {corpus.SAME_DOCUMENT.get(g, g) for g in query.groups}
                cold = not touched.issuperset(entries)
                touched.update(entries)
            for traced, cache, records in zip(modes, caches, passes):
                args = self.argv(query, cache)
                record = (self.traced(query, cold, args) if traced
                          else Record(query, cold, self.orbifill(args, query)))
                after = reference_s()
                record.scale = 2 * REFERENCE_S / (before + after)
                before = after
                records.append(record)
        return passes, time.perf_counter() - start


# -- metrics -----------------------------------------------------------------------


def tail(values):
    """(value, percentile, samples) for the highest percentile that has at
    least ten samples beyond it; with ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records, setup_times, scaled=True):
    """End-to-end metrics from scaled times, or raw ones with scaled=False."""
    walls = [r.seconds if scaled else r.child.wall_s for r in records]
    cold = [w for w, r in zip(walls, records) if r.cold is True]
    warm = [w for w, r in zip(walls, records) if r.cold is False]
    value, pct, n = tail(walls)
    notes = {"query_tail_s": f"p{pct:.1f} of {n} samples",
             "cold_p50_s": f"{len(cold)} samples", "warm_p50_s": f"{len(warm)} samples"}
    if not cold and not warm:
        # No query reads a group document, so none meets a cache.
        cold = warm = walls
        notes["cold_p50_s"] = notes["warm_p50_s"] = "no query reads the cache: all queries"
    metrics = {
        "setup_s": (statistics.median(t[0 if scaled else 1] for t in setup_times), "s"),
        "queries_per_s": (len(walls) / sum(walls), "1/s"),
        "query_p50_s": (statistics.median(walls), "s"),
        "query_tail_s": (value, "s"),
        "cold_p50_s": (statistics.median(cold), "s"),
        "warm_p50_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (max(r.child.rss_kb for r in records) / 1024, "MB"),
    }
    return metrics, notes


# Self time of spans with this name goes to this metric.
SELF_METRICS = {
    "cli.import": "cli.import_s",
    "groups.document_digest": "cli.digest_s",
    "cli._emit": "cli.emit_s",
    "groups.parse_group": "groups.parse_s",
    "groups.enumerate_group": "groups.enumerate_s",
    "groups.mult_table": "groups.mult_table_s",
    "groups.eigen_multiplicities": "groups.eigen_s",
    "groups.classes": "groups.classes_s",
    "groups.is_isolated_singularity": "groups.isolated_s",
    "chen_ruan.build_ring": "chen_ruan.build_ring_s",
    "chen_ruan.associativity_sweep": "chen_ruan.sweep_s",
    "reeb.families_below": "reeb.families_below_s",
    "reeb.mclean_discrepancy": "reeb.discrepancy_s",
    "ledger.build_ledger": "ledger.build_s",
    "ledger.check_ledger": "ledger.check_s",
    "spans.random_composition_battery": "spans.battery_s",
    "spans.composition_check": "spans.composition_check_s",
}
# Number of spans with this name.
CALL_METRICS = {
    "groups.eigen_multiplicities": "groups.eigen_calls",
    "chen_ruan.build_ring": "chen_ruan.rings_built",
    "reeb.mclean_discrepancy": "reeb.discrepancy_calls",
    "spans.composition_check": "spans.composition_checks",
}
# Sum of the size recorded with spans of this name.
VALUE_METRICS = {
    "groups.classes": "groups.class_count",
    "chen_ruan.twisted_sectors": "chen_ruan.sectors",
    "chen_ruan.associativity_sweep": "chen_ruan.sweep_triples",
    "reeb.families_below": "reeb.families",
    "ledger.build_ledger": "ledger.generators",
}
LAYERS = ("cli", "groups", "chen_ruan", "reeb", "ledger", "spans", "constraints")

PER_LAYER = (
    [("cli.startup_s", "s"), ("cli.import_s", "s"), ("cli.process_s", "s"),
     ("cli.digest_s", "s"), ("cli.emit_s", "s"), ("cli.cache_load_s", "s"),
     ("cli.cache_store_s", "s"), ("cli.cache_bytes", "B"), ("cli.cache_hits", "count"),
     ("cli.cache_misses", "count")]
    + [("groups.parse_s", "s"), ("groups.enumerate_s", "s"), ("groups.mult_table_s", "s"),
       ("groups.order", "count"), ("groups.eigen_s", "s"), ("groups.eigen_calls", "count"),
       ("groups.classes_s", "s"), ("groups.class_count", "count"), ("groups.isolated_s", "s")]
    + [("cyclotomic.mul_calls", "count"), ("cyclotomic.add_calls", "count"),
       ("cyclotomic.inverse_calls", "count"), ("cyclotomic.mul_per_s.N12", "1/s"),
       ("cyclotomic.mul_per_s.N60", "1/s"), ("cyclotomic.mul_per_s.N500", "1/s")]
    + [("chen_ruan.sectors", "count"), ("chen_ruan.rings_built", "count"),
       ("chen_ruan.build_ring_s", "s"), ("chen_ruan.sweep_s", "s"),
       ("chen_ruan.sweep_triples", "count")]
    + [("reeb.families_below_s", "s"), ("reeb.families", "count"), ("reeb.discrepancy_s", "s"),
       ("reeb.discrepancy_calls", "count"), ("ledger.build_s", "s"),
       ("ledger.generators", "count"), ("ledger.check_s", "s")]
    + [("spans.battery_s", "s"), ("spans.trials_per_s", "1/s"),
       ("spans.composition_checks", "count"), ("spans.composition_check_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "frac")]
    + [(f"acceptance.c{i:02d}_frac", "frac") for i in range(1, 11)]
)


def layer_metrics(record: Record) -> dict[str, float]:
    """Per-layer contributions of one traced query.  Self times of all
    layers add up to the query's wall time: whatever the child's spans do
    not cover (interpreter start, wrapper installation, exit) is
    cli.process_s and belongs to the cli layer."""
    out = defaultdict(float)
    spans = record.trace["spans"]
    dur = [s[2] - s[1] for s in spans]
    covered = [0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
            children[s[3]].append(i)
    own = [(d - c) / 1e9 for d, c in zip(dur, covered)]
    top = sum(d for s, d in zip(spans, dur) if s[3] < 0) / 1e9
    process = record.child.wall_s - top
    out["cli.process_s"] = process
    out["cli.self_s"] = process
    battery_inclusive = 0.0
    for i, (name, _, _, _, value) in enumerate(spans):
        out[f"{name.split('.')[0]}.self_s"] += own[i]
        if name in SELF_METRICS:
            out[SELF_METRICS[name]] += own[i]
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] += 1
        if name in VALUE_METRICS:
            out[VALUE_METRICS[name]] += value or 0
        if name == "spans.random_composition_battery":
            out["spans.trials"] += value
            battery_inclusive += dur[i] / 1e9
        if name == "cli._load_group":
            kids = {spans[k][0]: k for k in children[i]}
            out["groups.order"] += value["order"]
            if "groups.enumerate_group" in kids:
                out["cli.cache_misses"] += 1
                inner = kids.get("groups.serialize_enumerated")
                out["cli.cache_store_s"] += own[i] + (own[inner] if inner is not None else 0)
            else:
                out["cli.cache_hits"] += 1
                out["cli.cache_bytes"] += value["bytes"]
                inner = kids.get("groups.load_enumerated")
                out["cli.cache_load_s"] += own[i] + (own[inner] if inner is not None else 0)
    out["spans.battery_inclusive_s"] = battery_inclusive
    for key, count in record.trace["counts"].items():
        out[f"cyclotomic.{key}_calls"] += count
    return out


def self_breakdown(record: Record) -> str:
    m = layer_metrics(record)
    parts = sorted(((m[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
    return ", ".join(f"{layer} {t:.3f}s" for t, layer in parts if t > 0.0005)


def acceptance_fracs(runner: Runner) -> dict[str, float]:
    env = dict(runner.env)
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH), env["PYTHONPATH"]])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = runner.spawn(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-s",
         "-p", "no:cacheprovider", "-p", "acceptance_probe"],
        env=env, timeout=120,
    )
    found = re.findall(rb"\[acceptance-probe (\d+)\] (\S+) (\S+)", child.stdout)
    fracs = {f"acceptance.c{int(n):02d}_frac": float(e) / float(b) for n, e, b in found}
    if len(fracs) != 10:
        raise BenchError(f"acceptance readout incomplete: {child.stdout.decode()[-500:]}")
    verdict = "all pass" if child.exit == 0 else f"pytest exit {child.exit}"
    print(f"acceptance: {verdict} in {child.wall_s:.2f}s")
    return fracs


def per_layer(runner: Runner, untraced, traced, seed) -> dict[str, tuple[float, str]]:
    totals = defaultdict(float)
    for r in traced:
        if r.trace is None:
            r.failure = r.failure or "the traced child wrote no spans"
            continue
        for key, value in layer_metrics(r).items():
            totals[key] += value
    traced_wall = sum(r.child.wall_s for r in traced)
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead_frac"] = traced_wall / sum(r.child.wall_s for r in untraced) - 1
    if totals["spans.battery_inclusive_s"]:
        totals["spans.trials_per_s"] = totals["spans.trials"] / totals["spans.battery_inclusive_s"]

    startup = [runner.orbifill(["--version"]) for _ in range(STARTUP_REPEATS)]
    if any(c.exit != 0 for c in startup):
        raise BenchError("orbifill --version failed")
    totals["cli.startup_s"] = statistics.median(c.wall_s for c in startup)

    probe = runner.spawn([sys.executable, str(BENCH / "kernel_probe.py"), "--seed", str(seed)])
    if probe.exit != 0:
        raise BenchError(f"kernel probe failed: {probe.stderr.decode()[-300:]}")
    for n, value in json.loads(probe.stdout).items():
        totals[f"cyclotomic.mul_per_s.N{n}"] = value
    totals.update(acceptance_fracs(runner))

    layer_sum = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    print(f"layer self times sum to {layer_sum:.3f}s of {traced_wall:.3f}s traced wall; "
          f"untraced wall {traced_wall / (1 + totals['trace.overhead_frac']):.3f}s")
    for r in sorted(traced, key=lambda r: -r.child.wall_s)[:3]:
        if r.trace is not None:
            print(f"  {r.query.key} ({r.child.wall_s:.3f}s): {self_breakdown(r)}")
    for r in traced:
        if r.query.key == "cr ring @BD192" and r.trace is not None:
            m = layer_metrics(r)
            share = m["groups.eigen_s"] + m["groups.classes_s"]
            print(f"  cr ring BD192: eigen + classes self time {share:.3f}s "
                  f"= {share / r.child.wall_s:.1%} of its {r.child.wall_s:.3f}s")
    return {name: (totals.get(name, 0.0), unit) for name, unit in PER_LAYER}


# -- entry points ----------------------------------------------------------------


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "orbifill" / "cli.py").is_file() or not (root / "samples").is_dir():
        raise BenchError(f"{root} holds no orbifill sources (src/orbifill, samples/)")
    if not GOLDENS.is_file():
        raise BenchError("goldens.json is missing; record it with --record-goldens")
    goldens = json.loads(GOLDENS.read_text())
    begin = time.perf_counter()
    runner = Runner(root)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    try:
        setup_times = [runner.setup() for _ in range(SETUP_REPEATS)]
        queries = corpus.pass_order(corpus.WORKLOADS[args.workload](args.seed), args.seed)
        if args.trace:
            (untraced, traced), _ = runner.run_passes(queries, (False, True))
            records = untraced + traced
        else:
            records = []
            deadline = time.perf_counter() + args.seconds
            while True:
                (recs,), seconds = runner.run_passes(queries)
                records += recs
                now = time.perf_counter()
                if now + seconds > deadline or now + seconds > begin + RUN_BUDGET_S:
                    break
        for r in records:
            r.failure = r.failure or check(r.query, r.child.exit, r.child.stdout, goldens)
        if args.trace:
            metrics = per_layer(runner, untraced, traced, args.seed)
            notes = {}
        else:
            metrics, notes = end_to_end(records, setup_times)
            raw, _ = end_to_end(records, setup_times, scaled=False)
            for name, (value, unit) in raw.items():
                if name != "peak_rss_mb":
                    notes[name] = "; ".join(filter(None, [notes.get(name), f"raw {value:.6g} {unit}"]))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    failed = [r for r in records if r.failure]
    for r in failed[:5]:
        print(f"FAILED {r.query.key}: {r.failure}")
    # Self-test: a wrong exit code and a perturbed stdout must both count.
    sample = records[0]
    caught = sum(
        check(sample.query, code, out, goldens) is not None
        for code, out in ((sample.child.exit + 1, sample.child.stdout),
                          (sample.child.exit, perturb(sample.child.stdout)))
    )
    print(f"self-test: {caught} of 2 perturbed outputs of `{sample.query.key}` counted as failed")
    print(f"failed_frac {len(failed) / len(records):.6g} ({len(failed)} of {len(records)})")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    return {
        "correct": not failed and caught == 2,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def record_goldens():
    """Run every non-seeded query cold and warm; both outputs must agree
    and pass their invariants before they become the golden."""
    root = Path.cwd()
    runner = Runner(root)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    goldens = {}
    try:
        runner.setup()
        for name, build in corpus.WORKLOADS.items():
            for query in build(0):
                if query.seeded or query.key in goldens:
                    continue
                cache = runner.work / "golden-cache"
                shutil.rmtree(cache, ignore_errors=True)
                first, second = (runner.orbifill(runner.argv(query, cache)) for _ in range(2))
                why = check(query, first.exit, first.stdout, None)
                if why or (second.exit, second.stdout) != (first.exit, first.stdout):
                    raise BenchError(f"{query.key}: {why or 'cold and warm outputs differ'}")
                goldens[query.key] = {"exit": first.exit, "bytes": len(first.stdout),
                                      "sha256": hashlib.sha256(first.stdout).hexdigest()}
                print(f"{name}: {query.key} ({first.wall_s:.2f}s)", flush=True)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_goldens:
            record_goldens()
            return
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
