"""Fixed group corpus and the query lists of the four benchmark workloads.

Every group of the corpus is monomial: each generator has one nonzero entry
per row and column, and that entry is +-zeta_N^k.  write_corpus renders such
generators as group documents in the cyclotomic literal grammar, and the
set-up check reads the written documents back into an independent monomial
model (integer permutations and exponents, no orbifill code), closes it
under multiplication and counts its conjugacy classes, comparing both with
the closed forms |mu_k| = k, |BD_4m| = 4m (m + 3 classes), |Q8 x mu_k| = 8k
(5k classes) and so on.

A query is one `orbifill` invocation.  Each carries the exit code it must
end with and the invariants its JSON output must satisfy; `run.py` also
compares its stdout with the golden recorded in `goldens.json`.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Off-spectrum values for `reeb report --bound` and `ledger build --slope`:
# the denominator 101 is a prime above every element order the ring and
# small workloads meet, so no family period equals them.  The CLI default
# bound 3 is a period of mu_60 and exits 2.
BOUND = "304/101"
SLOPE = "203/101"


@dataclass(frozen=True)
class GroupSpec:
    """A corpus group: its document and the closed forms it must meet."""

    name: str
    dimension: int
    conductor: int
    # Each generator as (column of each row, (sign, exponent) of each row):
    # row i has entry sign * zeta_N^exponent in column perm[i].
    generators: tuple
    order: int
    classes: int

    def document(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "conductor": self.conductor,
            "generators": [
                [
                    [
                        _literal(entries[i], self.conductor) if perm[i] == j else "0"
                        for j in range(self.dimension)
                    ]
                    for i in range(self.dimension)
                ]
                for perm, entries in self.generators
            ],
        }


def _literal(entry, conductor) -> str:
    sign, k = entry
    k %= conductor
    if k == 0:
        return "1" if sign > 0 else "-1"
    if k == 1 and sign > 0:
        return "z"
    return f"{sign}*z^{k}"


def _diag(*entries):
    return (tuple(range(len(entries))), tuple(entries))


_J = ((1, 0), ((1, 0), (-1, 0)))  # [[0, 1], [-1, 0]]


def scalar_cyclic(k, n=2) -> GroupSpec:
    return GroupSpec(f"mu{k}" if n == 2 else f"mu{k}_dim{n}", n, k,
                     (_diag(*[(1, 1)] * n),), k, k)


def a_type(k) -> GroupSpec:
    return GroupSpec(f"A{k - 1}", 2, k, (_diag((1, 1), (1, k - 1)),), k, k)


def antipodal(n) -> GroupSpec:
    return GroupSpec(f"antipodal{n}", n, 2, (_diag(*[(-1, 0)] * n),), 2, 2)


def quaternion() -> GroupSpec:
    return GroupSpec("Q8", 2, 4, (_diag((1, 1), (-1, 1)), _J), 8, 5)


def binary_dihedral(m) -> GroupSpec:
    return GroupSpec(f"BD{4 * m}", 2, 2 * m,
                     (_diag((1, 1), (1, 2 * m - 1)), _J), 4 * m, m + 3)


def times_scalars(base: GroupSpec, k: int) -> GroupSpec:
    """Wolf-type free action G x mu_k in U(2), for k odd and prime to |G|'s
    eigenvalue orders: the base generators with the scalar zeta_k added."""
    n = math.lcm(base.conductor, k)
    scale = n // base.conductor
    gens = tuple(
        (perm, tuple((s, e * scale) for s, e in entries)) for perm, entries in base.generators
    )
    scalar = _diag(*[(1, n // k)] * base.dimension)
    return GroupSpec(f"{base.name}xmu{k}", base.dimension, n, gens + (scalar,),
                     base.order * k, base.classes * k)


# -- independent monomial model -------------------------------------------------

_LITERAL = re.compile(r"^(-?)(?:1\*)?z(?:\^(\d+))?$")


def _parse_entry(text: str, conductor: int):
    """(sign, exponent) of a literal +-1, +-z^k or +-1*z^k; None for 0."""
    text = text.replace(" ", "")
    if text == "0":
        return None
    if text in ("1", "-1"):
        return (int(text), 0)
    m = _LITERAL.match(text)
    if not m:
        raise ValueError(f"literal {text!r} is not a signed root of unity")
    return (-1 if m.group(1) else 1, int(m.group(2) or 1) % conductor)


def monomial_generators(doc: dict):
    """Generators of a document as (perm, exponents mod 2N) with entry
    zeta_2N^e in column perm[i] of row i; -1 is zeta_2N^N."""
    n, cond = doc["dimension"], doc["conductor"]
    out = []
    for mat in doc["generators"]:
        perm, exps = [], []
        for row in mat:
            nonzero = [(j, _parse_entry(x, cond)) for j, x in enumerate(row)]
            nonzero = [(j, e) for j, e in nonzero if e is not None]
            if len(nonzero) != 1:
                raise ValueError("generator is not monomial")
            j, (sign, k) = nonzero[0]
            perm.append(j)
            exps.append((2 * k + (cond if sign < 0 else 0)) % (2 * cond))
        if sorted(perm) != list(range(n)):
            raise ValueError("generator is not monomial")
        out.append((tuple(perm), tuple(exps)))
    return out, 2 * cond


def order_and_class_count(doc: dict) -> tuple[int, int]:
    """Closure order and number of conjugacy classes of the monomial model."""
    gens, mod = monomial_generators(doc)
    n = doc["dimension"]

    def mul(a, b):
        pa, ea = a
        pb, eb = b
        return (tuple(pb[pa[i]] for i in range(n)),
                tuple((ea[i] + eb[pa[i]]) % mod for i in range(n)))

    def inv(a):
        pa, ea = a
        p = [0] * n
        e = [0] * n
        for i in range(n):
            p[pa[i]] = i
            e[pa[i]] = -ea[i] % mod
        return (tuple(p), tuple(e))

    identity = (tuple(range(n)), (0,) * n)
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    conj = [(g, inv(g)) for g in gens]
    unvisited = set(seen)
    classes = 0
    while unvisited:
        classes += 1
        stack = [unvisited.pop()]
        while stack:
            x = stack.pop()
            for g, gi in conj:
                y = mul(mul(g, x), gi)
                if y in unvisited:
                    unvisited.remove(y)
                    stack.append(y)
    return len(seen), classes


# -- corpus ----------------------------------------------------------------------

# The group documents under samples/ with their closed forms; the fourth
# sample, span_pair.json, is a span document.
SAMPLES = {"sample-a3": (4, 4), "sample-antipodal2": (2, 2), "sample-quaternion": (8, 5)}
SPAN_SAMPLE = "samples/span_pair.json"
# Each group sample has the same canonical document, so the same cache
# entry, as a battery group; write_corpus checks this.
SAME_DOCUMENT = {"sample-a3": "A3", "sample-antipodal2": "antipodal2",
                 "sample-quaternion": "Q8"}


def small_groups() -> list[GroupSpec]:
    """The order <= 24 documents of the test battery."""
    return (
        [scalar_cyclic(k) for k in range(2, 13)]
        + [a_type(k) for k in (2, 3, 4, 5, 6, 7, 8)]
        + [antipodal(n) for n in (2, 3)]
        + [quaternion()]
        + [binary_dihedral(m) for m in (2, 3, 4, 6)]
    )


def midsize_groups() -> list[GroupSpec]:
    """Groups where classes, eigen data and the ring dominate, including the
    Wolf-type free actions whose twisted sectors really multiply."""
    q8 = quaternion()
    return [
        binary_dihedral(24),
        scalar_cyclic(60),
        a_type(60),
        scalar_cyclic(30, n=3),
        times_scalars(q8, 3),
        times_scalars(q8, 5),
        times_scalars(q8, 7),
        times_scalars(binary_dihedral(3), 5),
        times_scalars(q8, 9),
        times_scalars(q8, 11),
        times_scalars(binary_dihedral(3), 7),
    ]


def large_groups() -> list[tuple[GroupSpec, str]]:
    """Groups of order about 500 with the boundary each is tested against;
    three admissible and three negative answers.  At order 1000 (mu1000,
    BD1000, A999) one cold `constraints admit` took 3.4 to 6.3 s from run to
    run on a shared 2-vCPU virtual machine, and the medians of a pass spread by up to a
    quarter; six groups of order ~500 give medians over similar queries."""
    return [
        (scalar_cyclic(500), "lens:15,2"),
        (a_type(500), "brieskorn:2,3"),
        (binary_dihedral(125), "lens:15,2"),
        (times_scalars(quaternion(), 63), "lens:2,3"),
        (scalar_cyclic(512), "lens:2,3"),
        (binary_dihedral(126), "lens:15,2"),
    ]


RING_ONLY = binary_dihedral(48)


def all_specs() -> list[GroupSpec]:
    return small_groups() + midsize_groups() + [RING_ONLY] + [g for g, _ in large_groups()]


def closed_forms() -> dict[str, tuple[int, int]]:
    """name -> (order, class count) of every group document of the corpus."""
    forms = dict(SAMPLES)
    forms.update((spec.name, (spec.order, spec.classes)) for spec in all_specs())
    return forms


def write_corpus(root: Path, corpus_dir: Path) -> dict[str, str]:
    """Write every corpus document and check it against its closed forms.

    Returns name -> path relative to ``root`` for every group document the
    workloads read, samples included.  Raises ValueError on a mismatch.
    """
    corpus_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: f"samples/{name.removeprefix('sample-')}.json" for name in SAMPLES}
    for spec in all_specs():
        path = corpus_dir / f"{spec.name}.json"
        path.write_text(json.dumps(spec.document(), indent=1))
        paths[spec.name] = str(path.relative_to(root))
    for name, form in closed_forms().items():
        found = order_and_class_count(json.loads((root / paths[name]).read_text()))
        if found != form:
            raise ValueError(
                f"corpus group {name}: order and class count {found} differ from the "
                f"closed form {form}"
            )
    for sample, twin in SAME_DOCUMENT.items():
        docs = [json.loads((root / paths[n]).read_text()) for n in (sample, twin)]
        a, b = ([d["name"], d["dimension"], monomial_generators(d)] for d in docs)
        if a != b:
            raise ValueError(f"{paths[sample]} is not the document of {twin}")
    return paths


# -- queries -----------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One orbifill invocation.

    An argument ``@name`` stands for the path of corpus group ``name``; the
    runner substitutes it and appends ``--format json`` and a per-pass
    ``--cache-dir``.  ``checks`` name invariants that run.py applies to the
    JSON output; ``expected`` holds the closed-form values they compare with.
    """

    args: tuple[str, ...]
    expect_exit: int = 0
    checks: tuple[str, ...] = ()
    expected: tuple = ()  # (key, value) pairs
    seeded: bool = False  # output depends on the workload seed: no golden

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(a[1:] for a in self.args if a.startswith("@"))


def group_query(kind: str, name: str) -> Query:
    order, classes = closed_forms()[name]
    expected = (("order", order), ("classes", classes))
    g = "@" + name
    args, check = {
        "group-info": (("group", "info", g), "class_sizes"),
        "cr-ring": (("cr", "ring", g), "ring_associative"),
        "cr-sectors": (("cr", "sectors", g), "sector_count"),
        "cr-pairing": (("cr", "pairing", g), "pairing"),
        "cr-filling": (("cr", "filling", "--betti", "1", "--singularity", g), "filling_rank"),
        "reeb-report": (("reeb", "report", g, "--bound", BOUND), "components"),
        "ledger-build": (("ledger", "build", g, "--slope", SLOPE), "forced_differential"),
    }[kind]
    return Query(args, 0, (check,), expected)


def admit_query(name: str, boundary: str) -> Query:
    """`constraints admit`, expected to exit 1 when |G| misses a divisor."""
    order = closed_forms()[name][0]
    kind, _, rest = boundary.partition(":")
    if kind == "subcritical":
        divisors = [1]
    else:
        k, n = (int(x) for x in rest.split(","))
        if kind == "lens":
            divisors = [math.factorial(k)] + ([k**n] if k < n else [])
        else:  # brieskorn with k < n
            squarefree = all(k % (d * d) for d in range(2, k + 1))
            refined = 2 * k < n + 1 or (2 * k == n + 1 and squarefree)
            divisors = [math.factorial(k)] + ([math.factorial(k - 1)] if refined else [])
    ok = all(d % order == 0 for d in divisors)
    return Query(("constraints", "admit", "@" + name, "--boundary", boundary),
                 0 if ok else 1, ("admit",), (("order", order), ("admissible", ok)))


SMALL_KINDS = ("group-info", "cr-ring", "cr-sectors", "cr-pairing", "cr-filling",
               "reeb-report", "ledger-build", "constraints-admit")
SMALL_BOUNDARIES = ("lens:2,3", "lens:7,2", "brieskorn:2,3", "subcritical:3")


def cli_small() -> list[Query]:
    """Two queries per small group document, the kinds taken in rotation,
    plus the queries that read no group document."""
    names = [g.name for g in small_groups()] + list(SAMPLES)
    queries = []
    for i, name in enumerate(names):
        for t in range(2):
            kind = SMALL_KINDS[(2 * i + t) % len(SMALL_KINDS)]
            if kind == "constraints-admit":
                queries.append(admit_query(name, SMALL_BOUNDARIES[i % len(SMALL_BOUNDARIES)]))
            else:
                queries.append(group_query(kind, name))
    queries += [Query(("constraints", "boundary", b)) for b in ("lens:2,3", "brieskorn:3,7")]
    queries.append(Query(("span", "check", SPAN_SAMPLE), 0, ("span_equal",)))
    return queries


RING_KINDS = ("group-info", "cr-ring", "reeb-report", "ledger-build")
# Fewer kinds on the groups where one query costs a second or more, to keep
# a pass near 25 s.  The last three Wolf-type groups add cold samples, so
# that the cold median falls among similar queries.
RING_KINDS_BY_GROUP = {"mu60": ("cr-ring",), "A59": ("cr-ring",),
                       "mu30_dim3": ("group-info", "cr-ring"),
                       "Q8xmu9": ("group-info", "cr-ring"),
                       "Q8xmu11": ("group-info", "cr-ring"),
                       "BD12xmu7": ("group-info", "cr-ring")}


def ring_midsize() -> list[Query]:
    """All four kinds on the groups of order <= 96; `cr ring` alone on the
    groups where one query costs seconds (mu60, A59, BD192)."""
    queries = []
    for spec in midsize_groups():
        kinds = RING_KINDS_BY_GROUP.get(spec.name, RING_KINDS)
        queries += [group_query(kind, spec.name) for kind in kinds]
    queries.append(group_query("cr-ring", RING_ONLY.name))
    return queries


def large_order() -> list[Query]:
    """Each group four times: the first run of a pass fills the cache, the
    other three read it.  With 24 samples the tail (see run.tail) lies above
    the median."""
    return [q for spec, boundary in large_groups() for q in [admit_query(spec.name, boundary)] * 4]


SPAN_TRIALS = 150
SPAN_QUERIES = 30


def span_battery(seed: int) -> list[Query]:
    return [
        Query(("span", "random", "--trials", str(SPAN_TRIALS), "--seed", str(s)), 0,
              ("span_battery",), (("trials", SPAN_TRIALS), ("seed", s)), seeded=True)
        for s in range(seed * SPAN_QUERIES, (seed + 1) * SPAN_QUERIES)
    ]


WORKLOADS = {
    "cli-small": lambda seed: cli_small(),
    "ring-midsize": lambda seed: ring_midsize(),
    "large-order": lambda seed: large_order(),
    "span-battery": span_battery,
}


def pass_order(queries: list[Query], seed: int) -> list[Query]:
    """A seeded shuffle in which each group's first query in the workload
    list is moved to that group's earliest slot, so the same kind of query
    always meets the empty cache."""
    out = list(queries)
    random.Random(seed).shuffle(out)
    first_slot = {}
    for pos, q in enumerate(out):
        for g in q.groups:
            first_slot.setdefault(g, pos)
    for g, pos in first_slot.items():
        want = next(q for q in queries if g in q.groups)
        cur = next(i for i, q in enumerate(out) if q is want)
        out[pos], out[cur] = out[cur], out[pos]
    return out
