"""Traced orbifill child process.

    python3 bench/tracer.py OUT.json -- <orbifill arguments>

Imports ``orbifill.cli`` (timed as the span ``cli.import``), wraps the public
functions that ``orbifill.cli`` imports from the other modules, a few of
their internal callees, ``cli._load_group`` and ``cli._emit``, the
``FiniteUnitaryGroup`` members ``classes``, ``mult_table``,
``eigen_multiplicities`` and ``is_isolated_singularity``, and counts calls of
``CyclotomicNumber`` multiplication, addition and inversion.  It then calls
``orbifill.cli.main`` with the same arguments, so the traced path is the
untraced one, and exits with its exit code.

Each span is ``[name, start_ns, end_ns, parent, value]``: ``parent`` indexes
the enclosing span (-1 at the top) and ``value`` carries a size such as the
number of sectors a ring has.  Spans stay in memory and are written to
OUT.json when ``main`` returns, with ``start_ns`` taken before any import;
``time.perf_counter_ns`` reads the monotonic clock the parent also reads.
Nothing under ``src/`` changes.
"""

import time

START_NS = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"mul": 0, "add": 0, "inverse": 0}

    def span(self, name, fn, skip=None, value=None):
        """Wrap ``fn`` so each call records a span, unless ``skip(*args)``
        says the call only returns a memoised result."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    rec[4] = value(result, *args)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper


def _sweep_triples(result, ring):
    passes, counterexample = result
    count = ring.sector_count()
    if passes:
        return count**3
    a, b, c = counterexample["triple"]
    return (a * count + b) * count + c + 1


def _load_value(result, path, max_order, cache_dir):
    from orbifill.cli import _default_cache_dir

    group, digest = result
    cache_file = Path(cache_dir or _default_cache_dir()) / f"{digest}.json"
    size = cache_file.stat().st_size if cache_file.exists() else 0
    return {"order": group.order, "bytes": size}


# Sizes recorded with a span, by span name.
VALUES = {
    "chen_ruan.twisted_sectors": lambda r, *a: len(r),
    "chen_ruan.build_ring": lambda r, *a: r.sector_count(),
    "chen_ruan.associativity_sweep": _sweep_triples,
    "reeb.families_below": lambda r, *a: len(r),
    "ledger.build_ledger": lambda r, *a: len(r.generators),
    "spans.random_composition_battery": lambda r, *a: r["trials"],
    "cli._load_group": _load_value,
}

# Internal callees traced besides the names orbifill.cli imports.
INTERNAL = {"chen_ruan": ("build_ring", "associativity_sweep")}

# Replaced only in orbifill.cli: inside groups it is part of the digest.
CLI_ONLY = {"canonical_document"}


def install(tracer, cli):
    import orbifill
    from orbifill import cyclotomic, groups

    modules = [m for m in vars(orbifill).values() if isinstance(m, types.ModuleType)]
    modules = [m for m in modules if m.__name__.startswith("orbifill.")] + [cli]
    targets = {}
    for attr, fn in vars(cli).items():
        mod = getattr(fn, "__module__", "") or ""
        if isinstance(fn, types.FunctionType) and mod.startswith("orbifill.") and mod != cli.__name__:
            targets[fn] = f"{mod.split('.', 1)[1]}.{fn.__name__}"
    for short, names in INTERNAL.items():
        mod = sys.modules[f"orbifill.{short}"]
        for attr in names:
            targets[getattr(mod, attr)] = f"{short}.{attr}"
    for fn, name in targets.items():
        wrapped = tracer.span(name, fn, value=VALUES.get(name))
        for mod in modules:
            if fn.__name__ in CLI_ONLY and mod is not cli:
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    setattr(mod, attr, wrapped)
    for attr in ("_load_group", "_emit"):
        setattr(cli, attr, tracer.span(f"cli.{attr}", getattr(cli, attr),
                                       value=VALUES.get(f"cli.{attr}")))

    G = groups.FiniteUnitaryGroup
    G.classes = property(tracer.span("groups.classes", G.classes.fget,
                                     skip=lambda g: g._classes is not None,
                                     value=lambda r, g: len(r)))
    G.mult_table = property(tracer.span("groups.mult_table", G.mult_table.fget,
                                        skip=lambda g: g._mult_table is not None))
    G.eigen_multiplicities = tracer.span("groups.eigen_multiplicities", G.eigen_multiplicities,
                                         skip=lambda g, i: i in g._eigen)
    G.is_isolated_singularity = tracer.span("groups.is_isolated_singularity",
                                            G.is_isolated_singularity,
                                            skip=lambda g: g._isolated is not None)

    C = cyclotomic.CyclotomicNumber
    C.__mul__ = C.__rmul__ = tracer.counter("mul", C.__mul__)
    C.__add__ = C.__radd__ = tracer.counter("add", C.__add__)
    C.inverse = tracer.counter("inverse", C.inverse)


def main():
    out_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <orbifill arguments>")
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    import orbifill.cli as cli

    tracer.spans.append(["cli.import", t0, time.perf_counter_ns(), -1, None])
    install(tracer, cli)
    sys.argv = ["orbifill", *args]
    code = 0
    try:
        tracer.span("cli.main", cli.main)()
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdout.flush()
        end = time.perf_counter_ns()
        Path(out_path).write_text(json.dumps(
            {"start_ns": START_NS, "end_ns": end, "spans": tracer.spans,
             "counts": tracer.counts}))
    sys.exit(code)


if __name__ == "__main__":
    main()
