"""Command-line frontend: document I/O and report rendering.

Each query parses its group document once and enumerates the group from it;
nothing is cached between runs.

JSON output is the machine contract and is byte-deterministic for fixed
inputs, flags, and seed; table output is for humans and carries no stability
guarantee. Exit codes: 0 success, 1 domain-negative result, 2 input error,
3 internal invariant violation or any other exception.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__
from .chen_ruan import (
    CupConvention,
    choose_ring,
    cr_of_filling,
    cr_pairing_check,
    sector_report,
    twisted_sectors,
)
from .coefficients import CoefficientRing
from .constraints import (
    BoundaryDescriptor,
    admissible,
    constraint_for_boundary,
    rp_report,
)
from .errors import (
    InputError,
    InternalInconsistency,
    NonIsolated,
    NotApplicable,
    excerpt,
    integer,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    canonical_document,
    document_digest,
    enumerate_group,
    parse_group,
    read_json,
)
from .ledger import build_ledger, check_ledger, family_name, known_differentials, sh_vanishing
from .reeb import families_below, loop_components, mclean_discrepancy
from .spans import (
    BATTERY_MAX_ORDER,
    MAX_TRIALS,
    composition_check,
    pushpull,
    random_composition_battery,
    span_from_document,
)

EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _metadata(digest=None, seed=None, conventions=None):
    meta = {"tool": "orbifill", "version": __version__}
    if digest is not None:
        meta["input_digest"] = digest
    if seed is not None:
        meta["seed"] = seed
    meta["conventions"] = {"period_unit": "2*pi", **(conventions or {})}
    return meta


def _echo(text: str):
    """Write one stderr line, an error or the sweep verdict, and its newline in one
    write, then flush. print() writes the newline apart, and on an unbuffered stream
    that second write fails if the reader closed the pipe after the line."""
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def _emit(report: dict, fmt: str):
    (_write_json if fmt == "json" else _write_table)(report, sys.stdout)


_CHUNK = 4096  # pieces of JSON text, or table lines, joined into one write


def _write_json(value, stream):
    """Write json.dumps(value, sort_keys=True, indent=2) and a newline to
    ``stream`` in writes of about _CHUNK pieces, an iterator as a list read
    an item at a time. Values other than dicts, lists, tuples, iterators,
    str, int, bool and None, and keys other than str, raise TypeError."""
    parts = []
    append = parts.append

    def write(value, indent):
        if isinstance(value, str):
            append(_quote(value))
        elif value is None:
            append("null")
        elif isinstance(value, int):
            append("true" if value is True else "false" if value is False else int.__repr__(value))
        elif isinstance(value, dict):
            inner, sep = indent + "  ", "{"
            for key in sorted(value):  # _quote raises TypeError on a non-str key
                append(f"{sep}{inner}{_quote(key)}: ")
                write(value[key], inner)
                sep = ","
            append(indent + "}" if sep == "," else "{}")
        elif isinstance(value, (list, tuple, Iterator)):
            inner, sep = indent + "  ", "["
            for item in value:
                append(sep + inner)
                write(item, inner)
                sep = ","
                if len(parts) >= _CHUNK:
                    stream.write("".join(parts))
                    parts.clear()
            append(indent + "]" if sep == "," else "[]")
        else:
            raise TypeError(f"{type(value).__name__} is not JSON serializable")

    write(value, "\n")
    stream.write("".join(parts) + "\n")
    stream.flush()


def _write_table(value, stream):
    """Write the dict ``value`` to ``stream`` as ``key: value`` and ``- item`` lines
    in writes of about _CHUNK lines. A dict value nests two spaces deeper if a dict,
    list or iterator (read an item at a time), a list item if a dict or list."""
    lines = []
    append = lines.append

    def write(value, prefix):
        if isinstance(value, dict):
            for key, sub in value.items():
                if isinstance(sub, (dict, list, Iterator)):
                    append(f"{prefix}{key}:\n")
                    write(sub, prefix + "  ")
                else:
                    append(f"{prefix}{key}: {sub}\n")
            return
        for item in value:
            if isinstance(item, (dict, list)):
                append(f"{prefix}-\n")
                write(item, prefix + "  ")
            else:
                append(f"{prefix}- {item}\n")
            if len(lines) >= _CHUNK:
                stream.write("".join(lines))
                lines.clear()

    write(value, "")
    stream.write("".join(lines))
    stream.flush()


# (exception types, stderr prefix, exit code), matched in order by main.
_OUTCOMES = (
    ((ValueError, OSError), "error", EXIT_INPUT),  # InputError is a ValueError
    (NonIsolated, "not an isolated singularity", EXIT_NEGATIVE),
    (NotApplicable, "constraints not applicable", EXIT_NEGATIVE),
    (InternalInconsistency, "internal invariant violation", EXIT_INTERNAL),
)


class UsageError(Exception):
    """A command line that parses but asks for something its command cannot do."""


def rational(text):
    """A Fraction from an int, p/q or decimal text, else InputError, which
    quotes the text as an excerpt. Exponent notation is refused before
    Fraction expands 1eK into a K-digit int. As an argparse type it makes a
    bad value a usage error (exit 2)."""
    if "e" in text or "E" in text:
        raise InputError(f"{excerpt(text)} uses exponent notation")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"{excerpt(text)} has a zero denominator") from None
    except ValueError:
        raise InputError(f"invalid rational value: {excerpt(text)}") from None


def _quoted_path(path: str) -> str:
    """``path`` in a message: its repr up to 200 characters, else an excerpt of its end."""
    return repr(path) if len(path) <= 200 else excerpt(path, len(path))


def _document(text):
    if not os.path.exists(text):
        raise InputError(f"file {_quoted_path(text)} does not exist")
    if os.path.isdir(text):
        raise InputError(f"file {_quoted_path(text)} is a directory")
    return text


def _directory(text):
    if os.path.isfile(text):
        raise InputError(f"directory {_quoted_path(text)} is a file")
    return text


def _read(path) -> str:
    """The text of the file at ``path``, else an OSError that quotes it by _quoted_path."""
    try:
        return Path(path).read_text()
    except OSError as e:
        raise OSError(e.errno, f"{e.strerror}: {_quoted_path(str(path))}") from None


def _one_of(choices):
    """An argparse type that refuses a value outside ``choices`` with argparse's
    own message, but quoting the value by excerpt: argparse echoes it whole."""

    def choice(text):
        if text not in choices:
            raise InputError(f"invalid choice: {excerpt(text)} "
                             f"(choose from {', '.join(map(repr, choices))})")
        return text

    return choice


def _arg(*names, **kwargs):
    """The arguments of one ``add_argument`` call; ``choices`` also sets the type."""
    if "choices" in kwargs:
        kwargs["type"] = _one_of(kwargs["choices"])
    return names, kwargs


FORMAT = _arg("--format", dest="fmt", choices=["table", "json"], default="table",
              help="report rendering; json is the stable machine contract")
# Nothing is cached: --cache-dir is accepted and ignored so that existing
# invocations keep their exit codes. _default_cache_dir and the cache_dir
# parameter of _load_group stay only because bench/tracer.py reads them,
# until the benchmark retires its cache metrics.
CACHE_DIR = _arg("--cache-dir", type=_directory, help=argparse.SUPPRESS)
GROUP_OPTIONS = (
    _arg("--max-order", type=functools.partial(integer, low=1), default=DEFAULT_MAX_ORDER,
         help="abort enumeration beyond this order (default: %(default)s)"),
    CACHE_DIR,
)

# name -> (command, its add_argument calls), in the order of `orbifill --help`.
COMMANDS = {}


def _command(name, *arguments):
    """Register ``fn`` as command ``name``; ``arguments`` are its ``_arg`` calls,
    and the first line of its docstring is its summary in ``orbifill --help``.
    ``fn`` takes the parsed arguments except ``fmt`` and returns its report and
    verdict, which ``main`` renders and maps onto the exit codes."""

    def register(fn):
        COMMANDS[name] = (fn, arguments)
        return fn

    return register


def _default_cache_dir() -> str:
    return os.path.join(Path.home(), ".cache", "orbifill")


def _load_group(path, max_order, cache_dir):
    document = parse_group(_read(path))
    return enumerate_group(document, max_order), document_digest(document)


# -- group ----------------------------------------------------------------------


@_command("group", _arg("action", choices=["info", "canonical"]),
          _arg("path", type=_document), FORMAT, *GROUP_OPTIONS)
def group_cmd(action, path, max_order, cache_dir):
    """Inspect a group document: enumeration, classes, eigenvalue data."""
    if action == "canonical":
        document = parse_group(_read(path))
        return {
            "metadata": _metadata(document_digest(document)),
            "canonical": canonical_document(document),
        }, True
    group, digest = _load_group(path, max_order, cache_dir)
    isolated, witness = group.is_isolated_singularity()
    classes = []
    for cls in group.classes:
        eigen = group.eigen_multiplicities(cls.representative_index)
        classes.append(
            {
                "label": cls.label,
                "size": cls.size,
                "element_order": cls.order,
                "centralizer_order": cls.centralizer_order,
                "eigenvalue_multiplicities": {
                    str(m): mult for m, mult in sorted(eigen.multiplicities.items())
                },
            }
        )
    report = {
        "metadata": _metadata(digest),
        "name": group.name,
        "dimension": group.dimension,
        "conductor": group.conductor,
        "order": group.order,
        "isolated_singularity": isolated,
        "classes": classes,
    }
    if not isolated:
        report["witness_element"] = witness
    return report, True


# -- chen-ruan -------------------------------------------------------------------


@_command(
    "cr",
    _arg("action", choices=["ring", "sectors", "pairing", "filling"]),
    _arg("path", nargs="?", type=_document),
    _arg("--convention", choices=[c.value for c in CupConvention],
         help="cup-product summation convention; default picks one that passes associativity"),
    _arg("--betti", default="1", help="comma-separated Betti numbers of the space"),
    _arg("--singularity", dest="singularities", action="append", default=[], type=_document,
         help="group document of an isolated singularity (repeatable)"),
    _arg("--coefficient", default="Q", help="coefficient ring: Q, Z, or Z/m"),
    FORMAT,
    *GROUP_OPTIONS,
)
def cr_cmd(action, path, convention, betti, singularities, coefficient, max_order, cache_dir):
    """Chen-Ruan data: sectors, ring structure, pairing, filling ranks."""
    if action == "filling":
        ring_desc = CoefficientRing.parse(coefficient)
        loaded = [_load_group(spath, max_order, cache_dir) for spath in singularities]
        betti = tuple(integer(b, name="argument --betti") for b in betti.split(","))
        ranks = cr_of_filling(betti, tuple(group for group, _ in loaded))
        return {
            "metadata": _metadata(",".join(digest for _, digest in loaded) or None),
            "coefficient": ring_desc.describe(),
            "ranks_by_degree": {str(d): r for d, r in ranks.items()},
            "total_rank": sum(ranks.values()),
        }, True
    if path is None:
        raise UsageError("a group document is required")
    group, digest = _load_group(path, max_order, cache_dir)
    if action == "sectors":
        sectors = twisted_sectors(group)
        return {
            "metadata": _metadata(digest),
            "sectors": [
                {
                    "label": s.label,
                    "age": str(s.age),
                    "degree": str(s.degree),
                    "centralizer_order": s.centralizer_order,
                }
                for s in sectors
            ],
            "total_rank": len(sectors),
        }, True
    if action == "pairing":
        report = cr_pairing_check(group)
        return {"metadata": _metadata(digest), **report}, report["all_pass"]
    wanted = CupConvention(convention) if convention else None
    ring, sweeps = choose_ring(group, wanted)
    report = sector_report(ring, sweeps[ring.convention.value])
    report["associativity_sweep"] = {c: ok for c, (ok, _) in sweeps.items()}
    verdicts = []
    for name, (ok, counterexample) in sweeps.items():
        if ok:
            verdicts.append(f"{name} passes")
        else:
            triple = ", ".join(ring.sectors[p].label for p in counterexample["triple"])
            verdicts.append(f"{name} fails at ({triple})")
    how = "requested" if wanted else "chosen by sweep"
    _echo(f"associativity sweep: {'; '.join(verdicts)}; using {ring.convention.value} ({how})")
    return {
        "metadata": _metadata(digest, conventions={"cup_product": ring.convention.value}),
        **report,
    }, True


# -- reeb ------------------------------------------------------------------------


@_command("reeb", _arg("action", choices=["report", "discrepancy", "components"]),
          _arg("path", type=_document),
          _arg("--bound", type=rational,
               help="period bound for 'report' (rational, units of 2*pi, off the spectrum)"),
          FORMAT, *GROUP_OPTIONS)
def reeb_cmd(action, path, bound, max_order, cache_dir):
    """Reeb orbit families, indices, discrepancy, loop components."""
    # No bound can be the default: the untwisted class has every positive
    # integer as a period, and any bound may be on another class's spectrum.
    if action == "report" and bound is None:
        raise UsageError("'report' requires --bound")
    group, digest = _load_group(path, max_order, cache_dir)
    if action == "components":
        return {"metadata": _metadata(digest), "components": loop_components(group)}, True
    if action == "discrepancy":
        disc, verdict = mclean_discrepancy(group)
        return {
            "metadata": _metadata(digest),
            "minimal_discrepancy": str(disc),
            "verdict": verdict,
        }, True
    families = families_below(group, bound, option="--bound")
    discrepancy = None
    if group.order != 1:
        disc, verdict = mclean_discrepancy(group)
        discrepancy = {"minimal_discrepancy": str(disc), "verdict": verdict}
    return {
        "metadata": _metadata(digest),
        "bound": str(bound),
        "families": (
            {
                "class": f.class_label,
                "period": str(f.period),
                "fixed_dim": f.fixed_dim,
                "cz_index": str(f.cz_index),
                "homotopy_class": f.homotopy_class,
            }
            for f in families
        ),
        "discrepancy": discrepancy,
        "components": loop_components(group),
    }, True


# -- ledger ----------------------------------------------------------------------


def _parse_profiles(specs):
    profiles = {}
    for spec in specs:
        head, _, tail = spec.partition("=")
        label, _, period = head.partition(":")
        if not tail or not period:
            raise InputError(f"profile {excerpt(spec)} must look like CLASS:PERIOD=idx,idx,...")
        key = (label, rational(period))
        if key in profiles:
            raise InputError(f"two cell profiles for the family {family_name(*key)}")
        profiles[key] = tuple(integer(i, name="argument --profile") for i in tail.split(","))
    return profiles


@_command(
    "ledger",
    _arg("action", choices=["build"]),
    _arg("path", type=_document),
    _arg("--slope", type=rational, required=True, help="Hamiltonian slope (rational, off the spectrum)"),
    _arg("--profile", dest="profiles", action="append", default=[],
         help="Morse cell profile per family, e.g. 'Id:1=0,3' (default: min and top cell)"),
    _arg("--coefficient", default="Q", help="coefficient ring for the vanishing verdict"),
    FORMAT,
    *GROUP_OPTIONS,
)
def ledger_cmd(action, path, slope, profiles, coefficient, max_order, cache_dir):
    """Assemble the generator ledger at a slope, with forced differentials."""
    group, digest = _load_group(path, max_order, cache_dir)
    ring = CoefficientRing.parse(coefficient)
    ledger = build_ledger(group, slope, _parse_profiles(profiles))
    entries = known_differentials(ledger)
    report = check_ledger(ledger, entries)
    return {
        "metadata": _metadata(digest),
        "slope": str(ledger.slope),
        "generators": (g.describe() for g in ledger.generators),
        "known_differentials": [
            {
                "source": e.source.describe(),
                "target": e.target.describe(),
                "coefficient": e.coefficient,
                "provenance": e.provenance,
            }
            for e in entries
        ],
        "validation": report,
        "coefficient": ring.describe(),
        "vanishes": sh_vanishing(group, ring),
    }, True


# -- span ------------------------------------------------------------------------


@_command(
    "span",
    _arg("action", choices=["check", "random"]),
    _arg("path", nargs="?", type=_document),
    _arg("--trials", type=functools.partial(integer, low=0), default=1000,
         help="(default: %(default)s)"),
    _arg("--seed", type=integer, default=0, help="(default: %(default)s)"),
    _arg("--max-order", type=functools.partial(integer, low=2),
         help="largest group order: of the randomized battery's groups and middles "
         f"(random, default {BATTERY_MAX_ORDER}), or of every group of the document "
         f"(check, default {DEFAULT_MAX_ORDER})"),
    CACHE_DIR,
    FORMAT,
)
def span_cmd(action, path, trials, seed, max_order, cache_dir):
    """Pullback-pushforward counts and the composition identity."""
    if action == "random":
        if trials > MAX_TRIALS:
            raise InputError(f"--trials {excerpt(trials)} is above the cap of {MAX_TRIALS}")
        if max_order is None:
            max_order = BATTERY_MAX_ORDER
        report = random_composition_battery(trials, seed, max_order)
        return {"metadata": _metadata(seed=seed), **report}, report["all_equal"]
    if path is None:
        raise UsageError("span check requires a document path")
    doc = read_json(_read(path))
    if not isinstance(doc, dict):
        raise InputError("span document must be an object")
    if max_order is None:
        max_order = DEFAULT_MAX_ORDER

    def loader(ref):
        group, _ = _load_group(Path(path).parent / ref, max_order, cache_dir)
        return group

    if "span1" in doc and "span2" in doc:
        span1 = span_from_document(doc["span1"], loader, max_order)
        span2 = span_from_document(doc["span2"], loader, max_order)
        lhs, rhs, equal = composition_check(span1, span2)
        return {"metadata": _metadata(), "lhs": str(lhs), "rhs": str(rhs), "equal": equal}, equal
    if "span" in doc:
        sp = span_from_document(doc["span"], loader, max_order)
        return {"metadata": _metadata(), "pushpull": str(pushpull(sp))}, True
    raise UsageError("span document must contain 'span' or 'span1' and 'span2'")


# -- constraints -------------------------------------------------------------------


@_command("constraints", _arg("action", choices=["boundary", "admit", "rp"]),
          _arg("target"),
          _arg("--boundary", dest="boundary_opt", help="boundary descriptor for 'admit'"),
          FORMAT, *GROUP_OPTIONS)
def constraints_cmd(action, target, boundary_opt, max_order, cache_dir):
    """Filling constraints: divisor tables, admissibility, uniqueness."""
    if action == "boundary":
        b = BoundaryDescriptor.parse(target)
        cs = constraint_for_boundary(b)
        return {
            "metadata": _metadata(),
            "boundary": b.describe(),
            "dimension": b.dimension,
            **cs.describe(),
        }, True
    if action == "rp":
        return {"metadata": _metadata(), **rp_report(integer(target, name="argument target"))}, True
    if boundary_opt is None:
        raise UsageError("'admit' requires --boundary")
    b = BoundaryDescriptor.parse(boundary_opt)
    group, digest = _load_group(target, max_order, cache_dir)
    ok, explanation = admissible(group, b)
    return {
        "metadata": _metadata(digest),
        "boundary": b.describe(),
        "group_order": group.order,
        "admissible": ok,
        "explanation": explanation,
    }, ok


def main(argv=None):
    """Run one command line; ``argv`` defaults to ``sys.argv[1:]``. It returns on
    success, exits EXIT_NEGATIVE on a false verdict, and maps an exception onto
    its exit code and stderr line through _OUTCOMES.

    Freezes the caller's garbage-collected heap first, so for an in-process
    caller the objects alive at the call are never collected afterwards.
    """
    # Everything alive here is the interpreter's start-up heap and orbifill's
    # modules, which all live until exit: frozen, neither the collections
    # during the query nor those at interpreter shutdown walk them again.
    gc.freeze()
    top = argparse.ArgumentParser(
        prog="orbifill",
        description="Exact invariants of isolated quotient singularities C^n/G.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12} {fn.__doc__.splitlines()[0]}" for name, (fn, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    top.add_argument("--version", action="version", version=f"orbifill, version {__version__}")
    top.add_argument("command", choices=COMMANDS, type=_one_of(COMMANDS), metavar="COMMAND",
                     help="one of the commands listed below")
    top.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                     help="the command's arguments; see 'orbifill COMMAND --help'")
    ns = top.parse_args(argv)
    fn, arguments = COMMANDS[ns.command]
    parser = argparse.ArgumentParser(prog=f"orbifill {ns.command}", description=fn.__doc__,
                                     allow_abbrev=False)
    for names, kwargs in arguments:
        parser.add_argument(*names, **kwargs)
    # Intermixed, so that options may also come between the action and an
    # optional path, as in 'cr ring --format json PATH'.
    options = vars(parser.parse_intermixed_args(ns.args))
    fmt = options.pop("fmt")
    # The report is rendered inside the try: an error raised by a generator in
    # it, or a closed stdout, exits as it would from the command. Any other
    # Exception, such as a MemoryError, exits EXIT_INTERNAL, not the 1 Python
    # exits with, which reads as domain-negative; KeyboardInterrupt passes.
    try:
        report, verdict = fn(**options)
        _emit(report, fmt)
    except UsageError as e:
        parser.error(str(e))
    except Exception as e:
        prefix, code = next(((prefix, code) for types, prefix, code in _OUTCOMES
                             if isinstance(e, types)),
                            (f"internal error: {type(e).__name__}", EXIT_INTERNAL))
        _echo(f"{prefix}: {e}")
        sys.exit(code)
    if not verdict:
        sys.exit(EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
