"""Command-line frontend: document I/O and report rendering.

Each query parses its group document once and enumerates the group from it;
nothing is cached between runs.

JSON output is the machine contract and is byte-deterministic for fixed
inputs, flags, and seed; table output is for humans and carries no stability
guarantee. Exit codes: 0 success, 1 domain-negative result, 2 input error,
3 internal invariant violation.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .chen_ruan import (
    CupConvention,
    FillingCRProfile,
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
    InvariantViolation,
    NonIsolated,
    NotApplicable,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    canonical_document,
    document_digest,
    enumerate_group,
    parse_group,
)
from .ledger import build_ledger, check_ledger, known_differentials, sh_vanishing
from .reeb import families_below, loop_components, mclean_discrepancy
from .spans import (
    BATTERY_MAX_ORDER,
    composition_check,
    pushpull,
    random_composition_battery,
    span_from_document,
)

EXIT_OK = 0
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


def _emit(report: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in _tableize(report):
            click.echo(line)


def _tableize(value, prefix=""):
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _tableize(sub, prefix + "  ")
            else:
                yield f"{prefix}{key}: {sub}"
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                yield f"{prefix}-"
                yield from _tableize(item, prefix + "  ")
            else:
                yield f"{prefix}- {item}"
    else:
        yield f"{prefix}{value}"


def _guarded(fn):
    """Map domain and input errors onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, ValueError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_INPUT)
        except NonIsolated as e:
            click.echo(f"not an isolated singularity: {e}", err=True)
            sys.exit(EXIT_NEGATIVE)
        except NotApplicable as e:
            click.echo(f"constraints not applicable: {e}", err=True)
            sys.exit(EXIT_NEGATIVE)
        except InvariantViolation as e:
            click.echo(f"check failed: {e}", err=True)
            sys.exit(EXIT_NEGATIVE)
        except InternalInconsistency as e:
            click.echo(f"internal invariant violation: {e}", err=True)
            sys.exit(EXIT_INTERNAL)

    return wrapper


def _common_options(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["table", "json"]),
        default="table",
        help="Report rendering; json is the stable machine contract.",
    )(fn)
    return fn


# Nothing is cached: --cache-dir is accepted and ignored so that existing
# invocations keep their exit codes. _default_cache_dir and the cache_dir
# parameter of _load_group stay only because bench/tracer.py reads them,
# until the benchmark retires its cache metrics.
_ignored_cache_dir = click.option(
    "--cache-dir", type=click.Path(file_okay=False), default=None, hidden=True
)


def _group_options(fn):
    fn = click.option(
        "--max-order",
        type=click.IntRange(min=1),
        default=DEFAULT_MAX_ORDER,
        show_default=True,
        help="Abort enumeration beyond this order.",
    )(fn)
    fn = _ignored_cache_dir(fn)
    return fn


def _default_cache_dir() -> str:
    return os.path.join(Path.home(), ".cache", "orbifill")


def _load_group(path, max_order, cache_dir):
    group = parse_group(Path(path).read_text())
    return enumerate_group(group, max_order), document_digest(group)


@click.group()
@click.version_option(__version__, prog_name="orbifill")
def cli():
    """Exact invariants of isolated quotient singularities C^n/G."""


# -- group ----------------------------------------------------------------------


@cli.command("group")
@click.argument("action", type=click.Choice(["info", "canonical"]))
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_common_options
@_group_options
@_guarded
def group_cmd(action, path, fmt, max_order, cache_dir):
    """Inspect a group document: enumeration, classes, eigenvalue data."""
    if action == "canonical":
        group = parse_group(Path(path).read_text())
        _emit(
            {
                "metadata": _metadata(document_digest(group)),
                "canonical": canonical_document(group),
            },
            fmt,
        )
        return
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
    _emit(report, fmt)


# -- chen-ruan -------------------------------------------------------------------


@cli.command("cr")
@click.argument("action", type=click.Choice(["ring", "sectors", "pairing", "filling"]))
@click.argument("path", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option(
    "--convention",
    type=click.Choice([c.value for c in CupConvention]),
    default=None,
    help="Cup-product summation convention; default picks one that passes associativity.",
)
@click.option("--betti", default="1", help="Comma-separated Betti numbers of the space.")
@click.option(
    "--singularity",
    "singularities",
    multiple=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Group document of an isolated singularity (repeatable).",
)
@click.option("--coefficient", default="Q", help="Coefficient ring: Q, Z, or Z/m.")
@_common_options
@_group_options
@_guarded
def cr_cmd(action, path, convention, betti, singularities, coefficient, fmt, max_order, cache_dir):
    """Chen-Ruan data: sectors, ring structure, pairing, filling ranks."""
    if action == "filling":
        ring_desc = CoefficientRing.parse(coefficient)
        groups = []
        digests = []
        for spath in singularities:
            g, digest = _load_group(spath, max_order, cache_dir)
            groups.append(g)
            digests.append(digest)
        profile = FillingCRProfile(
            tuple(int(b) for b in betti.split(",")), tuple(groups), ring_desc
        )
        ranks = cr_of_filling(profile)
        _emit(
            {
                "metadata": _metadata(",".join(digests) or None),
                "coefficient": ring_desc.describe(),
                "ranks_by_degree": {str(d): r for d, r in ranks.items()},
                "total_rank": sum(ranks.values()),
            },
            fmt,
        )
        return
    if path is None:
        raise click.UsageError("a group document is required")
    group, digest = _load_group(path, max_order, cache_dir)
    if action == "sectors":
        sectors = twisted_sectors(group)
        _emit(
            {
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
            },
            fmt,
        )
        return
    if action == "pairing":
        report = cr_pairing_check(group)
        _emit({"metadata": _metadata(digest), **report}, fmt)
        sys.exit(EXIT_OK if report["all_pass"] else EXIT_NEGATIVE)
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
    click.echo(
        f"associativity sweep: {'; '.join(verdicts)}; using {ring.convention.value} ({how})",
        err=True,
    )
    _emit(
        {
            "metadata": _metadata(digest, conventions={"cup_product": ring.convention.value}),
            **report,
        },
        fmt,
    )


# -- reeb ------------------------------------------------------------------------


@cli.command("reeb")
@click.argument("action", type=click.Choice(["report", "discrepancy", "components"]))
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", default="3", help="Period bound (rational, units of 2*pi).")
@_common_options
@_group_options
@_guarded
def reeb_cmd(action, path, bound, fmt, max_order, cache_dir):
    """Reeb orbit families, indices, discrepancy, loop components."""
    group, digest = _load_group(path, max_order, cache_dir)
    if action == "components":
        _emit(
            {"metadata": _metadata(digest), "components": loop_components(group)},
            fmt,
        )
        return
    if action == "discrepancy":
        disc, verdict = mclean_discrepancy(group)
        _emit(
            {
                "metadata": _metadata(digest),
                "minimal_discrepancy": str(disc),
                "verdict": verdict,
            },
            fmt,
        )
        return
    families = families_below(group, Fraction(bound))
    discrepancy = None
    if group.order != 1:
        disc, verdict = mclean_discrepancy(group)
        discrepancy = {"minimal_discrepancy": str(disc), "verdict": verdict}
    _emit(
        {
            "metadata": _metadata(digest),
            "bound": str(Fraction(bound)),
            "families": [
                {
                    "class": f.class_label,
                    "period": str(f.period),
                    "fixed_dim": f.fixed_dim,
                    "cz_index": str(f.cz_index),
                    "homotopy_class": f.homotopy_class,
                }
                for f in families
            ],
            "discrepancy": discrepancy,
            "components": loop_components(group),
        },
        fmt,
    )


# -- ledger ----------------------------------------------------------------------


def _parse_profiles(specs):
    profiles = {}
    for spec in specs:
        head, _, tail = spec.partition("=")
        label, _, period = head.partition(":")
        if not tail or not period:
            raise ValueError(
                f"profile {spec!r} must look like CLASS:PERIOD=idx,idx,..."
            )
        profiles[(label, Fraction(period))] = tuple(int(i) for i in tail.split(","))
    return profiles


@cli.command("ledger")
@click.argument("action", type=click.Choice(["build"]))
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--slope", required=True, help="Hamiltonian slope (rational, off the spectrum).")
@click.option(
    "--profile",
    "profiles",
    multiple=True,
    help="Morse cell profile per family, e.g. 'Id:1=0,3' (default: min and top cell).",
)
@click.option("--coefficient", default="Q", help="Coefficient ring for the vanishing verdict.")
@_common_options
@_group_options
@_guarded
def ledger_cmd(action, path, slope, profiles, coefficient, fmt, max_order, cache_dir):
    """Assemble the generator ledger at a slope, with forced differentials."""
    group, digest = _load_group(path, max_order, cache_dir)
    ring = CoefficientRing.parse(coefficient)
    ledger = build_ledger(group, Fraction(slope), _parse_profiles(profiles))
    entries = known_differentials(ledger)
    report = check_ledger(ledger, entries)
    _emit(
        {
            "metadata": _metadata(digest),
            "slope": str(ledger.slope),
            "generators": [g.describe() for g in ledger.generators],
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
        },
        fmt,
    )


# -- span ------------------------------------------------------------------------


@cli.command("span")
@click.argument("action", type=click.Choice(["check", "random"]))
@click.argument("path", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--trials", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--max-order",
    type=click.IntRange(min=2),
    default=None,
    help="Largest group order: of the randomized battery's groups and middles "
    f"(random, default {BATTERY_MAX_ORDER}), or of a 'ref' group's enumeration "
    f"(check, default {DEFAULT_MAX_ORDER}).",
)
@_ignored_cache_dir
@_common_options
@_guarded
def span_cmd(action, path, trials, seed, max_order, cache_dir, fmt):
    """Pullback-pushforward counts and the composition identity."""
    if action == "random":
        if max_order is None:
            max_order = BATTERY_MAX_ORDER
        report = random_composition_battery(trials, seed, max_order)
        _emit({"metadata": _metadata(seed=seed), **report}, fmt)
        sys.exit(EXIT_OK if report["all_equal"] else EXIT_NEGATIVE)
    if path is None:
        raise click.UsageError("span check requires a document path")
    doc = json.loads(Path(path).read_text())
    if max_order is None:
        max_order = DEFAULT_MAX_ORDER

    def loader(ref):
        group, _ = _load_group(Path(path).parent / ref, max_order, cache_dir)
        return group

    if "span1" in doc and "span2" in doc:
        span1 = span_from_document(doc["span1"], loader)
        span2 = span_from_document(doc["span2"], loader)
        lhs, rhs, equal = composition_check(span1, span2)
        _emit(
            {
                "metadata": _metadata(),
                "lhs": str(lhs),
                "rhs": str(rhs),
                "equal": equal,
            },
            fmt,
        )
        sys.exit(EXIT_OK if equal else EXIT_NEGATIVE)
    if "span" in doc:
        sp = span_from_document(doc["span"], loader)
        _emit({"metadata": _metadata(), "pushpull": str(pushpull(sp))}, fmt)
        return
    raise click.UsageError("span document must contain 'span' or 'span1' and 'span2'")


# -- constraints -------------------------------------------------------------------


@cli.command("constraints")
@click.argument("action", type=click.Choice(["boundary", "admit", "rp"]))
@click.argument("target", required=True)
@click.option("--boundary", "boundary_opt", default=None, help="Boundary descriptor for 'admit'.")
@_common_options
@_group_options
@_guarded
def constraints_cmd(action, target, boundary_opt, fmt, max_order, cache_dir):
    """Filling constraints: divisor tables, admissibility, uniqueness."""
    if action == "boundary":
        b = BoundaryDescriptor.parse(target)
        cs = constraint_for_boundary(b)
        _emit(
            {
                "metadata": _metadata(),
                "boundary": b.describe(),
                "dimension": b.dimension,
                **cs.describe(),
            },
            fmt,
        )
        return
    if action == "rp":
        _emit({"metadata": _metadata(), **rp_report(int(target))}, fmt)
        return
    if boundary_opt is None:
        raise click.UsageError("'admit' requires --boundary")
    b = BoundaryDescriptor.parse(boundary_opt)
    group, digest = _load_group(target, max_order, cache_dir)
    ok, explanation = admissible(group, b)
    _emit(
        {
            "metadata": _metadata(digest),
            "boundary": b.describe(),
            "group_order": group.order,
            "admissible": ok,
            "explanation": explanation,
        },
        fmt,
    )
    sys.exit(EXIT_OK if ok else EXIT_NEGATIVE)


def main():
    cli(standalone_mode=True)


if __name__ == "__main__":
    main()
