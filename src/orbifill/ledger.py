"""The combinatorial generator ledger of the filtered Floer complex of C^n/G.

Everything recorded here is determined by group theory: generator degrees,
actions, homotopy classes, and the one differential entry that is forced,
namely that the minimum cell of the simple contractible family kills |G|
times the untwisted unit. All other differential entries are unknown rather
than zero.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import CoefficientRing
from .errors import InputError, InternalInconsistency, excerpt
from .groups import FiniteUnitaryGroup
from .record import Record
from .reeb import MorseCell, cz_generator, family_count, walk_families

KIND_CONSTANT_TWISTED = "constant-twisted"
KIND_CONSTANT_UNTWISTED = "constant-untwisted"
KIND_CELL = "cell"

PROVENANCE_PAPER = "established"

# The most Morse cells one ledger may hold, counted before any family or
# generator is built.
MAX_CELLS = 40_000


class FloerGenerator(Record):
    def __init__(self, kind: str, homotopy_class: str, degree: Fraction, action: Fraction,
                 isotropy_order: int, period: Fraction | None = None,
                 morse_index: int | None = None):
        # action is in units of 2*pi; constants sit at zero, orbits below
        self.__dict__.update(kind=kind, homotopy_class=homotopy_class, degree=degree,
                             action=action, isotropy_order=isotropy_order, period=period,
                             morse_index=morse_index)

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "class": self.homotopy_class,
            "degree": str(self.degree),
            "action": str(self.action),
            "isotropy": self.isotropy_order,
        }
        if self.period is not None:
            out["period"] = str(self.period)
            out["morse_index"] = self.morse_index
        return out


class DifferentialEntry(Record):
    def __init__(self, source: FloerGenerator, target: FloerGenerator, coefficient: int,
                 provenance: str):
        self.__dict__.update(source=source, target=target, coefficient=coefficient,
                             provenance=provenance)


class GeneratorLedger(Record):
    def __init__(self, group: FiniteUnitaryGroup, slope: Fraction,
                 generators: tuple[FloerGenerator, ...]):
        self.__dict__.update(group=group, slope=slope, generators=generators)


def family_name(label: str, period: Fraction) -> str:
    """CLASS:PERIOD in a message: a label past 60 characters and the period as excerpts."""
    return f"{excerpt(label) if len(label) > 60 else label}:{excerpt(period)}"


def build_ledger(
    group: FiniteUnitaryGroup,
    slope,
    cell_profiles: dict[tuple[str, Fraction], tuple[int, ...]] | None = None,
) -> GeneratorLedger:
    """Assemble the generators of the complex at the given slope.

    Constants: one untwisted degree-0 generator (the Morse minimum, which
    for a nontrivial group sits at the singular point with full isotropy)
    and one generator of degree 2*age per nontrivial class. Nonconstant
    generators: one per Morse cell of every family with period below the
    slope, with action equal to minus the period. A cell profile keyed by
    a (class, period) pair that is no such family raises InputError, and so
    do a profile that lists a Morse index twice and a ledger of more than
    MAX_CELLS cells.
    """
    profiles = cell_profiles or {}
    for (label, period), indices in profiles.items():
        if len(set(indices)) < len(indices):
            raise InputError(f"cell profile {family_name(label, period)} lists a Morse index twice")
    # Two cells per family under the default profile.
    cells = 2 * family_count(group, slope) + sum(len(p) - 2 for p in profiles.values())
    slope = Fraction(slope)
    at = f"slope {excerpt(slope)}"
    if cells > MAX_CELLS:
        raise InputError(f"{at} gives {cells} Morse cells, more than the cap of {MAX_CELLS}")
    families = walk_families(group, slope)
    known = {(f.class_label, f.period) for f in families}
    unknown = [family_name(label, p) for label, p in profiles if (label, p) not in known]
    if unknown:
        raise InputError(f"no family below {at} for cell profiles {', '.join(unknown)}")
    class_pos = {cls.label: pos for pos, cls in enumerate(group.classes)}
    generators = [
        FloerGenerator(
            KIND_CONSTANT_UNTWISTED,
            group.classes[0].label,
            Fraction(0),
            Fraction(0),
            group.order,
        )
    ]
    for cls in group.classes[1:]:
        generators.append(
            FloerGenerator(
                KIND_CONSTANT_TWISTED,
                cls.label,
                cls.degree,
                Fraction(0),
                cls.centralizer_order,
            )
        )
    for family in families:
        # The default profile: the family's minimum and top cell.
        profile = profiles.get((family.class_label, family.period), (0, family.manifold_dimension))
        isotropy = group.classes[family.class_position].centralizer_order
        for index in profile:
            cell = MorseCell(family, index)
            _, degree = cz_generator(cell, group)
            generators.append(
                FloerGenerator(
                    KIND_CELL,
                    family.class_label,
                    degree,
                    -family.period,
                    isotropy,
                    family.period,
                    index,
                )
            )
    generators.sort(key=lambda g: (class_pos[g.homotopy_class], g.action, g.degree))
    return GeneratorLedger(group, slope, tuple(generators))


def known_differentials(ledger: GeneratorLedger) -> list[DifferentialEntry]:
    """The single forced entry: the minimum cell of the simple contractible
    family maps to |G| times the untwisted constant. Every other entry is
    unknown, not zero."""
    label = ledger.group.classes[0].label
    gamma0 = next((g for g in ledger.generators if g.kind == KIND_CELL and g.morse_index == 0
                   and g.homotopy_class == label and g.period == 1), None)
    if gamma0 is None:
        return []
    unit = next(g for g in ledger.generators if g.kind == KIND_CONSTANT_UNTWISTED)
    return [DifferentialEntry(gamma0, unit, ledger.group.order, PROVENANCE_PAPER)]


def check_ledger(ledger: GeneratorLedger, entries) -> dict:
    """Assert the necessary conditions on every entry and report ranks.

    The entries are the forced ones, which meet the conditions by the index
    formula, so a failure is a bug: InternalInconsistency names the first
    failing entry and rule.
    """
    entries = list(entries)
    members = set(ledger.generators)
    for i, entry in enumerate(entries):
        if entry.source not in members or entry.target not in members:
            raise InternalInconsistency(f"ledger entry {i}: references a generator outside the ledger")
        if entry.source.homotopy_class != entry.target.homotopy_class:
            raise InternalInconsistency(f"ledger entry {i}: homotopy classes differ")
        if entry.target.degree != entry.source.degree + 1:
            raise InternalInconsistency(f"ledger entry {i}: target degree is not source degree + 1")
        if not entry.target.action > entry.source.action:
            raise InternalInconsistency(f"ledger entry {i}: action does not increase")
    by_class: dict[str, dict[str, int]] = {}
    for g in ledger.generators:
        degrees = by_class.setdefault(g.homotopy_class, {})
        key = str(g.degree)
        degrees[key] = degrees.get(key, 0) + 1
    return {
        "entries_checked": len(entries),
        "classes": {
            label: {"ranks_by_degree": dict(sorted(degrees.items()))}
            for label, degrees in sorted(by_class.items())
        },
    }


def sh_vanishing(group: FiniteUnitaryGroup, ring: CoefficientRing) -> bool:
    """Whether the symplectic invariant vanishes: |G| invertible in the ring."""
    group.require_isolated()
    return ring.is_invertible(group.order)
