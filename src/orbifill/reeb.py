"""Reeb orbit families on (S^(2n-1)/G, xi_std) and their indices.

Periods are exact rationals in units of 2*pi, so the simple orbit on the
sphere has period 1, and the family for class (g) at an eigenvalue angle
theta = m/o in [0, 1), o the order of g, has the periods theta + k > 0 for
integers k. Slope genericity is decided by exact comparison against the
full period spectrum instead of a measure argument.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, excerpt
from .groups import EigenData, FiniteUnitaryGroup
from .record import Record

# The most orbit families one query may build: a report of 200,001 families
# took 4.5 s and 390 MB.
MAX_FAMILIES = 100_000


class OrbitFamily(Record):
    """A family of parameterized Reeb orbits with one class and period."""

    def __init__(self, class_label: str, class_position: int, period: Fraction,
                 fixed_dim: int, cz_index: Fraction):
        self.__dict__.update(class_label=class_label, class_position=class_position,
                             period=period, fixed_dim=fixed_dim, cz_index=cz_index)

    @property
    def homotopy_class(self) -> str:
        # Definitional: the family's orbits lie in the loop component of its
        # conjugacy class.
        return self.class_label

    @property
    def manifold_dimension(self) -> int:
        return 2 * self.fixed_dim - 1


class MorseCell(Record):
    def __init__(self, family: OrbitFamily, morse_index: int):
        self.__dict__.update(family=family, morse_index=morse_index)
        top = family.manifold_dimension
        if not 0 <= morse_index <= top:
            raise InputError(f"Morse index {excerpt(morse_index)} outside 0..{top} for this family")


def _spectrum(group: FiniteUnitaryGroup, class_position: int) -> EigenData:
    """The class's angles m/o with their multiplicities, read once per class
    from its representative's eigen data. A period T is the int P = T*o."""
    return group.eigen_multiplicities(group.classes[class_position].representative_index)


def _fixed_dim(spectrum: EigenData, period: Fraction) -> int | None:
    """The multiplicity of the angle period mod 1, which is the family's
    fixed-space dimension, or None when that is no angle of the class."""
    p = period * spectrum.order
    return spectrum.multiplicities.get(p.numerator % spectrum.order) if p.denominator == 1 else None


def _limit(spectrum: EigenData, bound: Fraction) -> int:
    """The int with P < bound*o exactly when P < it, o the class's order."""
    return -(-bound.numerator * spectrum.order // bound.denominator)


def _walk(spectrum: EigenData, bound: Fraction) -> list[tuple[int, int]]:
    """(P, fixed_dim) for each admissible period P/o below the bound, in
    ascending order: the angle m/o gives P = m, m + o, ..., from o if m = 0."""
    o, mult = spectrum.order, spectrum.multiplicities
    limit = _limit(spectrum, bound)
    starts = sorted(m or o for m in mult)
    return [(k + p, mult[p % o]) for k in range(0, limit, o) for p in starts if k + p < limit]


def _index(spectrum: EigenData, p: int) -> Fraction:
    """Generalized Conley-Zehnder index of the family at the period T = p/o:
    sum_j rho(T + {-theta_j}) - 2*age over the class's eigenvalue angles
    theta_j, with rho(a) = 2a on integers and 2*floor(a) + 1 elsewhere
    (Robbin-Salamon). On each eigenline the return map, rotation by T
    composed with g^-1 trivialized along the positive rotation from I to
    g^-1, is a rotation by T + {-theta_j}; -2*age is the grading shift. In
    units of 1/o, T + {-theta_j} is p + (-m_j mod o) and age is sum_j m_j."""
    o = spectrum.order
    total = 0
    for m, mult in spectrum.multiplicities.items():
        q, r = divmod(p + -m % o, o)
        total += mult * (o * (2 * q + (r > 0)) - 2 * m)
    return Fraction(total, o)


def is_on_spectrum(group: FiniteUnitaryGroup, value: Fraction) -> bool:
    """Whether the value is an admissible period of some orbit family."""
    positions = range(len(group.classes))
    return value > 0 and any(_fixed_dim(_spectrum(group, pos), value) is not None for pos in positions)


def family_count(group: FiniteUnitaryGroup, slope, option: str = "slope") -> int:
    """The number of orbit families with period strictly below the slope,
    summed from the spectra before any family is built. InputError when
    the slope is a period or the count is above MAX_FAMILIES; ``option``
    names the slope in these messages."""
    group.require_isolated()
    slope = Fraction(slope)
    if slope <= 0:
        raise InputError("periods are positive rationals in units of 2*pi")
    if is_on_spectrum(group, slope):
        raise InputError(f"{option} {excerpt(slope)} is an admissible period")
    spectra = [_spectrum(group, pos) for pos in range(len(group.classes))]
    # The angle m/o has the periods P = (m or o) + k*o below _limit, as _walk reads them.
    total = sum(max(0, -(-(_limit(s, slope) - (m or s.order)) // s.order))
                for s in spectra for m in s.multiplicities)
    if total > MAX_FAMILIES:
        raise InputError(f"{option} {excerpt(slope)} gives {excerpt(total)} orbit families, "
                         f"more than the cap of {MAX_FAMILIES}")
    return total


def families_below(group: FiniteUnitaryGroup, slope, option: str = "slope") -> list[OrbitFamily]:
    """Every orbit family with period strictly below the slope; the slope is
    checked by ``family_count`` first."""
    family_count(group, slope, option)
    return walk_families(group, slope)


def walk_families(group: FiniteUnitaryGroup, slope) -> list[OrbitFamily]:
    """Every orbit family with period strictly below a slope that
    ``family_count`` has checked: one period walk per class."""
    slope = Fraction(slope)
    out = []
    for pos, cls in enumerate(group.classes):
        spectrum = _spectrum(group, pos)
        out += (OrbitFamily(cls.label, pos, Fraction(p, spectrum.order), fixed, _index(spectrum, p))
                for p, fixed in _walk(spectrum, slope))
    return out


def cz_generator(cell: MorseCell, group: FiniteUnitaryGroup) -> tuple[Fraction, Fraction]:
    """Index of a perturbed generator and its cohomological degree n - index.

    The Morse-Bott family index counts the full fixed space; breaking the
    family into cells replaces that last term by 1 + ind(x).
    """
    family = cell.family
    mu = family.cz_index - family.fixed_dim + 1 + cell.morse_index
    return mu, group.dimension - mu


def mclean_discrepancy(group: FiniteUnitaryGroup) -> tuple[Fraction, str]:
    """Minimal discrepancy min over g != Id of 2n - 2*age(g) - 2.

    Verdict: terminal when positive, canonical-not-terminal when zero,
    neither when negative.
    """
    group.require_isolated()
    if group.order == 1:
        raise InputError("the trivial group presents a smooth point, not a singularity")
    n = group.dimension
    disc = min(
        2 * n - 2 * cls.age - 2
        for cls in group.classes[1:]
    )
    if disc > 0:
        verdict = "terminal"
    elif disc == 0:
        verdict = "canonical-not-terminal"
    else:
        verdict = "neither"
    return disc, verdict


def loop_components(group: FiniteUnitaryGroup) -> list[dict]:
    """Connected components of the loop space: one per conjugacy class."""
    return [
        {"class": cls.label, "contractible": pos == 0}
        for pos, cls in enumerate(group.classes)
    ]
