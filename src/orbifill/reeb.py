"""Reeb orbit families on (S^(2n-1)/G, xi_std) and their indices.

Periods are exact rationals in units of 2*pi, so the simple orbit on the
sphere has period 1 and the family for class (g) at eigenvalue exponent m of
order o has periods m/o, m/o + 1, ... . Slope genericity is decided by exact
comparison against the full period spectrum instead of a measure argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chen_ruan import age
from .errors import SlopeOnSpectrum
from .groups import FiniteUnitaryGroup


def _validated_period(value) -> Fraction:
    period = Fraction(value)
    if period <= 0:
        raise ValueError("periods are positive rationals in units of 2*pi")
    return period


@dataclass(frozen=True)
class OrbitFamily:
    """A family of parameterized Reeb orbits with one class and period."""

    class_label: str
    class_position: int
    period: Fraction
    fixed_dim: int
    cz_index: Fraction

    @property
    def homotopy_class(self) -> str:
        # Definitional: the family's orbits lie in the loop component of its
        # conjugacy class.
        return self.class_label

    @property
    def manifold_dimension(self) -> int:
        return 2 * self.fixed_dim - 1


@dataclass(frozen=True)
class MorseCell:
    family: OrbitFamily
    morse_index: int

    def __post_init__(self):
        top = self.family.manifold_dimension
        if not 0 <= self.morse_index <= top:
            raise ValueError(
                f"Morse index {self.morse_index} outside 0..{top} for this family"
            )


def _class_period_data(group: FiniteUnitaryGroup, class_position: int):
    cls = group.classes[class_position]
    eigen = group.eigen_multiplicities(cls.representative_index)
    return [(Fraction(m, eigen.order), mult) for m, mult in sorted(eigen.multiplicities.items())]


def _periods_below(group, class_position, bound: Fraction):
    """Admissible (period, fixed_dim) pairs of one class, strictly below bound."""
    out = []
    for base, mult in _class_period_data(group, class_position):
        period = base or Fraction(1)
        while period < bound:
            out.append((period, mult))
            period += 1
    out.sort()
    return out


def _fixed_dim_at(group, class_position, period: Fraction) -> int | None:
    """Fixed-space dimension of the class's family at the period, or None
    when the period is not admissible for the class."""
    for base, mult in _class_period_data(group, class_position):
        offset = period - (base or 1)
        if offset >= 0 and offset.denominator == 1:
            return mult
    return None


def is_on_spectrum(group: FiniteUnitaryGroup, value: Fraction) -> bool:
    """Whether the value is an admissible period of some orbit family."""
    return value > 0 and any(
        _fixed_dim_at(group, pos, value) is not None for pos in range(len(group.classes))
    )


def admissible_periods(group: FiniteUnitaryGroup, class_position: int, bound) -> list[tuple[Fraction, int]]:
    """All admissible periods of the class below the bound, with fixed-space
    dimensions; the bound itself must not be a period of this class."""
    group.require_isolated()
    bound = _validated_period(bound)
    if _fixed_dim_at(group, class_position, bound) is not None:
        raise SlopeOnSpectrum(
            f"bound {bound} is an admissible period of class "
            f"{group.classes[class_position].label}"
        )
    return _periods_below(group, class_position, bound)


def cz_family(group: FiniteUnitaryGroup, class_position: int, period) -> Fraction:
    """Generalized index of the family: n - 2*age + 2*(prior fixed dims) + fixed_dim."""
    group.require_isolated()
    period = _validated_period(period)
    rep = group.classes[class_position].representative_index
    a = age(group, rep)
    n = group.dimension
    prior = sum(d for _, d in _periods_below(group, class_position, period))
    fixed = _fixed_dim_at(group, class_position, period)
    if fixed is None:
        raise ValueError(
            f"period {period} is not admissible for class "
            f"{group.classes[class_position].label}"
        )
    return n - 2 * a + 2 * prior + fixed


def orbit_family(group: FiniteUnitaryGroup, class_position: int, period) -> OrbitFamily:
    period = _validated_period(period)
    cls = group.classes[class_position]
    return OrbitFamily(
        cls.label,
        class_position,
        period,
        _fixed_dim_at(group, class_position, period),
        cz_family(group, class_position, period),
    )


def families_below(group: FiniteUnitaryGroup, slope) -> list[OrbitFamily]:
    """Every orbit family with period strictly below the slope."""
    group.require_isolated()
    slope = _validated_period(slope)
    if is_on_spectrum(group, slope):
        raise SlopeOnSpectrum(f"slope {slope} is an admissible period")
    out = []
    for pos in range(len(group.classes)):
        for period, _ in _periods_below(group, pos, slope):
            out.append(orbit_family(group, pos, period))
    out.sort(key=lambda f: (f.class_position, f.period))
    return out


def cz_generator(cell: MorseCell, group: FiniteUnitaryGroup) -> tuple[Fraction, Fraction]:
    """Index of a perturbed generator and its cohomological degree n - index.

    The Morse-Bott family index counts the full fixed space; breaking the
    family into cells replaces that last term by 1 + ind(x).
    """
    family = cell.family
    base = cz_family(group, family.class_position, family.period)
    mu = base - family.fixed_dim + 1 + cell.morse_index
    return mu, group.dimension - mu


def mclean_discrepancy(group: FiniteUnitaryGroup) -> tuple[Fraction, str]:
    """Minimal discrepancy min over g != Id of 2n - 2*age(g) - 2.

    Verdict: terminal when positive, canonical-not-terminal when zero,
    neither when negative.
    """
    group.require_isolated()
    if group.order == 1:
        raise ValueError("the trivial group presents a smooth point, not a singularity")
    n = group.dimension
    disc = min(
        2 * n - 2 * age(group, cls.representative_index) - 2
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
