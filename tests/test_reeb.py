"""Reeb orbit families, Conley-Zehnder indices, discrepancy, loop components."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

import reeb_oracle
from battery import Q8_MU3, Z7_SEMIDIRECT_Z9, battery_24, battery_48, build, corpus, trivial
from orbifill import reeb
from orbifill.errors import NonIsolated, SlopeOnSpectrum
from orbifill.ledger import KIND_CELL, build_ledger
from orbifill.reeb import (
    MorseCell,
    cz_generator,
    families_below,
    is_on_spectrum,
    loop_components,
    mclean_discrepancy,
    walk_families,
)


def _periods(group, pos, bound):
    """(period, fixed_dim) of the class's families strictly below the bound."""
    return [(f.period, f.fixed_dim) for f in walk_families(group, bound) if f.class_position == pos]


def _family(group, pos, period):
    """The class's family at the period."""
    (family,) = [f for f in walk_families(group, period + 1)
                 if (f.class_position, f.period) == (pos, period)]
    return family


class TestAdmissiblePeriods:
    def test_antipodal_minus_identity(self):
        g = build(corpus.antipodal(4))
        periods = _periods(g, 1, 2)
        assert periods == [(Fraction(1, 2), 4), (Fraction(3, 2), 4)]

    def test_identity_class(self):
        g = build(trivial(3))
        assert _periods(g, 0, Fraction(5, 2)) == [(Fraction(1), 3), (Fraction(2), 3)]

    def test_scalar_cyclic_three(self):
        g = build(corpus.scalar_cyclic(3))
        assert _periods(g, 1, 1) == [(Fraction(1, 3), 2)]

    def test_spectrum_membership(self):
        g = build(corpus.antipodal(2))
        assert is_on_spectrum(g, Fraction(1, 2))
        assert is_on_spectrum(g, Fraction(5, 2))
        assert is_on_spectrum(g, 2)
        assert not is_on_spectrum(g, Fraction(3, 4))
        assert not is_on_spectrum(g, Fraction(1, 3))

    def test_unit_window_accounts_all_eigenvalues(self):
        # Window endpoints use a denominator coprime to every element order,
        # so they never sit on the spectrum.
        lo = Fraction(1, 97)
        for g in battery_24():
            n = g.dimension
            for pos in range(len(g.classes)):
                periods = _periods_in_window(g, pos, lo, lo + 1)
                assert sum(d for _, d in periods) == n
                periods = _periods_in_window(g, pos, lo + 1, lo + 2)
                assert sum(d for _, d in periods) == n


def _periods_in_window(group, pos, lo, hi):
    below_hi = dict(_periods(group, pos, hi))
    below_lo = dict(_periods(group, pos, lo))
    return [(p, d) for p, d in below_hi.items() if p not in below_lo]


class TestFamilyIndex:
    def test_simple_contractible_family(self):
        for doc in (corpus.antipodal(2), corpus.antipodal(3), corpus.quaternion()):
            g = build(doc)
            assert _family(g, 0, 1).cz_index == 2 * g.dimension

    def test_projective_space_families(self):
        for n in (2, 3, 5):
            g = build(corpus.antipodal(n))
            assert _family(g, 1, Fraction(1, 2)).cz_index == n
            assert _family(g, 1, Fraction(3, 2)).cz_index == 3 * n

    def test_periodicity(self):
        for g in battery_24():
            n = g.dimension
            index = {(f.class_position, f.period): f.cz_index for f in walk_families(g, 4)}
            for (pos, period), cz in index.items():
                if period < 3:
                    assert index[pos, period + 1] - cz == 2 * n

    def test_large_period(self):
        # A million periods on, the index has grown by 2n per unit period: a
        # walk over the earlier periods would take seconds per call here.
        docs = (corpus.antipodal(3), corpus.binary_dihedral(3), Q8_MU3, Z7_SEMIDIRECT_Z9)
        for g in map(build, docs):
            n = g.dimension
            for f in walk_families(g, Fraction(193, 97)):
                spectrum = reeb._spectrum(g, f.class_position)
                far = reeb._index(spectrum, int((f.period + 10**6) * spectrum.order))
                assert far == f.cz_index + 2 * n * 10**6, (g.name, f.class_position)


class TestGeneratorIndex:
    def test_gamma0(self):
        for doc in (corpus.antipodal(2), corpus.antipodal(4), corpus.quaternion(), trivial()):
            g = build(doc)
            family = _family(g, 0, 1)
            mu, degree = cz_generator(MorseCell(family, 0), g)
            assert mu == g.dimension + 1
            assert degree == -1

    def test_minimum_cell_projective(self):
        for n in (2, 3, 4):
            g = build(corpus.antipodal(n))
            family = _family(g, 1, Fraction(1, 2))
            mu, degree = cz_generator(MorseCell(family, 0), g)
            assert mu == 1 and degree == n - 1

    def test_top_cell_contractible(self):
        g = build(corpus.antipodal(3))
        n = g.dimension
        family = _family(g, 0, 1)
        mu, degree = cz_generator(MorseCell(family, 2 * n - 1), g)
        assert mu == 3 * n and degree == -2 * n

    def test_morse_index_bounds(self):
        g = build(corpus.antipodal(2))
        family = _family(g, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            MorseCell(family, 2 * family.fixed_dim)
        with pytest.raises(ValueError):
            MorseCell(family, -1)

    def test_morse_bott_correction(self):
        # Minimum-cell index differs from the family index by 1 - fixed_dim.
        for g in battery_24():
            for family in families_below(g, Fraction(292, 97)):
                mu, _ = cz_generator(MorseCell(family, 0), g)
                assert mu - family.cz_index == 1 - family.fixed_dim

    def test_homotopy_class_is_conjugacy_class(self):
        for g in battery_24():
            for family in families_below(g, Fraction(292, 97)):
                assert family.homotopy_class == g.classes[family.class_position].label


class TestDiscrepancy:
    def test_surface_antipodal(self):
        assert mclean_discrepancy(build(corpus.antipodal(2))) == (0, "canonical-not-terminal")

    def test_threefold_antipodal(self):
        assert mclean_discrepancy(build(corpus.antipodal(3))) == (1, "terminal")

    def test_a_type_groups(self):
        for k in range(2, 9):
            assert mclean_discrepancy(build(corpus.a_type(k))) == (0, "canonical-not-terminal")

    def test_non_isolated_rejected(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["-1", "0"], ["0", "1"]]]}
        with pytest.raises(NonIsolated):
            mclean_discrepancy(build(doc))

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            mclean_discrepancy(build(trivial()))


class TestLoopComponents:
    def test_counts(self):
        assert len(loop_components(build(corpus.antipodal(2)))) == 2
        assert len(loop_components(build(corpus.quaternion()))) == 5
        assert len(loop_components(build(trivial()))) == 1

    def test_identity_component_contractible(self):
        comps = loop_components(build(corpus.quaternion()))
        assert comps[0] == {"class": "Id", "contractible": True}
        assert all(not c["contractible"] for c in comps[1:])


class TestFamiliesBelow:
    def test_slope_on_spectrum_rejected(self):
        g = build(corpus.antipodal(2))
        with pytest.raises(SlopeOnSpectrum):
            families_below(g, Fraction(3, 2))

    def test_assembly(self):
        g = build(corpus.antipodal(2))
        fams = families_below(g, Fraction(5, 4))
        assert [(f.class_label, str(f.period), f.fixed_dim) for f in fams] == [
            ("Id", "1", 2),
            ("c1", "1/2", 2),
        ]

    def test_family_count_against_the_cap(self, monkeypatch):
        # The count checked against MAX_FAMILIES is exactly the number of
        # families built, so a cap of that count passes and one less fails.
        assert len(families_below(build(corpus.a_type(4)), Fraction(10001, 3))) == 20001
        groups = battery_24()
        counts = [len(families_below(g, Fraction(292, 97))) for g in groups]
        for g, built in zip(groups, counts):
            monkeypatch.setattr(reeb, "MAX_FAMILIES", built)
            assert len(families_below(g, Fraction(292, 97))) == built
            monkeypatch.setattr(reeb, "MAX_FAMILIES", built - 1)
            with pytest.raises(ValueError, match=f"gives {built} orbit families"):
                families_below(g, Fraction(292, 97))

    @pytest.mark.parametrize("k", [1, 37, 100, 203, 304, 999])
    def test_family_count_is_the_walk(self, k):
        # The count from the walk's int limit is the count from the rational
        # slope, and the number of families the walk builds.
        slope = Fraction(k, 101)
        for g in battery_48() + [build(Z7_SEMIDIRECT_Z9)]:
            spectra = [reeb._spectrum(g, pos) for pos in range(len(g.classes))]
            by_slope = sum(max(0, math.ceil(slope - Fraction(m or s.order, s.order)))
                           for s in spectra for m in s.multiplicities)
            assert reeb.family_count(g, slope) == by_slope == len(walk_families(g, slope)), g.name

    def test_one_period_walk_per_class(self, monkeypatch):
        # Each class's spectrum is read once per pass over the classes, never
        # per family: families_below and build_ledger each pass to test the
        # slope, to count and to walk.
        calls = []
        read = reeb._spectrum
        monkeypatch.setattr(reeb, "_spectrum", lambda *a: calls.append(a[1]) or read(*a))
        for g in battery_24():
            for run, passes in ((families_below, 3), (build_ledger, 3)):
                calls.clear()
                run(g, Fraction(292, 97))
                assert calls == list(range(len(g.classes))) * passes, (g.name, run.__name__)


ORACLE_BOUND = Fraction(292, 97)


@lru_cache(maxsize=None)
def oracle_cases():
    """(group, its families below ORACLE_BOUND from the closed form on
    numerical angles) for battery_48(), Q8 x mu3 and Z7 x| Z9: abelian,
    SU(2), Wolf-type and a non-abelian group outside SU(3)."""
    groups = battery_48() + [build(Q8_MU3), build(Z7_SEMIDIRECT_Z9)]
    return [(g, reeb_oracle.families(g, ORACLE_BOUND)) for g in groups]


class TestClosedFormOracle:
    def test_references_agree(self):
        # The closed form and the running walk, both on the numerical angles.
        for g, families in oracle_cases():
            assert families == reeb_oracle.walked(g, ORACLE_BOUND), g.name

    def test_families_and_indices(self):
        total = 0
        for g, families in oracle_cases():
            got = [(f.class_position, f.period, f.fixed_dim, f.cz_index)
                   for f in families_below(g, ORACLE_BOUND)]
            assert got == families, g.name
            total += len(families)
        assert total > 1000

    def test_generator_degrees(self):
        for g, families in oracle_cases():
            n = g.dimension
            for family, (_, _, fixed, index) in zip(families_below(g, ORACLE_BOUND), families):
                for morse in range(2 * fixed):
                    _, degree = cz_generator(MorseCell(family, morse), g)
                    assert degree == reeb_oracle.cell_degree(n, fixed, index, morse), g.name

    def test_ledger_cell_degrees(self):
        for g, families in oracle_cases():
            n = g.dimension
            expected = sorted(
                (g.classes[pos].label, period, morse,
                 reeb_oracle.cell_degree(n, fixed, index, morse))
                for pos, period, fixed, index in families
                for morse in (0, 2 * fixed - 1)
            )
            cells = build_ledger(g, ORACLE_BOUND).generators
            got = sorted((c.homotopy_class, c.period, c.morse_index, c.degree)
                         for c in cells if c.kind == KIND_CELL)
            assert got == expected, g.name
