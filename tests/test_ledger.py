"""Generator ledgers, forced differentials, and the vanishing predicate."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from battery import battery_24, build, corpus, run_cli, trivial
from orbifill import ledger as ledger_module
from orbifill import reeb
from orbifill.chen_ruan import twisted_sectors
from orbifill.coefficients import CoefficientRing
from orbifill.errors import InputError, InternalInconsistency, NonIsolated
from orbifill.ledger import (
    DifferentialEntry,
    KIND_CELL,
    KIND_CONSTANT_TWISTED,
    KIND_CONSTANT_UNTWISTED,
    PROVENANCE_PAPER,
    build_ledger,
    check_ledger,
    known_differentials,
    sh_vanishing,
)


class TestBuildLedger:
    def test_surface_antipodal_slope_five_fourths(self):
        g = build(corpus.antipodal(2))
        n = g.dimension
        ledger = build_ledger(g, Fraction(5, 4))
        by_kind = {}
        for gen in ledger.generators:
            by_kind.setdefault(gen.kind, []).append(gen)
        assert len(by_kind[KIND_CONSTANT_UNTWISTED]) == 1
        assert by_kind[KIND_CONSTANT_UNTWISTED][0].degree == 0
        assert by_kind[KIND_CONSTANT_UNTWISTED][0].isotropy_order == 2
        assert [g.degree for g in by_kind[KIND_CONSTANT_TWISTED]] == [n]
        cells = {(c.homotopy_class, str(c.period), c.morse_index): c.degree
                 for c in by_kind[KIND_CELL]}
        assert cells == {
            ("Id", "1", 0): -1,
            ("Id", "1", 2 * n - 1): -2 * n,
            ("c1", "1/2", 0): n - 1,
            ("c1", "1/2", 2 * n - 1): -n,
        }

    def test_trivial_group_small_slope(self):
        ledger = build_ledger(build(trivial()), Fraction(1, 2))
        assert len(ledger.generators) == 1
        assert ledger.generators[0].kind == KIND_CONSTANT_UNTWISTED
        assert ledger.generators[0].isotropy_order == 1

    def test_cell_count_against_the_cap(self, monkeypatch):
        # The count checked against MAX_CELLS is exactly the number of cells
        # built, profiles included, so a cap of that count passes and one
        # less fails before any family or generator is built.
        profiles = {("Id", Fraction(1)): (0, 1, 2, 3), ("c1", Fraction(1, 2)): (0,)}
        cases = [(build(corpus.antipodal(2)), Fraction(5, 4), profiles)]
        cases += [(g, Fraction(292, 97), {}) for g in battery_24()]
        counts = [sum(gen.kind == KIND_CELL for gen in build_ledger(*case).generators)
                  for case in cases]
        assert counts[0] == 4 + 1
        for (g, slope, given), built in zip(cases, counts):
            monkeypatch.setattr(ledger_module, "MAX_CELLS", built)
            assert len(build_ledger(g, slope, given).generators) >= built
            monkeypatch.setattr(ledger_module, "MAX_CELLS", built - 1)
            with monkeypatch.context() as m:
                m.setattr(reeb, "OrbitFamily", None)
                m.setattr(ledger_module, "FloerGenerator", None)
                with pytest.raises(ValueError, match=f"gives {built} Morse cells"):
                    build_ledger(g, slope, given)

    def test_scalar_cyclic_three_small_slope(self):
        ledger = build_ledger(build(corpus.scalar_cyclic(3)), Fraction(1, 4))
        degrees = sorted(str(g.degree) for g in ledger.generators)
        assert degrees == ["0", "4/3", "8/3"]
        assert all(g.kind != KIND_CELL for g in ledger.generators)

    def test_constant_degrees_match_sectors(self):
        for g in battery_24():
            ledger = build_ledger(g, Fraction(1, 97))
            sector_degrees = sorted(s.degree for s in twisted_sectors(g))
            ledger_degrees = sorted(gen.degree for gen in ledger.generators)
            assert ledger_degrees == sector_degrees
            zero_untwisted = [
                gen
                for gen in ledger.generators
                if gen.kind == KIND_CONSTANT_UNTWISTED and gen.degree == 0
            ]
            assert len(zero_untwisted) == 1

    def test_actions(self):
        ledger = build_ledger(build(corpus.antipodal(2)), Fraction(5, 4))
        for gen in ledger.generators:
            if gen.kind == KIND_CELL:
                assert gen.action == -gen.period < 0
            else:
                assert gen.action == 0

    def test_custom_profile(self):
        g = build(corpus.antipodal(2))
        ledger = build_ledger(
            g, Fraction(5, 4), {("Id", Fraction(1)): (0, 1, 2, 3)}
        )
        id_cells = [
            gen for gen in ledger.generators
            if gen.kind == KIND_CELL and gen.homotopy_class == "Id"
        ]
        assert sorted(c.morse_index for c in id_cells) == [0, 1, 2, 3]

    def test_profile_of_no_family_is_rejected(self):
        # Id:1 is a family below 5/4 and Zz:9 is not; only Zz:9 is named.
        g = build(corpus.antipodal(2))
        profiles = {("Id", Fraction(1)): (0,), ("Zz", Fraction(9)): (0,)}
        with pytest.raises(ValueError, match="5/4") as info:
            build_ledger(g, Fraction(5, 4), profiles)
        assert "Zz:9" in str(info.value) and "Id:1" not in str(info.value)

    def test_repeated_morse_index_is_rejected(self):
        g = build(corpus.antipodal(2))
        with pytest.raises(ValueError, match="^cell profile Id:1 lists a Morse index twice$"):
            build_ledger(g, Fraction(5, 4), {("Id", Fraction(1)): (0, 3, 0)})

    def test_repeated_profile_key_is_refused(self):
        # Alone, Id:1=3 leaves out the minimum cell and with it the forced
        # entry. Periods compare as rationals, so Id:2/2 names the family of
        # Id:1, and a second profile for it is refused, not put in its place.
        a3 = str(Path(__file__).resolve().parents[1] / "samples" / "a3.json")
        command = ["ledger", "build", a3, "--slope", "9/7", "--format", "json"]
        code, out, _ = run_cli([*command, "--profile", "Id:1=3"])
        assert code == 0 and json.loads(out)["known_differentials"] == []
        code, out, err = run_cli([*command, "--profile", "Id:1=0", "--profile", "Id:2/2=3"])
        assert (code, out, err) == (2, "", "error: two cell profiles for the family Id:1\n")

    def test_minimum_cell_degree_against_raw_eigen_data(self):
        # Cross-module check: recompute n - (n - 2*age + 2*sum + 1) for the
        # minimum cell straight from the eigenvalue exponents, without going
        # through the index machinery.
        for g in battery_24():
            n = g.dimension
            ledger = build_ledger(g, Fraction(199, 97))
            for gen in ledger.generators:
                if gen.kind != KIND_CELL or gen.morse_index != 0:
                    continue
                pos = next(
                    i for i, cls in enumerate(g.classes) if cls.label == gen.homotopy_class
                )
                eigen = g.eigen_multiplicities(g.classes[pos].representative_index)
                a = Fraction(
                    sum(m * mult for m, mult in eigen.multiplicities.items()), eigen.order
                )
                prior = 0
                for m, mult in eigen.multiplicities.items():
                    base = Fraction(m, eigen.order)
                    start = base if base > 0 else Fraction(1)
                    k = start
                    while k < gen.period:
                        prior += mult
                        k += 1
                expected_mu = n - 2 * a + 2 * prior + 1
                assert gen.degree == n - expected_mu, (g.name, gen)

    def test_slope_on_spectrum_rejected(self):
        with pytest.raises(InputError):
            build_ledger(build(corpus.antipodal(2)), Fraction(1, 2))

    def test_non_isolated_rejected(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["-1", "0"], ["0", "1"]]]}
        with pytest.raises(NonIsolated):
            build_ledger(build(doc), Fraction(1, 4))


class TestKnownDifferentials:
    def test_antipodal(self):
        g = build(corpus.antipodal(2))
        ledger = build_ledger(g, Fraction(5, 4))
        entries = known_differentials(ledger)
        assert len(entries) == 1
        (entry,) = entries
        assert entry.coefficient == 2
        assert entry.source.degree == -1 and entry.target.degree == 0
        assert entry.source.homotopy_class == entry.target.homotopy_class == "Id"
        assert entry.provenance == "established"

    def test_absent_below_slope_one(self):
        ledger = build_ledger(build(corpus.antipodal(2)), Fraction(1, 4))
        assert known_differentials(ledger) == []

    def test_trivial_group_unit_coefficient(self):
        ledger = build_ledger(build(trivial()), Fraction(5, 4))
        (entry,) = known_differentials(ledger)
        assert entry.coefficient == 1

    def test_coefficient_is_group_order(self):
        for g in battery_24():
            ledger = build_ledger(g, Fraction(101, 97))
            (entry,) = known_differentials(ledger)
            assert entry.coefficient == g.order


class TestCheckLedger:
    """check_ledger is handed only the forced entry, which meets every
    condition; a corrupted entry is a bug, InternalInconsistency."""

    def _ledger(self):
        return build_ledger(build(corpus.antipodal(2)), Fraction(5, 4))

    def test_known_entries_pass(self):
        ledger = self._ledger()
        report = check_ledger(ledger, known_differentials(ledger))
        assert report["entries_checked"] == 1
        assert set(report["classes"]) == {"Id", "c1"}

    def test_cross_class_entry_fails(self):
        ledger = self._ledger()
        twisted = next(g for g in ledger.generators if g.kind == "constant-twisted")
        untwisted = next(g for g in ledger.generators if g.kind == "constant-untwisted")
        bad = DifferentialEntry(twisted, untwisted, 1, PROVENANCE_PAPER)
        with pytest.raises(InternalInconsistency, match="homotopy classes differ"):
            check_ledger(ledger, [bad])

    def test_action_must_increase(self):
        # In U(1) a family's cells have Morse indices 0 and 1, so its top cell
        # sits one degree below its minimum cell at the same action.
        ledger = build_ledger(build(corpus.scalar_cyclic(2, n=1)), Fraction(5, 4))
        gamma0 = known_differentials(ledger)[0].source
        top = next(
            g for g in ledger.generators
            if g.kind == "cell" and g.homotopy_class == "Id" and g.morse_index == 1
        )
        assert gamma0.degree == top.degree + 1 and gamma0.action == top.action
        bad = DifferentialEntry(top, gamma0, 1, PROVENANCE_PAPER)
        with pytest.raises(InternalInconsistency, match="^ledger entry 0: action does not increase$"):
            check_ledger(ledger, [bad])

    def test_degree_step_must_be_one(self):
        ledger = self._ledger()
        gamma0 = known_differentials(ledger)[0].source
        twisted = next(g for g in ledger.generators if g.kind == "constant-twisted")
        # same class is violated first for this pair; build a same-class pair
        untwisted = next(g for g in ledger.generators if g.kind == "constant-untwisted")
        bad = DifferentialEntry(untwisted, gamma0, 1, PROVENANCE_PAPER)
        with pytest.raises(InternalInconsistency):
            check_ledger(ledger, [bad])
        assert twisted.degree == 2

    def test_foreign_generator_rejected(self):
        ledger = self._ledger()
        other = build_ledger(build(corpus.scalar_cyclic(3)), Fraction(1, 4))
        foreign = other.generators[0]
        gamma0 = known_differentials(ledger)[0].source
        bad = DifferentialEntry(gamma0, foreign, 1, PROVENANCE_PAPER)
        with pytest.raises(InternalInconsistency, match="outside the ledger"):
            check_ledger(ledger, [bad])

    def test_fuzzed_cross_class_entries_never_pass(self):
        import random

        rng = random.Random(4242)
        g = build(corpus.quaternion())
        ledger = build_ledger(g, Fraction(101, 97))
        gens = ledger.generators
        for _ in range(300):
            a, b = rng.choice(gens), rng.choice(gens)
            if a.homotopy_class == b.homotopy_class:
                continue
            with pytest.raises(InternalInconsistency):
                check_ledger(ledger, [DifferentialEntry(a, b, 1, PROVENANCE_PAPER)])


class TestVanishing:
    def test_examples(self):
        g = build(corpus.antipodal(2))
        assert sh_vanishing(g, CoefficientRing.parse("Q")) is True
        assert sh_vanishing(g, CoefficientRing.parse("Z/2")) is False
        assert sh_vanishing(g, CoefficientRing.parse("Z/3")) is True

    def test_integers(self):
        assert sh_vanishing(build(trivial()), CoefficientRing.parse("Z")) is True
        assert sh_vanishing(build(corpus.antipodal(2)), CoefficientRing.parse("Z")) is False

    def test_exhaustive_gcd_agreement(self):
        for k in range(1, 49):
            g = build(corpus.scalar_cyclic(k))
            for m in range(2, 31):
                expected = math.gcd(k, m) == 1
                assert sh_vanishing(g, CoefficientRing.parse(f"Z/{m}")) == expected

    def test_non_isolated_rejected(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["-1", "0"], ["0", "1"]]]}
        with pytest.raises(NonIsolated):
            sh_vanishing(build(doc), CoefficientRing.parse("Q"))
