"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion including its runtime against the stated budget.
"""

import math
import random
import time
from fractions import Fraction

from battery import battery_24, battery_48, build, corpus
from orbifill.chen_ruan import (
    CupConvention,
    associativity_sweep,
    build_ring,
    cr_of_filling,
    twisted_sectors,
)
from orbifill.coefficients import CoefficientRing
from orbifill.constraints import BoundaryDescriptor, constraint_for_boundary
from orbifill.cyclotomic import cyclotomic_polynomial, make, zeta
from orbifill.groups import age
from orbifill.ledger import build_ledger, check_ledger, known_differentials, sh_vanishing
from orbifill.reeb import MorseCell, cz_generator, families_below, mclean_discrepancy
from orbifill.spans import random_composition_battery


class _Timer:
    def __init__(self, number, budget, description):
        self.number = number
        self.budget = budget
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.budget
        print(
            f"[acceptance {self.number:02d}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / {self.budget:.0f}s) {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_01_chen_ruan_rank_of_antipodal_quotients():
    with _Timer(1, 1.0, "Chen-Ruan rank of C^n/(Z/2) is 2 in degrees {0, n}"):
        for n in range(2, 7):
            sectors = twisted_sectors(build(corpus.antipodal(n)))
            assert len(sectors) == 2
            assert [s.degree for s in sectors] == [0, n]
            ranks = cr_of_filling((1,), (build(corpus.antipodal(n)),))
            assert sum(ranks.values()) == 2
            assert set(ranks) == {Fraction(0), Fraction(n)}


def test_criterion_02_age_duality_across_battery():
    with _Timer(2, 10.0, "age(g) + age(g^-1) = n on every isolated group of order <= 48"):
        groups = battery_48()
        assert any(g.order == 48 for g in groups)
        for g in groups:
            n = g.dimension
            for cls in g.classes[1:]:
                rep = cls.representative_index
                assert age(g, rep) + age(g, g.table.inverses[rep]) == n, (g.name, cls.label)


def test_criterion_03_cz_periodicity():
    with _Timer(3, 5.0, "CZ index of each family grows by 2n per unit of period"):
        for g in battery_24():
            n = g.dimension
            # Each family below period 3 against its class's family one unit on.
            index = {(f.class_position, f.period): f.cz_index
                     for f in families_below(g, Fraction(401, 97))}
            for (pos, period), cz in index.items():
                if period < 3:
                    assert index[pos, period + 1] - cz == 2 * n


def test_criterion_04_gamma0_grading_and_forced_differential():
    with _Timer(4, 1.0 * len(battery_24()), "minimum contractible cell has degree -1 and kills |G| units"):
        for g in battery_24():
            (family,) = [f for f in families_below(g, Fraction(101, 97))
                         if (f.class_position, f.period) == (0, 1)]
            mu, degree = cz_generator(MorseCell(family, 0), g)
            assert degree == -1, g.name
            ledger = build_ledger(g, Fraction(101, 97))
            entries = known_differentials(ledger)
            assert len(entries) == 1
            (entry,) = entries
            assert entry.coefficient == g.order
            assert entry.source.degree == -1 and entry.target.degree == 0
            check_ledger(ledger, entries)


def test_criterion_05_composition_identity_battery():
    with _Timer(5, 30.0, "1000 seeded span pairs satisfy the composition identity"):
        report = random_composition_battery(1000, seed=20260811, max_order=24)
        assert report["trials"] == 1000
        assert report["all_equal"], report["failures"][:3]


def test_criterion_06_vanishing_predicate_exhaustive():
    with _Timer(6, 1.0, "vanishing iff gcd(|G|, m) = 1 for |G| <= 48, m <= 30"):
        for k in range(1, 49):
            g = build(corpus.scalar_cyclic(k))
            assert sh_vanishing(g, CoefficientRing.parse("Q")) is True
            for m in range(2, 31):
                expected = math.gcd(k, m) == 1
                assert sh_vanishing(g, CoefficientRing.parse(f"Z/{m}")) is expected
        two = build(corpus.antipodal(2))
        assert sh_vanishing(two, CoefficientRing.parse("Q")) is True
        assert sh_vanishing(two, CoefficientRing.parse("Z/2")) is False


def test_criterion_07_constraint_table():
    with _Timer(7, 1.0, "constraint bounds: Brieskorn(2,3) -> 1, Lens(2,3) -> 2, subcritical -> 1"):
        brieskorn = constraint_for_boundary(BoundaryDescriptor.parse("brieskorn:2,3"))
        assert brieskorn.effective_bound == 1
        lens = constraint_for_boundary(BoundaryDescriptor.parse("lens:2,3"))
        assert lens.effective_bound == 2
        assert lens.uniqueness == {"count": 1, "model": "C^3/(Z/2)"}
        sub = constraint_for_boundary(BoundaryDescriptor.parse("subcritical:3"))
        assert sub.effective_bound == 1


def test_criterion_08_mclean_criterion():
    with _Timer(8, 1.0, "discrepancy: C^2/(Z/2) -> 0, C^3/(Z/2) -> 1, A-type -> 0"):
        assert mclean_discrepancy(build(corpus.antipodal(2))) == (0, "canonical-not-terminal")
        assert mclean_discrepancy(build(corpus.antipodal(3))) == (1, "terminal")
        for k in range(2, 9):
            assert mclean_discrepancy(build(corpus.a_type(k))) == (0, "canonical-not-terminal")


def test_criterion_09_associativity_sweep():
    with _Timer(9, 60.0, "some cup convention passes associativity on every group <= 24"):
        named_verdicts = {}
        for g in battery_24():
            verdicts = {}
            for convention in CupConvention:
                ring = build_ring(g, convention)
                passed, _ = associativity_sweep(ring)
                verdicts[convention.value] = passed
            assert any(verdicts.values()), (g.name, verdicts)
            named_verdicts[g.name] = verdicts
        passing_everywhere = [
            c.value
            for c in CupConvention
            if all(v[c.value] for v in named_verdicts.values())
        ]
        assert passing_everywhere, named_verdicts
        print(f"  conventions passing the whole battery: {passing_everywhere}")


def test_criterion_10_cyclotomic_kernel():
    with _Timer(10, 30.0, "field axioms, inverses, Phi product, conjugation: 10^4 random cases"):
        conductors = [n for n in range(1, 61)]
        rng = random.Random(987654321)

        def rand_value(n):
            return make(
                n,
                [
                    (Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randrange(2 * n))
                    for _ in range(rng.randint(1, 4))
                ],
            )

        def poly_mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return out

        cases = 0
        for n in conductors:
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
            assert prod == [-1] + [0] * (n - 1) + [1]
            cases += 1
            assert make(n, [(1, n)]) == 1
            cases += 1
            if n >= 2:
                assert make(n, [(1, k) for k in range(n)]) == 0
                cases += 1
        while cases < 10_000:
            n = rng.choice(conductors)
            a, b, c = rand_value(n), rand_value(n), rand_value(n)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a.conjugate().conjugate() == a
            if not a.is_zero():
                assert a * a.inverse() == 1
            z = zeta(n, rng.randrange(1, n + 1))
            assert z * z.inverse() == 1
            cases += 7


def test_overall_summary():
    print("[acceptance] all criteria evaluated; see lines above")
