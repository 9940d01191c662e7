"""Divisibility constraints, admissibility, and the uniqueness report."""

import math
import random

import pytest

from battery import build, corpus, trivial
from orbifill.constraints import (
    BoundaryDescriptor,
    admissible,
    constraint_for_boundary,
    is_squarefree,
    rp_report,
)
from orbifill.errors import NotApplicable


def brute_force_squarefree(k):
    return all(k % (d * d) for d in range(2, math.isqrt(k) + 1))


class TestDescriptors:
    def test_parse(self):
        b = BoundaryDescriptor.parse("lens:2,3")
        assert (b.variant, b.k, b.n, b.dimension) == ("lens", 2, 3, 5)
        assert BoundaryDescriptor.parse("brieskorn:2,3").describe() == "brieskorn:2,3"
        assert BoundaryDescriptor.parse("subcritical:4").dimension == 7
        assert BoundaryDescriptor.parse("dilation:3").variant == "dilation"

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            BoundaryDescriptor.parse("lens:1,3")
        with pytest.raises(ValueError):
            BoundaryDescriptor.parse("brieskorn:2,1")
        with pytest.raises(ValueError):
            BoundaryDescriptor.parse("mystery:2,3")
        with pytest.raises(ValueError):
            BoundaryDescriptor.parse("lens:2")

    def test_constructor_rejects_unknown_variant(self):
        with pytest.raises(ValueError) as info:
            BoundaryDescriptor("torus", 2)
        assert str(info.value) == "unknown boundary variant 'torus'"


class TestConstraintTables:
    def test_smooth_boundaries(self):
        for desc in ("subcritical:3", "dilation:4"):
            cs = constraint_for_boundary(BoundaryDescriptor.parse(desc))
            assert cs.applicable and cs.effective_bound == 1

    def test_brieskorn_two_three(self):
        cs = constraint_for_boundary(BoundaryDescriptor.parse("brieskorn:2,3"))
        assert cs.divisors == (2, 1)
        assert cs.effective_bound == 1

    def test_brieskorn_hypothesis_failure(self):
        cs = constraint_for_boundary(BoundaryDescriptor.parse("brieskorn:3,3"))
        assert not cs.applicable
        assert "k < n" in cs.reason
        with pytest.raises(NotApplicable):
            cs.effective_bound

    def test_brieskorn_refinement_cases(self):
        # strict half: refined
        cs = constraint_for_boundary(BoundaryDescriptor.parse("brieskorn:2,7"))
        assert math.factorial(1) in cs.divisors
        # boundary case with squarefree k: refined
        cs = constraint_for_boundary(BoundaryDescriptor.parse("brieskorn:3,5"))
        assert cs.divisors == (6, 2)
        # boundary case with non-squarefree k = 4, n = 7: not refined
        cs = constraint_for_boundary(BoundaryDescriptor.parse("brieskorn:4,7"))
        assert cs.divisors == (24,)

    def test_lens_two_three(self):
        cs = constraint_for_boundary(BoundaryDescriptor.parse("lens:2,3"))
        assert cs.divisors == (2, 8)
        assert cs.effective_bound == 2
        assert cs.uniqueness == {"count": 1, "model": "C^3/(Z/2)"}

    def test_lens_without_power_bound(self):
        cs = constraint_for_boundary(BoundaryDescriptor.parse("lens:3,2"))
        assert cs.divisors == (6,)
        assert cs.uniqueness is None

    def test_lens_power_of_two_has_no_uniqueness(self):
        cs = constraint_for_boundary(BoundaryDescriptor.parse("lens:2,4"))
        assert cs.uniqueness is None

    def test_refinement_never_increases_bound(self):
        for n in range(2, 13):
            for k in range(2, n):
                cs = constraint_for_boundary(BoundaryDescriptor("brieskorn", n, k))
                base = math.gcd(math.factorial(k))
                assert cs.effective_bound <= base
                assert base % cs.effective_bound == 0


class TestAdmissible:
    def test_order_two_lens(self):
        ok, why = admissible(build(corpus.antipodal(3)), BoundaryDescriptor.parse("lens:2,3"))
        assert ok

    def test_order_three_lens(self):
        ok, why = admissible(
            build(corpus.scalar_cyclic(3, n=3)), BoundaryDescriptor.parse("lens:2,3")
        )
        assert not ok
        assert "does not divide 2" in why

    def test_order_four_brieskorn(self):
        ok, _ = admissible(
            build(corpus.scalar_cyclic(4)), BoundaryDescriptor.parse("brieskorn:2,3")
        )
        assert not ok

    def test_quaternion_various(self):
        q = build(corpus.quaternion())
        ok, _ = admissible(q, BoundaryDescriptor.parse("lens:8,2"))
        assert ok  # 8 divides 8!
        ok, _ = admissible(q, BoundaryDescriptor.parse("subcritical:2"))
        assert not ok

    def test_trivial_group_always_admissible(self):
        t = build(trivial())
        for desc in ("lens:2,3", "lens:5,2", "brieskorn:2,3", "subcritical:3", "dilation:2"):
            ok, _ = admissible(t, BoundaryDescriptor.parse(desc))
            assert ok, desc

    def test_not_applicable_raises(self):
        with pytest.raises(NotApplicable):
            admissible(build(trivial()), BoundaryDescriptor.parse("brieskorn:4,3"))


class TestRpReport:
    def test_uniqueness_holds(self):
        report = rp_report(3)
        assert report["uniqueness"] == {"count": 1, "model": "C^3/(Z/2)"}
        assert "exactly one" in report["conclusion"]

    def test_powers_of_two_inconclusive(self):
        for n in (2, 4, 8, 16):
            report = rp_report(n)
            assert report["conclusion"] is None

    def test_other_values(self):
        for n in (3, 5, 6, 7, 9, 12):
            assert rp_report(n)["conclusion"] is not None


class TestSquarefree:
    def test_small_values(self):
        assert [k for k in range(1, 31) if is_squarefree(k)] == [
            1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30,
        ]

    def test_against_brute_force(self):
        for k in range(1, 200001):
            assert is_squarefree(k) == brute_force_squarefree(k), k

    def test_seeded_samples_up_to_a_million(self):
        rng = random.Random(31337)
        for _ in range(2000):
            k = rng.randint(200001, 10**6)
            assert is_squarefree(k) == brute_force_squarefree(k), k

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            is_squarefree(0)
