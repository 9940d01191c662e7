"""Value semantics of the record classes: equality, hashing, immutability,
repr and the constructor checks."""

from fractions import Fraction

import pytest

from orbifill.chen_ruan import CRRing, CupConvention, FillingCRProfile
from orbifill.coefficients import CoefficientRing
from orbifill.constraints import BoundaryDescriptor, ConstraintSet
from orbifill.groups import ConjugacyClass, EigenData
from orbifill.reeb import MorseCell, OrbitFamily


def test_value_equality_and_hash():
    a = ConjugacyClass("c1", 3, (3, 5), 4, 2, Fraction(1, 2))
    b = ConjugacyClass(label="c1", representative_index=3, member_indices=(3, 5),
                       centralizer_order=4, order=2, age=Fraction(1, 2))
    assert a == b and hash(a) == hash(b) == hash(("c1", 3, (3, 5), 4, 2, Fraction(1, 2)))
    assert a != ConjugacyClass("c1", 3, (3, 5), 4, 4, Fraction(1, 2))
    assert len({a, b}) == 1
    assert CoefficientRing("Q") != BoundaryDescriptor("subcritical", 1)


def test_defaults_and_unhashable_fields():
    assert CoefficientRing("Z").modulus is None
    assert ConstraintSet((1,), ("r",), True) == ConstraintSet((1,), ("r",), True, None, None)
    with pytest.raises(TypeError):
        hash(EigenData(1, {0: 2}))


def test_frozen():
    family = OrbitFamily("Id", 0, Fraction(1), 2, Fraction(2))
    with pytest.raises(AttributeError, match="cannot assign to field 'period'"):
        family.period = Fraction(2)
    with pytest.raises(AttributeError):
        del family.fixed_dim
    assert family.period == 1


def test_repr_names_fields():
    assert repr(CoefficientRing("Z/m", 4)) == "CoefficientRing(kind='Z/m', modulus=4)"


def test_constructor_checks():
    with pytest.raises(ValueError, match="k must be at least 2"):
        BoundaryDescriptor("lens", 2, 1)
    with pytest.raises(ValueError, match="non-negative"):
        FillingCRProfile((1, -1), ())
    family = OrbitFamily("Id", 0, Fraction(1), 2, Fraction(2))
    with pytest.raises(ValueError, match="outside 0..3"):
        MorseCell(family, 4)


def test_ring_is_mutable_with_a_fresh_dict():
    first = CRRing(None, (), CupConvention.ORBIT_REPRESENTATIVE_SUM)
    second = CRRing(None, (), CupConvention.ORBIT_REPRESENTATIVE_SUM)
    first.structure_constants[(1, 1)] = (1,)
    assert second.structure_constants == {}
    assert first != second
    second.structure_constants[(1, 1)] = (1,)
    assert first == second
    assert "structure_constants" not in repr(first)
    with pytest.raises(TypeError):
        hash(first)
