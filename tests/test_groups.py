"""Group enumeration, conjugacy structure, and exact eigenvalue data."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from battery import (
    a_type,
    antipodal,
    battery_48,
    binary_dihedral,
    binary_tetrahedral,
    build,
    quaternion,
    scalar_cyclic,
    times_scalars,
    trivial,
)
from orbifill import (
    GroupTooLarge,
    InternalInconsistency,
    NotUnitary,
    ParseError,
    age,
    canonical_document,
    centralizer_intersection,
    conjugacy_classes,
    document_digest,
    enumerate_group,
    parse_group,
)
from orbifill.cyclotomic import _reduction_table, euler_phi
from orbifill.groups import UnitaryElement, mat_conj_transpose, mat_mul


def character_formula(group, i):
    """Exact reference for eigen data: the multiplicity of zeta_o^m is
    (1/o) * sum_k zeta_o^(-mk) trace(g^k), evaluated in Q(zeta_lcm(N, o))."""
    powers = group.power_indices(i)
    o = len(powers)
    lift_to = math.lcm(group.conductor, o)
    traces = [
        [(e, c) for e, c in enumerate(group.elements[p].trace().lift(lift_to).coefficients) if c]
        for p in powers
    ]
    phi = euler_phi(lift_to)
    red = _reduction_table(lift_to)
    step = lift_to // o
    mults = {}
    for m in range(o):
        acc = [Fraction(0)] * phi
        for k in range(o):
            shift = (-m * k * step) % lift_to
            for e, c in traces[k]:
                idx = e + shift
                if idx < phi:
                    acc[idx] += c
                else:
                    for t, r in enumerate(red[idx]):
                        if r:
                            acc[t] += c * r
        assert not any(acc[1:])
        val = acc[0] / o
        assert val.denominator == 1 and val >= 0
        if val:
            mults[m] = int(val)
    return o, mults


def pythagorean_klein():
    """{+-I, +-R} with R the reflection [[3/5, 4/5], [4/5, -3/5]]. L = 4, and
    5, the first prime = 1 (mod 4), divides the entries' denominators."""
    reflection = [["3/5", "4/5"], ["4/5", "-3/5"]]
    return {"name": "klein5", "dimension": 2, "conductor": 2,
            "generators": [[["-1", "0"], ["0", "-1"]], reflection]}


class TestParsing:
    def test_antipodal_document(self):
        g = parse_group(antipodal(2))
        assert len(g.generators) == 1
        assert g.dimension == 2 and g.conductor == 2

    def test_a_type_document(self):
        for k in range(2, 9):
            g = parse_group(a_type(k))
            assert len(g.generators) == 1

    def test_not_unitary_names_entry(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["1/2", "0"], ["0", "1"]]]}
        with pytest.raises(NotUnitary) as info:
            parse_group(doc)
        assert info.value.generator == 0
        assert info.value.entry == (0, 0)

    def test_schema_violations_have_loci(self):
        with pytest.raises(ParseError, match="dimension"):
            parse_group({"conductor": 2, "generators": []})
        with pytest.raises(ParseError, match=r"generators\[0\]"):
            parse_group({"dimension": 2, "conductor": 2, "generators": [[["1", "0"]]]})
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_group("{not json")

    def test_entry_parse_error_has_locus(self):
        doc = {"dimension": 1, "conductor": 2, "generators": [[["bogus"]]]}
        with pytest.raises(ParseError, match=r"generators\[0\]\[0\]\[0\]"):
            parse_group(doc)


class TestEnumeration:
    def test_antipodal_order_two(self):
        assert build(antipodal(2)).order == 2

    def test_cyclic_eighth_roots(self):
        doc = {
            "dimension": 2,
            "conductor": 8,
            "generators": [[["z", "0"], ["0", "1*z^7"]]],
        }
        assert build(doc).order == 8

    def test_quaternion_order_eight(self):
        assert build(quaternion()).order == 8

    def test_identity_is_index_zero(self):
        g = build(quaternion())
        assert all(c == (1 if i == j else 0) for i, row in enumerate(g.elements[0].entries)
                   for j, c in enumerate(row))

    def test_closure_and_inverses(self):
        g = build(quaternion())
        table = g.mult_table
        n = g.order
        for i in range(n):
            assert 0 <= g.inverse_index(i) < n
            assert table[i][g.inverse_index(i)] == 0
            for j in range(n):
                assert 0 <= table[i][j] < n

    def test_table_matches_matrix_products(self):
        docs = [times_scalars(quaternion(), 3), times_scalars(binary_dihedral(3), 5)]
        for g in battery_48() + [build(d) for d in docs]:
            elements = g.elements
            for i, row in enumerate(g.mult_table):
                for j, k in enumerate(row):
                    product = UnitaryElement(mat_mul(elements[i].entries, elements[j].entries))
                    assert k == g.element_index(product), (g.name, i, j)

    def test_order_cap(self):
        with pytest.raises(GroupTooLarge):
            build(scalar_cyclic(30), max_order=10)

    def test_corrupt_table_power_walk_is_bounded(self):
        g = build(quaternion())
        i = 3
        g.mult_table[i][i] = i
        with pytest.raises(InternalInconsistency):
            g.power_indices(i)
        with pytest.raises(InternalInconsistency):
            g.eigen_multiplicities(i)

    def test_unenumerated_group_is_internal(self):
        group = parse_group(quaternion())
        with pytest.raises(InternalInconsistency, match="not enumerated"):
            group.order

    def test_trivial_group(self):
        g = build(trivial())
        assert g.order == 1 and g.classes[0].label == "Id"


class TestConjugacyClasses:
    def test_abelian_groups_have_singleton_classes(self):
        g = build(antipodal(3))
        assert [c.size for c in g.classes] == [1, 1]
        assert all(c.centralizer_order == 2 for c in g.classes)
        z3 = build(scalar_cyclic(3))
        assert len(z3.classes) == 3
        assert all(c.size == 1 for c in z3.classes)

    def test_quaternion_class_sizes(self):
        g = build(quaternion())
        assert sorted(c.size for c in g.classes) == [1, 1, 2, 2, 2]

    def test_orbit_stabilizer(self):
        for g in battery_48():
            for c in g.classes:
                assert c.size * c.centralizer_order == g.order
            assert sum(c.size for c in g.classes) == g.order

    def test_centralizer_is_subgroup(self):
        g = build(quaternion())
        table = g.mult_table
        for c in g.classes:
            cent = set(c.centralizer_indices)
            assert 0 in cent
            for a in cent:
                for b in cent:
                    assert table[a][b] in cent

    def test_class_ordering_is_by_age(self):
        from orbifill import age

        for g in battery_48():
            ages = [age(g, c.representative_index) for c in g.classes]
            assert ages == sorted(ages)
            assert ages[0] == 0


class TestCentralizerIntersection:
    def test_identity_pair(self):
        g = build(quaternion())
        assert centralizer_intersection(g, 0, 0) == g.order

    def test_abelian(self):
        g = build(scalar_cyclic(5))
        assert centralizer_intersection(g, 1, 3) == 5

    def test_quaternion_center(self):
        g = build(quaternion())
        size2 = [c for c in g.classes if c.size == 2]
        i_rep, j_rep = size2[0].representative_index, size2[1].representative_index
        assert centralizer_intersection(g, i_rep, j_rep) == 2


class TestEigenData:
    def test_minus_identity(self):
        for n in (2, 3, 5):
            g = build(antipodal(n))
            data = g.eigen_multiplicities(1)
            assert data.order == 2 and data.multiplicities == {1: n}

    def test_scalar_cyclic(self):
        g = build(scalar_cyclic(3))
        rep = g.classes[1].representative_index
        data = g.eigen_multiplicities(rep)
        assert data.order == 3 and data.multiplicities == {1: 2}

    def test_identity(self):
        g = build(quaternion())
        data = g.eigen_multiplicities(0)
        assert data.multiplicities == {0: 2}

    def test_multiplicities_sum_to_dimension(self):
        for g in battery_48():
            for cls in g.classes:
                data = g.eigen_multiplicities(cls.representative_index)
                assert sum(data.multiplicities.values()) == g.dimension

    def test_class_function_property(self):
        # Conjugate elements carry identical eigenvalue data.
        for g in battery_48():
            for cls in g.classes:
                datas = [g.eigen_multiplicities(m) for m in cls.member_indices]
                assert all(
                    d.multiplicities == datas[0].multiplicities and d.order == datas[0].order
                    for d in datas
                )

    @pytest.mark.parametrize(
        "doc",
        [
            times_scalars(quaternion(), 3),
            times_scalars(quaternion(), 5),
            times_scalars(binary_dihedral(3), 5),
            scalar_cyclic(30, n=3),
            binary_tetrahedral(),
            pythagorean_klein(),
        ],
        ids=lambda d: d["name"],
    )
    def test_against_character_formula(self, doc):
        self._check_against_character_formula(build(doc))

    def test_against_character_formula_battery(self):
        for g in battery_48():
            self._check_against_character_formula(g)

    @staticmethod
    def _check_against_character_formula(g):
        for i in range(g.order):
            o, mults = character_formula(g, i)
            data = g.eigen_multiplicities(i)
            assert (data.order, data.multiplicities) == (o, mults), (g.name, i)
            assert g.fixed_space_dimension(i) == mults.get(0, 0), (g.name, i)

    def test_reduction_prime_skips_denominators(self):
        g = build(pythagorean_klein())
        assert g.order == 4
        assert g._reduction.prime == 13

    def test_against_float_eigendecomposition(self):
        # Independent oracle: numerical eigenvalues of the complex matrix.
        for g in battery_48():
            if g.order > 16:
                continue
            for cls in g.classes:
                idx = cls.representative_index
                data = g.eigen_multiplicities(idx)
                mat = np.array(
                    [[c.approx() for c in row] for row in g.elements[idx].entries]
                )
                angles = np.angle(np.linalg.eigvals(mat)) / (2 * np.pi) % 1.0
                got = sorted(angles)
                expected = sorted(
                    (m / data.order) % 1.0
                    for m, mult in data.multiplicities.items()
                    for _ in range(mult)
                )
                assert np.allclose(got, expected, atol=1e-9)


class TestIsolated:
    def test_antipodal_isolated(self):
        for n in (2, 3, 6):
            assert build(antipodal(n)).is_isolated_singularity() == (True, None)

    def test_quaternion_isolated(self):
        assert build(quaternion()).is_isolated_singularity()[0]

    def test_reflection_not_isolated_with_witness(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["-1", "0"], ["0", "1"]]]}
        g = build(doc)
        ok, witness = g.is_isolated_singularity()
        assert not ok
        assert witness is not None
        assert g.fixed_space_dimension(witness) > 0


class TestCanonicalForm:
    def test_digest_ignores_whitespace_and_spelling(self):
        doc_a = {"name": "x", "dimension": 2, "conductor": 4,
                 "generators": [[["z", "0"], ["0", "-1*z^1"]]]}
        doc_b = json.dumps(doc_a, indent=7)
        doc_c = {"name": "x", "dimension": 2, "conductor": 4,
                 "generators": [[[" z ", "0"], ["0", " - 1 * z ^ 1 "]]]}
        assert document_digest(doc_a) == document_digest(doc_b) == document_digest(doc_c)

    def test_digest_changes_with_content(self):
        assert document_digest(antipodal(2)) != document_digest(antipodal(3))

    def test_digest_of_parsed_group_equals_digest_of_document(self):
        for doc in (antipodal(2), quaternion(), times_scalars(binary_dihedral(3), 5)):
            text = json.dumps(doc)
            group = parse_group(text)
            assert document_digest(group) == document_digest(text) == document_digest(doc)
            assert canonical_document(group) == canonical_document(doc)

    def test_canonical_document_shape(self):
        canon = canonical_document(antipodal(2))
        assert set(canon) == {"name", "dimension", "conductor", "generators"}


class TestClassesAPI:
    def test_conjugacy_classes_function(self):
        g = build(quaternion())
        assert conjugacy_classes(g) is g.classes

    def test_enumerate_is_idempotent(self):
        g = build(antipodal(2))
        assert enumerate_group(g) is g


def fraction_key(element):
    """The element key as it was before keys were ints: the entries'
    Fraction coefficients, which class order breaks its ties on."""
    return tuple(x.coefficients for row in element.entries for x in row)


def leaves(value):
    if isinstance(value, tuple):
        for v in value:
            yield from leaves(v)
    else:
        yield value


def commuting_reflections():
    """diag(R, 1) and diag(1, 1, -1) with R = [[3/5, 4/5], [4/5, -3/5]]: two
    classes of age 1/2 and size 1 whose representatives tie until the key.
    Their first entries 3/5 < 1 order them one way as Fractions and the
    other way as (den, nums) pairs, since 5 > 1."""
    return {"name": "refl3", "dimension": 3, "conductor": 2, "generators": [
        [["3/5", "4/5", "0"], ["4/5", "-3/5", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]]}


class TestIntegerKeys:
    @pytest.fixture(scope="class")
    def groups(self):
        docs = [times_scalars(quaternion(), 3), times_scalars(quaternion(), 5),
                times_scalars(binary_dihedral(3), 5), binary_tetrahedral(),
                commuting_reflections()]
        return battery_48() + [build(d) for d in docs]

    def test_keys_hold_only_ints(self, groups):
        for g in groups:
            for e in g.elements:
                assert all(type(v) is int for v in leaves(e.key)), g.name

    def test_class_order_keeps_fraction_tie_break(self, groups):
        for g in groups:
            classes = g.classes
            expected = sorted(classes, key=lambda c: (
                age(g, c.representative_index), c.size,
                fraction_key(g.elements[c.representative_index])))
            assert [c.representative_index for c in classes] == [
                c.representative_index for c in expected], g.name
            assert [c.label for c in classes] == [
                "Id" if c.representative_index == 0 else f"c{pos}"
                for pos, c in enumerate(expected)], g.name

    def test_inverses_from_table(self, groups):
        for g in groups:
            for i, e in enumerate(g.elements):
                inv = g.elements[g.inverse_index(i)]
                assert inv == UnitaryElement(mat_conj_transpose(e.entries)), g.name

