"""Ages, twisted sectors, the cup product, pairing, and filling ranks."""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from battery import (BD12_MU5, Q8_MU3, Q8_MU5, Z7_SEMIDIRECT_Z9, battery_24, battery_48,
                     binary_tetrahedral, build, corpus, table_of, trivial)
from orbifill import chen_ruan, ledger, reeb
from orbifill.chen_ruan import (
    CRRing,
    CupConvention,
    associativity_sweep,
    build_ring,
    choose_ring,
    commutativity_check,
    cr_of_filling,
    cr_pairing_check,
    twisted_sectors,
)
from orbifill.errors import NonIsolated
from orbifill.groups import age
from orbifill.tables import FiniteGroupTable


def reference_constants(group, convention):
    """Exact reference for the structure constants: every pair (h1, h2) of
    class members with product in C_k and additive ages contributes
    |Z(h_k)| / |Z(h1) & Z(h2)|; the orbit reading keeps one pair per
    simultaneous-conjugation orbit, found as the orbit's minimum over G.
    Sector pairs whose product is empty are left out, as the ring stores
    them."""
    sectors = twisted_sectors(group)
    table = table_of(group)
    inv = [group.table.inverses[g] for g in range(group.order)]
    ages = [s.age for s in sectors]

    def centralizer(h):
        return {x for x in range(group.order) if table[x][h] == table[h][x]}

    constants = {}
    for i in range(1, len(sectors)):
        for j in range(1, len(sectors)):
            contributions = {}
            seen_orbits = set()
            for h1 in sectors[i].member_indices:
                for h2 in sectors[j].member_indices:
                    p = table[h1][h2]
                    if p == 0:
                        continue
                    k = group.class_position(p)
                    if ages[i] + ages[j] != ages[k]:
                        continue
                    if convention is CupConvention.ORBIT_REPRESENTATIVE_SUM:
                        orbit = min(
                            (table[table[g][h1]][inv[g]], table[table[g][h2]][inv[g]])
                            for g in range(group.order)
                        )
                        if orbit in seen_orbits:
                            continue
                        seen_orbits.add(orbit)
                    inter = len(centralizer(h1) & centralizer(h2))
                    coeff = Fraction(sectors[k].centralizer_order, inter)
                    contributions[k] = contributions.get(k, Fraction(0)) + coeff
            terms = tuple(sorted((k, c) for k, c in contributions.items() if c))
            if terms:
                constants[(i, j)] = terms
    return constants


def definition_constants(group):
    """The ring from its definition: products of class sums in the group
    algebra, where h1 * h2 counts when age(h1) + age(h2) = age(h1 * h2) and
    is 0 otherwise, written in class sums. Empty products are left out."""
    table = table_of(group)
    ages = [age(group, x) for x in range(group.order)]
    classes = group.classes
    constants = {}
    for i in range(1, len(classes)):
        for j in range(1, len(classes)):
            product = Counter(
                table[h1][h2]
                for h1 in classes[i].member_indices
                for h2 in classes[j].member_indices
                if ages[h1] + ages[h2] == ages[table[h1][h2]]
            )
            terms = []
            for k, cls in enumerate(classes):
                coefficient = {product[x] for x in cls.member_indices}
                # A product of class sums is central: constant on each class.
                assert len(coefficient) == 1, (group.name, i, j, cls.label)
                if product[cls.representative_index]:
                    terms.append((k, product[cls.representative_index]))
            if terms:
                constants[(i, j)] = tuple(terms)
    return constants


def reference_sides(ring, a, b, c):
    """([a][b])[c] and [a]([b][c]) in Fractions from the structure
    constants, with any zero-valued terms kept. Sector 0 is the unit: a
    product with it is the other factor, whatever the stored constants."""
    def cup(i, j):
        return ((i + j, 1),) if 0 in (i, j) else ring.structure_constants.get((i, j), ())

    left, right = {}, {}
    for t, x in cup(a, b):
        for u, y in cup(t, c):
            left[u] = left.get(u, Fraction(0)) + x * y
    for t, x in cup(b, c):
        for u, y in cup(a, t):
            right[u] = right.get(u, Fraction(0)) + x * y
    return left, right


def reference_sweep(ring):
    """Exact reference for the associativity sweep: every triple, in
    lexicographic order, evaluated in Fractions by ``reference_sides``."""
    count = ring.sector_count()
    for a in range(count):
        for b in range(count):
            for c in range(count):
                left, right = (
                    {k: v for k, v in side.items() if v}
                    for side in reference_sides(ring, a, b, c)
                )
                if left != right:
                    return False, {"triple": (a, b, c), "left": left, "right": right}
    return True, None


WOLF_DOCS = [Q8_MU3, Q8_MU5, BD12_MU5]


@pytest.fixture(scope="module")
def reference_groups():
    # Z7 x| Z9 goes before the Wolf-type groups, which the tests below read
    # from the end of the list.
    return battery_48() + [build(Z7_SEMIDIRECT_Z9)] + [build(d) for d in WOLF_DOCS]


class TestAge:
    def test_identity_age_zero(self):
        g = build(corpus.quaternion())
        assert age(g, 0) == 0

    def test_minus_identity(self):
        for n in (2, 3, 6):
            g = build(corpus.antipodal(n))
            assert age(g, 1) == Fraction(n, 2)

    def test_a_type_generator_age_one(self):
        for k in range(2, 9):
            g = build(corpus.a_type(k))
            gen_index = next(
                i for i in range(1, g.order) if g.eigen_multiplicities(i).order == k
            )
            assert age(g, gen_index) == 1

    def test_age_is_class_function(self):
        for g in battery_24():
            for cls in g.classes:
                ages = {age(g, m) for m in cls.member_indices}
                assert len(ages) == 1

    def test_age_positive_off_identity(self):
        for g in battery_48():
            for cls in g.classes[1:]:
                a = age(g, cls.representative_index)
                assert 0 < a < g.dimension
                assert cls.order % a.denominator == 0


class TestTwistedSectors:
    def test_antipodal_degrees(self):
        for n in range(2, 7):
            sectors = twisted_sectors(build(corpus.antipodal(n)))
            assert [s.degree for s in sectors] == [0, n]
            assert len(sectors) == 2

    def test_scalar_cyclic_three(self):
        sectors = twisted_sectors(build(corpus.scalar_cyclic(3)))
        assert [str(s.degree) for s in sectors] == ["0", "4/3", "8/3"]

    def test_quaternion_degrees(self):
        sectors = twisted_sectors(build(corpus.quaternion()))
        assert [s.degree for s in sectors] == [0, 2, 2, 2, 2]

    def test_sorted_untwisted_first(self):
        for g in battery_24():
            sectors = twisted_sectors(g)
            assert sectors[0].label == "Id" and sectors[0].degree == 0
            degrees = [s.degree for s in sectors]
            assert degrees == sorted(degrees)

    def test_non_isolated_rejected_with_witness(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["-1", "0"], ["0", "1"]]]}
        g = build(doc)
        with pytest.raises(NonIsolated) as info:
            twisted_sectors(g)
        assert info.value.witness is not None

    def test_sectors_are_the_classes_with_their_ages(self):
        for g in battery_48():
            assert twisted_sectors(g) is g.classes, g.name
            for cls in g.classes:
                assert cls.age == age(g, cls.representative_index), (g.name, cls.label)
                assert cls.degree == 2 * cls.age

    def test_reeb_and_ledger_read_ages_from_groups(self):
        for module in (reeb, ledger):
            tree = ast.parse(Path(module.__file__).read_text())
            imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
            imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                         for alias in node.names]
            assert not [m for m in imported if m and m.split(".")[-1] == "chen_ruan"], (
                module.__name__, imported)


class TestCupProduct:
    def test_scalar_cyclic_three_products(self):
        for convention in CupConvention:
            ring = build_ring(build(corpus.scalar_cyclic(3)), convention)
            constants = ring.structure_constants
            assert constants[(1, 1)] == ((2, 1),)
            assert (1, 2) not in constants
            assert (2, 2) not in constants

    def test_quaternion_products_vanish(self):
        # All nontrivial ages are 1, so additivity can never match a target.
        ring = build_ring(build(corpus.quaternion()), CupConvention.FULL_PAIR_SUM)
        for i in range(1, 5):
            for j in range(1, 5):
                assert (i, j) not in ring.structure_constants

    def test_degree_additivity(self):
        for g in battery_24():
            for convention in CupConvention:
                ring = build_ring(g, convention)
                for i in range(1, ring.sector_count()):
                    for j in range(1, ring.sector_count()):
                        for k, coeff in ring.structure_constants.get((i, j), ()):
                            assert coeff > 0
                            assert (
                                ring.sectors[k].degree
                                == ring.sectors[i].degree + ring.sectors[j].degree
                            )

    def test_commutativity(self):
        for g in battery_24():
            for convention in CupConvention:
                ring = build_ring(g, convention)
                ok, pair = commutativity_check(ring)
                assert ok, (g.name, convention, pair)

    def test_associativity_sweep_battery(self):
        for g in battery_24():
            verdicts = {}
            for convention in CupConvention:
                ring = build_ring(g, convention)
                verdicts[convention], _ = associativity_sweep(ring)
            assert any(verdicts.values()), (g.name, verdicts)

    def test_choose_ring_reports_verdicts(self):
        ring, verdicts = choose_ring(build(corpus.scalar_cyclic(4)))
        assert set(verdicts) == {"full-pairs", "orbit-reps"}
        assert ring.convention is CupConvention.FULL_PAIR_SUM

    def test_rows_only_for_reachable_sectors(self, monkeypatch):
        # A product of twisted sectors has age at least 2 * age_1, so only
        # sectors at or above it need a row. Every twisted age of a binary
        # dihedral group is 1, so none does.
        calls, row = [], FiniteGroupTable.row
        monkeypatch.setattr(FiniteGroupTable, "row",
                            lambda t, i: (t is g.table and calls.append(i)) or row(t, i))
        for doc in (corpus.binary_dihedral(6), Q8_MU5):
            g = build(doc)
            ages = [s.age for s in twisted_sectors(g)]
            expected = sum(1 for a in ages[1:] if a >= 2 * ages[1])
            for convention in CupConvention:
                calls.clear()
                ring = build_ring(g, convention)
                assert len(calls) == expected, (g.name, convention)
                assert ring.structure_constants == reference_constants(g, convention)
            assert expected == (0 if g.name.startswith("BD") else 23), g.name

    def test_one_search_per_orbit(self, monkeypatch):
        # Full-pairs reads a weight as the size of the closure of (h1, rep) and
        # gives that size to every (x, rep) in it, so the orbits searched at
        # one rep are pairwise disjoint: no orbit is searched twice.
        searched, closure = {}, chen_ruan.closure

        def recorded(start, moves, max_order):
            found = closure(start, moves, max_order)
            searched.setdefault(start[1], []).append(set(found[0]))
            return found

        monkeypatch.setattr(chen_ruan, "closure", recorded)
        for doc in (Z7_SEMIDIRECT_Z9, Q8_MU5, binary_tetrahedral(5)):
            g = build(doc)
            searched.clear()
            build_ring(g, CupConvention.FULL_PAIR_SUM)
            assert searched, g.name
            for rep, orbits in searched.items():
                assert sum(map(len, orbits)) == len(set().union(*orbits)), (g.name, rep)

    def test_store_holds_nonzero_products_only(self):
        # A pair (i, j) is stored exactly when some h1 in C_i and h2 in C_j
        # have additive ages, read from the table; both conventions give
        # such a pair a positive weight.
        for g in battery_48():
            table, classes = table_of(g), g.classes
            ages = [age(g, x) for x in range(g.order)]
            nonempty = {
                (i, j) for i in range(1, len(classes)) for j in range(1, len(classes))
                if any(ages[h1] + ages[h2] == ages[table[h1][h2]]
                       for h1 in classes[i].member_indices for h2 in classes[j].member_indices)
            }
            for convention in CupConvention:
                ring = build_ring(g, convention)
                assert ring.structure_constants.keys() == nonempty, (g.name, convention)
                assert all(ring.structure_constants.values()), (g.name, convention)


class TestAgainstReference:
    def test_structure_constants(self, reference_groups):
        for g in reference_groups:
            for convention in CupConvention:
                ring = build_ring(g, convention)
                assert ring.structure_constants == reference_constants(g, convention), (
                    g.name, convention)

    def test_ring_from_its_definition(self, reference_groups):
        groups = reference_groups + [build(binary_tetrahedral(5))]
        for g in groups:
            ring = build_ring(g, CupConvention.ORBIT_REPRESENTATIVE_SUM)
            assert ring.structure_constants == definition_constants(g), g.name

    def test_sweep(self, reference_groups):
        failing = set()
        for g in reference_groups:
            for convention in CupConvention:
                ring = build_ring(g, convention)
                result = associativity_sweep(ring)
                assert result == reference_sweep(ring), (g.name, convention)
                if not result[0]:
                    failing.add((g.name, convention.value))
        # Full-pairs is not associative on the Wolf-type free actions, so the
        # counterexample path, left and right included, is compared there.
        assert failing == {(d.name, "full-pairs") for d in WOLF_DOCS}

    def test_sweep_fractional_constants(self, reference_groups):
        # Built rings have int constants; dividing each by k + 1 gives
        # mixed denominators, so the sweep's exact sums over Fractions and
        # the Fraction terms of left/right are compared too.
        for g in reference_groups[-len(WOLF_DOCS):]:
            for convention in CupConvention:
                built = build_ring(g, convention)
                ring = CRRing(g, built.sectors, convention, {
                    key: tuple((k, c / (k + 1)) for k, c in terms)
                    for key, terms in built.structure_constants.items()
                })
                assert associativity_sweep(ring) == reference_sweep(ring), (g.name, convention)

    def test_sweep_reports_smallest_c(self):
        # mu7 on C^2 multiplies c_a * c_b = c_(a+b) for a + b < 7. Three
        # perturbed constants: [2][1] gains the zero-valued term 0 * c4, so
        # (1, 1, 1) and (1, 2, 1) differ only by zero-valued terms, and [3][2]
        # and [3][3] are rescaled, so (1, 2, 2) and (1, 2, 3) both fail. The
        # sweep must pass over (1, 1) and report c = 2 for (1, 2).
        ring = build_ring(build(corpus.scalar_cyclic(7)), CupConvention.ORBIT_REPRESENTATIVE_SUM)
        assert ring.structure_constants == {
            (a, b): ((a + b, 1),) for a in range(1, 7) for b in range(1, 7) if a + b < 7}
        ring.structure_constants.update({
            (2, 1): ((3, Fraction(1)), (4, Fraction(0))),
            (3, 2): ((5, Fraction(1, 2)),),
            (3, 3): ((6, Fraction(3, 2)),),
        })

        def verdict(a, b, c):
            left, right = reference_sides(ring, a, b, c)
            if left == right:
                return "equal"
            nonzero = [{k: v for k, v in side.items() if v} for side in (left, right)]
            return "zero terms" if nonzero[0] == nonzero[1] else "fail"

        assert [verdict(1, 1, c) for c in range(1, 7)] == ["zero terms"] + ["equal"] * 5
        assert [verdict(1, 2, c) for c in range(1, 4)] == ["zero terms", "fail", "fail"]
        result = associativity_sweep(ring)
        assert result == reference_sweep(ring)
        assert result[1]["triple"] == (1, 2, 2)
        # [1][2] = c3 and [2][1] = c3 + 0 * c4 differ as coefficient maps.
        assert commutativity_check(ring) == (False, (1, 2))
        report = chen_ruan.sector_report(ring, result)
        labels = [s.label for s in ring.sectors]
        assert report["associativity_counterexample"] == {
            "triple": [labels[1], labels[2], labels[2]]}
        assert report["commutativity_counterexample"] == [labels[1], labels[2]]

    def test_sweep_fails_outside_the_first_closure(self, monkeypatch):
        # Hand-made constants on five sectors: [1][1] = c2, [3][3] = c4 and
        # [4][3] = c2, while [3][4] = 0. Sector 1 reaches only c2, so c3 is
        # a second generating middle, and (3 3) 3 = c2 but 3 (3 3) = 0: only
        # b = 3 fails. The failure found among the middles [1, 3] sends the
        # sweep over every b, which reports the reference's triple.
        g = build(corpus.scalar_cyclic(5))
        ring = CRRing(g, twisted_sectors(g), CupConvention.ORBIT_REPRESENTATIVE_SUM,
                      {(1, 1): ((2, 1),), (3, 3): ((4, 1),), (4, 3): ((2, 1),)})

        def fails(a, b, c):
            left, right = ({k: v for k, v in side.items() if v}
                           for side in reference_sides(ring, a, b, c))
            return left != right

        assert {b for a in range(5) for b in range(5) for c in range(5) if fails(a, b, c)} == {3}
        passes = []
        first_failure = chen_ruan._first_failure
        monkeypatch.setattr(chen_ruan, "_first_failure",
                            lambda *args: passes.append(list(args[2])) or first_failure(*args))
        result = associativity_sweep(ring)
        assert passes == [[1, 3], [1, 2, 3, 4]]
        assert result == reference_sweep(ring)
        assert result[1]["triple"] == (3, 3, 3)

    def test_ring_without_products_builds_no_sweep(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a ring without products was swept")

        monkeypatch.setattr(chen_ruan, "_first_failure", unexpected)
        for doc in (corpus.binary_dihedral(6), corpus.quaternion()):
            for convention in CupConvention:
                ring = build_ring(build(doc), convention)
                assert ring.structure_constants == {}
                assert associativity_sweep(ring) == reference_sweep(ring) == (True, None)

    def test_sweep_on_mu60_visits_one_middle(self, monkeypatch):
        # mu60 is generated by c1: the (a, b) loop runs over b = 1 alone,
        # so it evaluates 59 pairs, not 59 * 59.
        pairs = []
        first_failure = chen_ruan._first_failure

        def counted(prod, support, middles):
            class Middles(list):
                def __iter__(self):
                    for b in list.__iter__(self):
                        pairs.append(b)
                        yield b

            return first_failure(prod, support, Middles(middles))

        monkeypatch.setattr(chen_ruan, "_first_failure", counted)
        for convention in CupConvention:
            pairs.clear()
            ring = build_ring(build(corpus.scalar_cyclic(60)), convention)
            assert ring.sector_count() == 60
            assert associativity_sweep(ring) == (True, None)
            assert pairs == [1] * 59, convention

    def test_conventions_differ_on_z7_semidirect_z9(self):
        # Both rings pass the sweep, but 13 of the 14 nonzero ordered
        # products differ by exactly a factor of 3 (full-pairs over
        # orbit-reps); c1 * c1 -> c11 is the same in both.
        g = build(Z7_SEMIDIRECT_Z9)
        assert (g.order, len(g.classes)) == (63, 15)
        full, orbit = (build_ring(g, c) for c in CupConvention)
        assert associativity_sweep(full)[0] and associativity_sweep(orbit)[0]
        assert full.structure_constants.keys() == orbit.structure_constants.keys()
        ratios = {}
        for key, terms in orbit.structure_constants.items():
            full_terms = full.structure_constants[key]
            assert [k for k, _ in full_terms] == [k for k, _ in terms], key
            ratios[key] = {f / c for (_, f), (_, c) in zip(full_terms, terms)}
        assert len(ratios) == 14
        assert sorted(r for r in ratios.values() if r != {3}) == [{1}]
        assert ratios[(1, 1)] == {1}

    def test_choose_ring_sweeps(self, reference_groups):
        ring, sweeps = choose_ring(reference_groups[-1])
        assert ring.convention is CupConvention.ORBIT_REPRESENTATIVE_SUM
        for convention in CupConvention:
            assert sweeps[convention.value] == reference_sweep(build_ring(reference_groups[-1], convention))


class TestPairing:
    def test_antipodal(self):
        report = cr_pairing_check(build(corpus.antipodal(3)))
        assert report["all_pass"]
        assert report["pairs"][0]["sector"] == report["pairs"][0]["dual"]

    def test_scalar_cyclic_three(self):
        g = build(corpus.scalar_cyclic(3))
        report = cr_pairing_check(g)
        assert report["all_pass"]
        degrees = {(p["degree"], p["dual_degree"]) for p in report["pairs"]}
        assert degrees == {("4/3", "8/3"), ("8/3", "4/3")}

    def test_battery_sweep(self):
        for g in battery_48():
            report = cr_pairing_check(g)
            assert report["all_pass"], g.name
            assert all(p["complementary"] for p in report["pairs"])


class TestFilling:
    def test_single_antipodal_singularity(self):
        for n in range(2, 7):
            ranks = cr_of_filling((1,), (build(corpus.antipodal(n)),))
            assert ranks == {Fraction(0): 1, Fraction(n): 1}
            assert sum(ranks.values()) == 2

    def test_no_singularities_passthrough(self):
        assert cr_of_filling((1, 0, 2), ()) == {Fraction(0): 1, Fraction(2): 2}

    def test_two_singularities_rank_three(self):
        # The configuration excluded by the uniqueness statement: two
        # antipodal singularities over a contractible space give rank 3.
        g1, g2 = build(corpus.antipodal(3)), build(corpus.antipodal(3))
        ranks = cr_of_filling((1,), (g1, g2))
        assert sum(ranks.values()) == 3
        assert ranks[Fraction(3)] == 2

    def test_mod_m_ranks_pass_through(self):
        ranks = cr_of_filling((1, 1), (build(corpus.antipodal(2)),))
        assert ranks == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1}

    def test_negative_betti_rejected(self):
        with pytest.raises(ValueError):
            cr_of_filling((-1,), ())

    def test_non_isolated_propagates(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["-1", "0"], ["0", "1"]]]}
        with pytest.raises(NonIsolated):
            cr_of_filling((1,), (build(doc),))

    def test_trivial_group_not_a_singularity_but_harmless(self):
        assert cr_of_filling((1,), (build(trivial()),)) == {Fraction(0): 1}
