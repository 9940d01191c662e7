"""The pullback-pushforward calculus and its composition identity."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from battery import BD12_MU5, build, check_table_structure, corpus, table_of
from orbifill import tables
from orbifill.errors import MiddleMismatch, ParseError
from orbifill.groups import DEFAULT_MAX_ORDER, canonical_document, document_digest, parse_group
from orbifill.spans import (
    BATTERY_MAX_ORDER,
    Homomorphism,
    PointOrbifoldSpan,
    _element_orders,
    _group_pool,
    _lagrange_rejects,
    _orbit_conjugates,
    _random_span,
    composition_check,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    group_from_document,
    orbit_decomposition,
    pushpull,
    quaternion8,
    random_composition_battery,
    span,
    span_from_document,
    subgroup_of_product,
)
from orbifill.tables import FiniteGroupTable, _check_associative

TRIV = cyclic(1)


def identity_span(group):
    ident = tuple(range(group.order))
    return span(group, group, group, ident, ident)


def _quaternion_mul(a, b):
    """The reference product on 1, i, j, k, -1, -i, -j, -k, coded
    sign * 4 + axis."""
    sa, ua = divmod(a, 4)
    sb, ub = divmod(b, 4)
    prod = {
        (0, 0): (0, 0),
        (0, 1): (0, 1), (1, 0): (0, 1),
        (0, 2): (0, 2), (2, 0): (0, 2),
        (0, 3): (0, 3), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }[(ua, ub)]
    sign = (sa + sb + prod[0]) % 2
    return sign * 4 + prod[1]


_QUATERNION_TABLE = [[_quaternion_mul(a, b) for b in range(8)] for a in range(8)]


def trivial_hom_images(group):
    return tuple(0 for _ in range(group.order))


class TestGroupTables:
    def test_cyclic(self):
        z6 = cyclic(6)
        assert z6.order == 6
        assert z6.row(1).index(0) == 5

    def test_dihedral_orders(self):
        for m in (3, 4, 5, 6):
            assert dihedral(m).order == 2 * m
        with pytest.raises(ValueError) as info:
            dihedral(2)
        assert str(info.value) == "dihedral groups need m >= 3"

    def test_quaternion_table(self):
        q = quaternion8()
        assert q.order == 8
        t = table_of(q)
        i, j = 1, 2
        minus_one = t[i][i]
        assert t[j][j] == minus_one and minus_one != 0
        assert t[minus_one][minus_one] == 0
        # anticommutation: ij = -ji
        assert t[i][j] == t[minus_one][t[j][i]]

    def test_quaternion_is_the_sign_axis_group(self):
        # Element x is labelled by right multiplication by q(x) = label[0] on
        # 1, i, j, k, -1, -i, -j, -k, and p*g = p o g multiplies by q(g) and
        # then by q(p): x -> q(x)^-1 is an isomorphism onto the reference.
        group = quaternion8()
        inverse = [row.index(0) for row in _QUATERNION_TABLE]
        image = [inverse[label[0]] for label in group.labels]
        assert sorted(image) == list(range(8))
        for label in group.labels:
            assert label == tuple(_QUATERNION_TABLE[y][label[0]] for y in range(8))
        t = table_of(group)
        assert all(image[t[x][y]] == _QUATERNION_TABLE[image[x]][image[y]]
                   for x in range(8) for y in range(8))

    def test_quaternion_matches_unitary_model(self):
        table = table_of(quaternion8())
        unitary = build(corpus.quaternion())
        # same multiset of element orders
        orders_a = sorted(_order_in_table(table, i) for i in range(8))
        orders_b = sorted(unitary.eigen_multiplicities(i).order for i in range(8))
        assert orders_a == orders_b

    def test_cyclic_rows_are_sums_mod_k(self):
        for k in range(1, 40):
            assert table_of(cyclic(k)) == tuple(
                tuple((i + j) % k for j in range(k)) for i in range(k)
            ), k

    def test_validation_rejects_non_groups(self):
        with pytest.raises(ParseError):
            FiniteGroupTable.from_table([[0, 1], [1, 1]])
        with pytest.raises(ParseError):
            FiniteGroupTable.from_table([[1, 0], [0, 1]])

    def test_direct_product(self):
        v4 = direct_product(cyclic(2), cyclic(2))
        assert v4.order == 4
        t = table_of(v4)
        assert all(t[i][i] == 0 for i in range(4))

    def test_subgroup_of_product(self):
        diag = subgroup_of_product(cyclic(4), cyclic(4), [(1, 1)], 4)
        assert diag.order == 4
        assert diag.labels[0] == (0, 0)

    def test_subgroup_of_product_stops_above_max_order(self):
        assert subgroup_of_product(cyclic(4), cyclic(4), [(1, 1)], 3) is None
        assert subgroup_of_product(cyclic(4), cyclic(6), [(1, 0), (0, 1)], 23) is None
        assert subgroup_of_product(cyclic(4), cyclic(6), [(1, 0), (0, 1)], 24).order == 24

    def test_one_sided_inverse_rejected(self):
        # Row 1 holds a 0, but column 1 does not: 1 * 2 = 0 while 2 * 1 = 1.
        with pytest.raises(ParseError, match="two-sided inverse"):
            FiniteGroupTable.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        with pytest.raises(ParseError, match="two-sided inverse"):
            FiniteGroupTable.from_table([[0, 1], [1, 1]])


def _reference_is_associative(table):
    """The all-triples check: (x*y)*z = x*(y*z) for every x, y, z."""
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def _rejected_as_non_associative(table):
    # Light's test on its own: a table that also lacks two-sided inverses is
    # rejected for that first when it comes as a document.
    try:
        _check_associative(tuple(map(tuple, table)))
    except ParseError as exc:
        return str(exc) == "multiplication table is not associative"
    return False


def _reduced_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are 0, 1, ..., n-1:
    the tables of the loops on n elements with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [list(row) for row in rows]
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(cell + 1)
        rows[i][j] = None

    return list(fill(0))


class TestLightAssociativity:
    """Table documents are checked for associativity on a generating set only
    (Light's test); the all-triples check is the reference."""

    def test_loops_of_order_five(self):
        squares = _reduced_latin_squares(5)
        assert len(squares) == 56
        verdicts = [_reference_is_associative(t) for t in squares]
        assert 0 < sum(verdicts) < len(squares)
        for table, associative in zip(squares, verdicts):
            assert _rejected_as_non_associative(table) == (not associative), table
            if associative:
                FiniteGroupTable.from_table(table)

    def test_failures_only_off_the_first_generator(self):
        # L x Z2 with (l, z) coded 2l + z: element 1 = (e, 1) is central and
        # associates with everything, so each failing triple of a
        # non-associative loop L has another middle element. Element 1 is the
        # first generator the greedy choice takes.
        loops = [t for t in _reduced_latin_squares(5) if not _reference_is_associative(t)]
        for loop in loops:
            table = [
                [loop[l1][l2] * 2 + (z1 + z2) % 2 for l2 in range(5) for z2 in range(2)]
                for l1 in range(5) for z1 in range(2)
            ]
            n = len(table)
            middles = {
                y
                for x in range(n) for y in range(n) for z in range(n)
                if table[table[x][y]][z] != table[x][table[y][z]]
            }
            assert middles and 1 not in middles
            assert _rejected_as_non_associative(table)

    def test_random_tables_with_identity(self):
        rng = random.Random(20261018)
        rejected = 0
        for _ in range(3000):
            n = rng.choice((3, 4, 5))
            table = [list(range(n))] + [
                [i] + [rng.randrange(n) for _ in range(n - 1)] for i in range(1, n)
            ]
            associative = _reference_is_associative(table)
            assert _rejected_as_non_associative(table) == (not associative), table
            rejected += not associative
        assert rejected > 1000

    def test_monoid_rejected_before_light(self, monkeypatch):
        # max(x, y) is associative with identity 0, and no element but 0 has
        # an inverse: the inverse check rejects it, and Light's test, which
        # would take every element as a generator, never runs.
        calls = []
        check = tables._check_associative
        monkeypatch.setattr(tables, "_check_associative", lambda t: calls.append(t) or check(t))
        table = [[max(x, y) for y in range(200)] for x in range(200)]
        with pytest.raises(ParseError, match="^element 1 has no two-sided inverse$"):
            FiniteGroupTable.from_table(table)
        assert calls == []
        FiniteGroupTable.from_table(table_of(cyclic(5)))
        assert len(calls) == 1

    def test_both_faults_report_the_inverse(self):
        # Row 1 has no 0 and (2*1)*2 != 2*(1*2): the inverse message wins.
        table = [[0, 1, 2], [1, 1, 1], [2, 2, 0]]
        assert not _reference_is_associative(table)
        with pytest.raises(ParseError, match="^element 1 has no two-sided inverse$"):
            FiniteGroupTable.from_table(table)

    def test_group_tables_pass(self):
        for group in _group_pool(24) + [cyclic(60), direct_product(dihedral(5), cyclic(3))]:
            table = table_of(group)
            assert table_of(FiniteGroupTable.from_table(table)) == table


class _ReferenceGroup:
    """What the reference helpers build and read: a full table, and columns
    read off it."""

    def __init__(self, table, generators, labels, name):
        self.table = tuple(map(tuple, table))
        self.order = len(self.table)
        self.generators, self.labels, self.name = tuple(generators), tuple(labels), name
        self.columns = tuple([row[g] for row in self.table] for g in self.generators)

    @classmethod
    def of(cls, group):
        return cls(table_of(group), group.generators, group.labels, group.name)

    def row(self, i):
        return self.table[i]


def _reference_subgroup_of_product(a, b, pair_gens, max_order, name=""):
    """The pair-hash closure: elements keyed by (x, y) tuples in a dict, and
    every table entry looked up by its pair."""
    identity = (0, 0)
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        fresh = []
        for x, y in frontier:
            for gx, gy in pair_gens:
                q = (a.table[x][gx], b.table[y][gy])
                if q not in index:
                    if len(elements) >= max_order:
                        return None
                    index[q] = len(elements)
                    elements.append(q)
                    fresh.append(q)
        frontier = fresh
    table = [
        [index[(a.table[x1][x2], b.table[y1][y2])] for (x2, y2) in elements]
        for (x1, y1) in elements
    ]
    gens = tuple(index[g] for g in pair_gens)
    return _ReferenceGroup(table, gens, elements, name)


def _reference_direct_product(a, b):
    """The product table entry by entry, splitting each index with divmod."""
    na, nb = a.order, b.order
    table = [
        [
            a.table[i // nb][j // nb] * nb + b.table[i % nb][j % nb]
            for j in range(na * nb)
        ]
        for i in range(na * nb)
    ]
    gens = tuple(g * nb for g in a.generators) + tuple(b.generators)
    labels = tuple((a.labels[i // nb], b.labels[i % nb]) for i in range(na * nb))
    return _ReferenceGroup(table, gens, labels, f"{a.name}x{b.name}")


def _reference_orbit_reps(span1, span2):
    """Orbits of the fiber-product action, one move function per generator."""
    h2 = span1.right
    t1, s2 = span1.t.images, span2.s.images
    mul = table_of(h2)
    inv = [row.index(0) for row in mul]
    moves = [lambda h, a=t1[g]: mul[h][inv[a]] for g in span1.middle.generators]
    moves += [lambda h, a=s2[g]: mul[a][h] for g in span2.middle.generators]
    seen = [False] * h2.order
    orbits = []
    for h in range(h2.order):
        if seen[h]:
            continue
        stack, orbit = [h], {h}
        seen[h] = True
        while stack:
            x = stack.pop()
            for mv in moves:
                y = mv(x)
                if not seen[y]:
                    seen[y] = True
                    orbit.add(y)
                    stack.append(y)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _group_data(group):
    if group is None:
        return None
    return (group.name, table_of(group), group.labels, group.generators)


class TestKernelsAgainstReference:
    """The int-coded closure, the product from factor columns and the orbit
    walk on move columns give exactly what the pair-hash closure, the divmod
    product and the move functions give."""

    def test_subgroup_of_product(self):
        rng = random.Random(20261018)
        pool = _group_pool(48)
        refs = {g: _ReferenceGroup.of(g) for g in pool}
        outcomes = {True: 0, False: 0}
        for _ in range(4000):
            a, b = rng.choice(pool), rng.choice(pool)
            pair_gens = [
                (rng.randrange(a.order), rng.randrange(b.order))
                for _ in range(rng.choice((1, 2, 3)))
            ]
            cap = rng.randint(4, 48)
            new = subgroup_of_product(a, b, pair_gens, cap, name="sub")
            ref = _reference_subgroup_of_product(refs[a], refs[b], pair_gens, cap, name="sub")
            assert _group_data(new) == _group_data(ref), (a.name, b.name, pair_gens, cap)
            outcomes[new is None] += 1
        assert min(outcomes.values()) > 1000

    def test_element_orders_against_powers(self):
        # The power walks against repeated products in the full table.
        for group in _group_pool(BATTERY_MAX_ORDER):
            t, orders = table_of(group), []
            for x in range(group.order):
                y, o = x, 1
                while y:
                    y, o = t[y][x], o + 1
                orders.append(o)
            assert _element_orders(group) == orders, group.name

    def test_trivial_and_repeated_generators(self):
        z4, q8 = cyclic(4), quaternion8()
        refs = _ReferenceGroup.of(z4), _ReferenceGroup.of(q8)
        for pair_gens in ([(0, 0)], [(1, 2), (1, 2)], [(0, 0), (3, 5)], [(2, 0), (0, 4), (2, 4)]):
            for cap in (1, 2, 8, 32):
                assert _group_data(subgroup_of_product(z4, q8, pair_gens, cap)) == _group_data(
                    _reference_subgroup_of_product(*refs, pair_gens, cap)
                ), (pair_gens, cap)

    def test_direct_product(self):
        pool = _group_pool(24)
        factors = pool + [
            subgroup_of_product(dihedral(6), cyclic(4), [(1, 1), (6, 2)], 48),
            subgroup_of_product(quaternion8(), cyclic(6), [(1, 3)], 24),
        ]
        refs = {g: _ReferenceGroup.of(g) for g in factors}
        for a in factors:
            for b in factors:
                if a.order * b.order <= 96:
                    assert _group_data(direct_product(a, b)) == _group_data(
                        _reference_direct_product(refs[a], refs[b])
                    ), (a.name, b.name)

    def test_orbit_reps(self):
        # Each orbit comes with h * t1(a) * h^-1 for its least member h.
        pool = _group_pool(24)
        for g in pool:
            check_table_structure(g)
        orders = {g: _element_orders(g) for g in pool}
        for trial in range(600):
            rng = random.Random(f"orbits:{trial}")
            h1, h2, h3 = (rng.choice(pool) for _ in range(3))
            span1 = _random_span(rng, h1, h2, 24, orders)
            span2 = _random_span(rng, h2, h3, 24, orders)
            mul = table_of(h2)
            inv = [row.index(0) for row in mul]
            read = list(_orbit_conjugates(span1, span2))
            assert [orbit for orbit, _ in read] == _reference_orbit_reps(span1, span2), trial
            for orbit, conjugates in read:
                h = orbit[0]
                assert conjugates == [mul[mul[h][t]][inv[h]] for t in span1.t.images], trial


def _recording_tree_builds(monkeypatch):
    """The (name, order) of each group whose row and column trees are built
    from here on."""
    built = []
    build = FiniteGroupTable._built_trees

    def recording(group):
        if group._trees is None:
            built.append((group.name, group.order))
        return build(group)

    monkeypatch.setattr(FiniteGroupTable, "_built_trees", recording)
    return built


class TestColumnMiddles:
    """Battery middles hold generator columns; the trees that compose their
    rows and columns are built only when one is read, and the rows equal the
    reference's."""

    def _random_subgroups(self, count):
        rng = random.Random(20261018)
        pool = _group_pool(24)
        refs = {g: _ReferenceGroup.of(g) for g in pool}
        while count:
            a, b = rng.choice(pool), rng.choice(pool)
            pair_gens = [(rng.randrange(a.order), rng.randrange(b.order))
                         for _ in range(rng.choice((1, 2, 3)))]
            sub = subgroup_of_product(a, b, pair_gens, 24, name="sub")
            if sub is not None:
                count -= 1
                yield refs[a], refs[b], pair_gens, sub

    def test_tables_built_when_read(self):
        for a, b, pair_gens, sub in self._random_subgroups(300):
            kernel = cyclic(len(pair_gens) + 1)
            product = direct_product(sub, kernel)
            assert sub._trees is None and product._trees is None
            ref = _reference_subgroup_of_product(a, b, pair_gens, 24, name="sub")
            expected = _reference_direct_product(ref, _ReferenceGroup.of(kernel))
            assert _group_data(product) == _group_data(expected)
            assert _group_data(sub) == _group_data(ref)
            assert sub._trees is not None and product._trees is not None

    def test_battery_builds_no_middle_table(self, monkeypatch):
        # Each pool group builds its trees once; no middle builds any.
        built = _recording_tree_builds(monkeypatch)
        pool = _group_pool(24)
        assert built == []
        random_composition_battery(150, seed=5, max_order=BATTERY_MAX_ORDER)
        assert sorted(built) == sorted((g.name, g.order) for g in pool)

    def test_corrupted_column_raises(self):
        for _, _, pair_gens, sub in self._random_subgroups(100):
            for k, col in enumerate(sub.columns):
                for x in (0, len(col) - 1):
                    bad = [list(c) for c in sub.columns]
                    bad[k][x] = bad[k][(x + 1) % len(col)] if len(col) > 1 else 1
                    with pytest.raises(ParseError, match="is not a permutation"):
                        FiniteGroupTable(bad, sub.labels)
        with pytest.raises(ParseError, match="is not a permutation"):
            FiniteGroupTable([[0, 1, 2]], range(2))

    def test_columns_that_do_not_generate(self):
        # The column of 2 in Z4 is a permutation, but 2 does not generate Z4.
        for read in (FiniteGroupTable.row, FiniteGroupTable.column):
            group = FiniteGroupTable([[2, 3, 0, 1]], range(4))
            with pytest.raises(ParseError, match="do not generate"):
                read(group, 0)

    def test_inverse_check_on_columns(self):
        # Two permutation columns that no group has: they generate S3 on
        # three points, and the row of 1 composed along the columns' tree is
        # (1, 2, 1), which does not commute with the column of 1.
        for read in (FiniteGroupTable.row, FiniteGroupTable.column):
            group = FiniteGroupTable([[1, 2, 0], [2, 1, 0]], range(3))
            with pytest.raises(ParseError, match="^the generator columns are not those of a group$"):
                read(group, 0)
            assert group._trees is None

    def test_columns_accepted_exactly_when_regular(self):
        # Permutation columns are a group's right multiplications exactly
        # when the permutations they generate act regularly; x*y is then
        # the image of x under the one permutation that sends 0 to y.
        rng = random.Random(20261021)
        verdicts = {True: 0, False: 0}
        for _ in range(2000):
            n = rng.randint(1, 6)
            columns = [rng.sample(range(n), n) for _ in range(rng.choice((1, 2)))]
            closure, frontier = {tuple(range(n))}, [tuple(range(n))]
            while frontier:
                p = frontier.pop()
                for col in columns:
                    q = tuple(col[x] for x in p)
                    if q not in closure:
                        closure.add(q)
                        frontier.append(q)
            regular = len(closure) == n and {c[0] for c in closure} == set(range(n))
            group = FiniteGroupTable(columns, range(n))
            try:
                table = table_of(group)
            except ParseError:
                table = None
            assert (table is not None) == regular, columns
            if regular:
                sends_0_to = {c[0]: c for c in closure}
                assert table == tuple(tuple(sends_0_to[y][x] for y in range(n)) for x in range(n))
                check_table_structure(group)
            verdicts[regular] += 1
        assert min(verdicts.values()) > 300, verdicts


class TestLagrangeRejection:
    """A draw is rejected before its closure only when the closure would
    return None: the subgroup's order is a multiple of each element order."""

    def test_single_pairs(self):
        pool = _group_pool(48)
        orders = {g: _element_orders(g) for g in pool}
        for g in pool:
            table = table_of(g)
            assert orders[g] == [_order_in_table(table, x) for x in range(g.order)]
        rejected = 0
        for a, b in itertools.product(pool, repeat=2):
            for pair in itertools.product(range(a.order), range(b.order)):
                order = subgroup_of_product(a, b, [pair], a.order * b.order).order
                # One pair generates a cyclic group: the test is exact.
                assert not _lagrange_rejects([pair], orders[a], orders[b], order)
                if order > 1:
                    assert _lagrange_rejects([pair], orders[a], orders[b], order - 1)
                    assert subgroup_of_product(a, b, [pair], order - 1) is None
                    rejected += order - 1 >= 2
        assert rejected > 10000

    def test_random_draws(self):
        rng = random.Random(20261019)
        pool = _group_pool(48)
        orders = {g: _element_orders(g) for g in pool}
        outcomes = {"rejected": 0, "closed": 0, "too large": 0}
        for _ in range(4000):
            a, b = rng.choice(pool), rng.choice(pool)
            pair_gens = [(rng.randrange(a.order), rng.randrange(b.order))
                         for _ in range(rng.choice((2, 3)))]
            cap = rng.randint(2, 48)
            sub = subgroup_of_product(a, b, pair_gens, cap)
            if _lagrange_rejects(pair_gens, orders[a], orders[b], cap):
                assert sub is None, (a.name, b.name, pair_gens, cap)
                outcomes["rejected"] += 1
            else:
                outcomes["closed" if sub is not None else "too large"] += 1
                assert sub is None or sub.order % math.lcm(
                    *(orders[a][x] for x, _ in pair_gens), *(orders[b][y] for _, y in pair_gens)
                ) == 0
        assert min(outcomes.values()) > 300, outcomes


ROOT = Path(__file__).resolve().parents[1]
# sha256 of each sample group document's canonical form.
SAMPLE_DIGESTS = {
    "a3.json": "8456ba40205438503ed50f9caa9702aeece50625a787f22223fee5e8b228d132",
    "antipodal2.json": "8ca28a828cc4a8fc653b6a329ac947ffd31f1db270f882a9630cb0be14ad518b",
    "quaternion.json": "00b4938aad9ca2f442a76f177335cb7297b7114aa247eb8356abb08a9c7f1e76",
}


class TestStartup:
    def test_cli_import_loads_no_hashlib(self):
        # -S keeps site-packages from importing hashlib on their own.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = "import sys, orbifill.cli; print(sorted(set(sys.modules) & {'hashlib', '_hashlib'}))"
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        assert out == "[]\n"

    @pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
    def test_sample_digests(self, name):
        text = (ROOT / "samples" / name).read_text()
        assert document_digest(parse_group(text)) == SAMPLE_DIGESTS[name]

    def test_digest_is_hashlib_sha256(self):
        # Every sample and benchmark corpus document.
        documents = [(ROOT / "samples" / name).read_text() for name in SAMPLE_DIGESTS]
        documents += [s.document() for s in corpus.all_specs()]
        assert len(documents) > 40
        for doc in documents:
            payload = json.dumps(canonical_document(doc), sort_keys=True, separators=(",", ":"))
            assert document_digest(doc) == hashlib.sha256(payload.encode()).hexdigest()

    @pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                        and importlib.util.find_spec("_sha256") is None,
                        reason="this interpreter has no built-in sha256 module")
    def test_digest_loads_no_openssl(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = ("import sys\nfrom orbifill.cli import main\n"
                "try:\n    main(['group', 'info', sys.argv[1], '--format', 'json'])\n"
                "finally:\n    print('_hashlib' in sys.modules, file=sys.stderr)")
        done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "samples" / "a3.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert SAMPLE_DIGESTS["a3.json"] in done.stdout
        assert done.stderr == "False\n"


class TestHomomorphisms:
    def test_valid(self):
        z4, z2 = cyclic(4), cyclic(2)
        Homomorphism(z4, z2, (0, 1, 0, 1))

    def test_invalid_rejected(self):
        z4, z3 = cyclic(4), cyclic(3)
        with pytest.raises(ParseError):
            Homomorphism(z4, z3, (0, 1, 2, 0))
        with pytest.raises(ParseError):
            Homomorphism(z4, z4, (1, 0, 0, 0))

    @pytest.mark.parametrize("images", [(0, 5), (0, -1), (0, True), (0, 1.0), (0, "1")])
    def test_images_must_be_target_indices(self, images):
        z2 = cyclic(2)
        with pytest.raises(ParseError, match="element indices below 2"):
            Homomorphism(z2, z2, images)


def _reference_is_homomorphism(source, target, images):
    """The all-pairs check on the source and target tables: f(x*y) =
    f(x)*f(y) for every pair (x, y)."""
    n = len(source)
    return all(
        images[source[x][y]] == target[images[x]][images[y]]
        for x in range(n)
        for y in range(n)
    )


def _rejected(source, target, images):
    try:
        Homomorphism(source, target, images)
    except ParseError:
        return True
    return False


def _order_in_table(table, i):
    """The least k >= 1 with i^k = 1, multiplying by i in the table."""
    k, cur = 1, i
    while cur:
        k, cur = k + 1, table[cur][i]
    return k


def _walk_map(rng, source, target, gens):
    """f(0) = 0 and f(x*g) = f(x)*t_g along a breadth-first walk over gens,
    on the source and target tables, with t_g of order dividing that of g;
    each element the walk from the identity misses starts a new walk from a
    random image.

    With all generators this is a homomorphism when it is consistent. With one
    generator g it satisfies the check on g and usually fails on the others.
    """
    steps = {
        g: rng.choice(
            [t for t in range(len(target))
             if _order_in_table(source, g) % _order_in_table(target, t) == 0]
        )
        for g in gens
    }
    images = [None] * len(source)
    for start in range(len(source)):
        if images[start] is not None:
            continue
        images[start] = 0 if start == 0 else rng.randrange(len(target))
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = source[x][g]
                if images[y] is None:
                    images[y] = target[images[x]][steps[g]]
                    frontier.append(y)
    return tuple(images)


class TestGeneratorCheck:
    """Checking f(x*g) = f(x)*f(g) on generators g rejects exactly the maps
    the all-pairs reference rejects."""

    @pytest.mark.parametrize(
        "source, target",
        [
            (cyclic(4), cyclic(2)),
            (cyclic(6), cyclic(3)),
            (direct_product(cyclic(2), cyclic(2)), cyclic(2)),
        ],
        ids=["Z4-Z2", "Z6-Z3", "Z2xZ2-Z2"],
    )
    def test_every_map(self, source, target):
        tables = table_of(source), table_of(target)
        for images in itertools.product(range(target.order), repeat=source.order):
            assert _rejected(source, target, images) == (
                not _reference_is_homomorphism(*tables, images)
            ), images

    def test_seeded_maps_between_pool_groups(self):
        groups = [dihedral(4), quaternion8(), direct_product(cyclic(2), quaternion8())]
        tables = {g: table_of(g) for g in groups}
        rng = random.Random(20260811)
        homs = single_generator_failures = 0
        for source, target in itertools.product(groups, repeat=2):
            ts, tt = tables[source], tables[target]
            candidates = []
            for _ in range(12):
                candidates.append(_walk_map(rng, ts, tt, source.generators))
                for g in source.generators:
                    candidates.append(_walk_map(rng, ts, tt, (g,)))
            for images in list(candidates):
                x = rng.randrange(1, source.order)
                perturbed = list(images)
                perturbed[x] = rng.randrange(target.order)
                candidates.append(tuple(perturbed))
            for images in candidates:
                is_hom = _reference_is_homomorphism(ts, tt, images)
                assert _rejected(source, target, images) == (not is_hom), images
                homs += is_hom
                g0 = source.generators[0]
                single_generator_failures += not is_hom and all(
                    images[ts[x][g0]] == tt[images[x]][images[g0]]
                    for x in range(source.order)
                )
        assert homs >= 50
        assert single_generator_failures >= 50


    def test_first_failing_pair_is_named(self):
        # Pairs are checked generator by generator, x ascending, as the
        # reference loop over the table's columns does.
        rng = random.Random(20261020)
        groups = [dihedral(4), quaternion8(), direct_product(cyclic(2), cyclic(4)),
                  subgroup_of_product(dihedral(6), cyclic(4), [(1, 1), (6, 2)], 48)]
        tables = {g: table_of(g) for g in groups}
        named = 0
        for source, target in itertools.product(groups, repeat=2):
            ts, tt = tables[source], tables[target]
            for _ in range(20):
                images = [0] + [rng.randrange(target.order) for _ in range(source.order - 1)]
                first = next(
                    ((x, g) for g in source.generators for x in range(source.order)
                     if images[ts[x][g]] != tt[images[x]][images[g]]),
                    None,
                )
                if first is None:
                    Homomorphism(source, target, tuple(images))
                    continue
                with pytest.raises(ParseError, match=rf"^map is not a homomorphism at pair \({first[0]}, {first[1]}\)$"):
                    Homomorphism(source, target, tuple(images))
                named += 1
        assert named > 200


class TestPushpull:
    def test_identity_span(self):
        for g in (cyclic(2), cyclic(5), quaternion8()):
            assert pushpull(identity_span(g)) == 1

    def test_trivial_middle(self):
        for m in (1, 2, 7):
            sp = span(TRIV, TRIV, cyclic(m), (0,), (0,))
            assert pushpull(sp) == m

    def test_half_weight(self):
        sp = span(TRIV, cyclic(4), cyclic(2), (0, 0, 0, 0), (0, 1, 0, 1))
        assert pushpull(sp) == Fraction(1, 2)


def _reference_stab_pairs(span1, span2, mul, h):
    """The pairs (a, b) of G1 x G2 with s2(b) * h * t1(a)^-1 = h, found by
    scanning all of them on the table ``mul`` of the shared group."""
    inv = [row.index(0) for row in mul]
    t1, s2 = span1.t.images, span2.s.images
    return [(a, b) for a in range(span1.middle.order) for b in range(span2.middle.order)
            if mul[mul[s2[b]][h]][inv[t1[a]]] == h]


def _row_and_column_decomposition(span1, span2):
    """The orbit decomposition read with one row and one column of H2 per
    orbit: h * a * h^-1 = col_(h^-1)[row_h[a]], and the fiber sizes of s2
    at these conjugates sum to the stabilizer's order."""
    h2 = span1.right
    t1, s2, inv = span1.t.images, span2.s.images, h2.inverses
    moves = [h2.column(inv[t1[g]]) for g in span1.middle.generators]
    moves += [h2.row(s2[g]) for g in span2.middle.generators]
    fiber = [0] * h2.order
    for x in s2:
        fiber[x] += 1
    out = []
    for orbit in tables.orbits(moves, h2.order):
        row, col = h2.row(orbit[0]), h2.column(inv[orbit[0]])
        out.append((len(orbit), sum(fiber[col[row[a]]] for a in t1)))
    return tuple(out)


def _thousand_orbit_spans():
    """Z1 <- Z20 -> Z20000 <- Z40 -> Z1 with t1(a) = 1000a and
    s2(b) = 1000b mod 20000: the cosets of the order-20 subgroup of
    Z20000 are 1,000 orbits."""
    z20000 = cyclic(20000)
    span1 = span(TRIV, cyclic(20), z20000, (0,) * 20, [1000 * a for a in range(20)])
    span2 = span(z20000, cyclic(40), TRIV, [1000 * b % 20000 for b in range(40)], (0,) * 40)
    return span1, span2


class TestFiberProduct:
    def test_against_the_all_pairs_scan(self):
        # Each orbit's stabilizer order is the count of pairs that the
        # all-pairs scan finds at its least member.
        pool = _group_pool(24)
        orders = {g: _element_orders(g) for g in pool}
        for trial in range(200):
            rng = random.Random(f"fiber:{trial}")
            h1, h2, h3 = (rng.choice(pool) for _ in range(3))
            span1 = _random_span(rng, h1, h2, 24, orders)
            span2 = _random_span(rng, h2, h3, 24, orders)
            mul = table_of(h2)
            orbits = tuple((len(orbit), len(_reference_stab_pairs(span1, span2, mul, orbit[0])))
                           for orbit in _reference_orbit_reps(span1, span2))
            assert orbit_decomposition(span1, span2) == orbits, trial

    def test_identity_spans_through_z2000(self):
        # Every pair (a, a) stabilizes.
        z2000 = cyclic(2000)
        assert orbit_decomposition(identity_span(z2000), identity_span(z2000)) == ((2000, 2000),)

    @pytest.mark.parametrize("call", ["subgroup_of_product", "orbit_decomposition"])
    def test_memory_bounded_by_the_subgroup(self, call):
        # The closure holds the 3,000 elements of the diagonal of Z3000 x Z3000,
        # and the decomposition one orbit of Z3000, never a list of all
        # 9,000,000 codes of the product.
        z3000 = cyclic(3000)
        tracemalloc.start()
        try:
            if call == "subgroup_of_product":
                assert subgroup_of_product(z3000, z3000, [(1, 1)], 3000).order == 3000
            else:
                sp = identity_span(z3000)
                assert orbit_decomposition(sp, sp) == ((3000, 3000),)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_identity_spans(self):
        z2 = cyclic(2)
        assert orbit_decomposition(identity_span(z2), identity_span(z2)) == ((2, 2),)

    def test_trivial_action(self):
        z2 = cyclic(2)
        sp1 = span(z2, z2, z2, (0, 1), (0, 0))
        sp2 = span(z2, z2, z2, (0, 0), (0, 1))
        assert orbit_decomposition(sp1, sp2) == ((1, 4), (1, 4))

    def test_trivial_shared_group(self):
        z2 = cyclic(2)
        sp1 = span(z2, z2, TRIV, (0, 1), (0, 0))
        sp2 = span(TRIV, z2, z2, (0, 0), (0, 1))
        assert orbit_decomposition(sp1, sp2) == ((1, 4),)

    def test_orbit_stabilizer_identity(self):
        # Direct-filter stabilizers agree with orbit sizes.
        z4, z2 = cyclic(4), cyclic(2)
        sp1 = span(z4, z4, z4, tuple(range(4)), tuple(range(4)))
        sp2 = span(z4, z2, z4, (0, 2), (0, 2))
        dec = orbit_decomposition(sp1, sp2)
        assert sum(size for size, _ in dec) == 4
        for size, stab in dec:
            assert size * stab == sp1.middle.order * sp2.middle.order

    def test_middle_mismatch(self):
        sp1 = identity_span(cyclic(2))
        sp2 = identity_span(cyclic(3))
        for compose in (orbit_decomposition, composition_check):
            with pytest.raises(MiddleMismatch):
                compose(sp1, sp2)


class TestCompositionCheck:
    def test_examples(self):
        z2 = cyclic(2)
        lhs, rhs, equal = composition_check(identity_span(z2), identity_span(z2))
        assert (lhs, rhs, equal) == (1, 1, True)
        sp1 = span(z2, z2, z2, (0, 1), (0, 0))
        sp2 = span(z2, z2, z2, (0, 0), (0, 1))
        lhs, rhs, equal = composition_check(sp1, sp2)
        assert (lhs, rhs, equal) == (1, 1, True)

    def test_all_trivial(self):
        lhs, rhs, equal = composition_check(identity_span(TRIV), identity_span(TRIV))
        assert (lhs, rhs, equal) == (1, 1, True)

    def test_randomized_battery(self):
        report = random_composition_battery(250, seed=1234, max_order=BATTERY_MAX_ORDER)
        assert report["all_equal"]
        assert report["trials"] == 250
        assert report["failures"] == []

    def test_battery_is_deterministic(self):
        a = random_composition_battery(50, seed=9, max_order=BATTERY_MAX_ORDER)
        b = random_composition_battery(50, seed=9, max_order=BATTERY_MAX_ORDER)
        assert a == b


def _counting_along(monkeypatch):
    """A one-item list counting the passes of tables._along from here on:
    each composes one row or column."""
    calls = [0]
    along = tables._along

    def counting(*args):
        calls[0] += 1
        return along(*args)

    monkeypatch.setattr(tables, "_along", counting)
    return calls


class TestOneRowPerOrbit:
    """Composition composes one row of the shared group per orbit, and the
    decomposition is the one that a row and a column per orbit give."""

    def test_battery_pairs(self):
        pool = _group_pool(24)
        orders = {g: _element_orders(g) for g in pool}
        for trial in range(2000):
            rng = random.Random(f"decomposition:{trial}")
            h1, h2, h3 = (rng.choice(pool) for _ in range(3))
            span1 = _random_span(rng, h1, h2, 24, orders)
            span2 = _random_span(rng, h2, h3, 24, orders)
            assert orbit_decomposition(span1, span2) == _row_and_column_decomposition(
                span1, span2), trial

    def test_through_ref_bd2000(self):
        # j has order 4; Z4 -> BD2000 sends k to j^k on either side.
        bd = group_from_document({"ref": "bd2000.json"},
                                 lambda ref: build(corpus.binary_dihedral(500)), DEFAULT_MAX_ORDER)
        j = bd.generators[1]
        powers = [0]
        for _ in range(3):
            powers.append(bd.column(j)[powers[-1]])
        z4 = cyclic(4)
        span1 = span(TRIV, z4, bd, (0,) * 4, powers)
        span2 = span(bd, z4, TRIV, powers, (0,) * 4)
        dec = orbit_decomposition(span1, span2)
        assert dec == _row_and_column_decomposition(span1, span2)
        assert sum(size for size, _ in dec) == 2000 and len(dec) > 200

    @pytest.mark.parametrize("case", ["1000 orbits", "identity Z20000"])
    def test_composed_rows(self, monkeypatch, case):
        # At most one pass per orbit, plus one per orbit move: never a
        # column of h^-1 beside each row, nor a map per image of t1 or s2,
        # which would be 40,000 passes on the identity spans.
        if case == "1000 orbits":
            (span1, span2), orbits = _thousand_orbit_spans(), ((20, 40),) * 1000
        else:
            span1 = span2 = identity_span(cyclic(20000))
            orbits = ((20000, 20000),)
        calls = _counting_along(monkeypatch)
        assert composition_check(span1, span2)[2]
        assert len(orbits) <= calls[0] <= len(orbits) + 2
        assert orbit_decomposition(span1, span2) == orbits


def _reference_random_span(rng, left, right, max_middle, refs):
    """The span generator as it was before closures stopped at max_middle:
    it builds every subgroup's full table, with the pair-hash closure and the
    divmod product on the reference tables ``refs`` of the pool groups, and
    rejects an oversized middle afterwards. No subgroup of A x B has more
    than |A||B| elements, so that cap never stops the closure."""
    while True:
        k = rng.choice((1, 1, 2, 2, 3))
        pair_gens = [
            (rng.randrange(left.order), rng.randrange(right.order)) for _ in range(k)
        ]
        sub = _reference_subgroup_of_product(refs[left], refs[right], pair_gens,
                                             left.order * right.order)
        middle = sub
        kernel = None
        if sub.order * 2 <= max_middle and rng.random() < 0.5:
            kernel = cyclic(rng.choice((2, 3, 4)))
            if sub.order * kernel.order <= max_middle:
                middle = _reference_direct_product(sub, _ReferenceGroup.of(kernel))
            else:
                kernel = None
        if middle.order > max_middle:
            continue
        if kernel is None:
            s_images = tuple(a for a, _ in sub.labels)
            t_images = tuple(b for _, b in sub.labels)
        else:
            s_images = tuple(a for (a, _), _ in middle.labels)
            t_images = tuple(b for (_, b), _ in middle.labels)
        return span(left, middle, right, s_images, t_images)


def _span_data(sp):
    return (sp.left.name, sp.middle.name, sp.right.name, table_of(sp.middle), sp.middle.labels,
            sp.s.images, sp.t.images)


class TestRandomSpanReference:
    """The battery draws exactly the spans the reference generator draws, and
    leaves the random stream in the same state, so `span random` reports are
    unchanged. 20260811 is criterion 05's seed; 210-239 are the seeds of the
    span-battery benchmark workload at its seed 7."""

    CASES = [(20260811, 1000, 24), *((seed, 150, 24) for seed in range(210, 240)),
             (5, 200, 12), (6, 200, 4)]

    @pytest.mark.parametrize("seed, trials, max_order", CASES)
    def test_identical_spans(self, seed, trials, max_order):
        pool = _group_pool(max_order)
        orders = {g: _element_orders(g) for g in pool}
        refs = {g: _ReferenceGroup.of(g) for g in pool}
        for trial in range(trials):
            new, ref = random.Random(f"{seed}:{trial}"), random.Random(f"{seed}:{trial}")
            h1, h2, h3 = (new.choice(pool) for _ in range(3))
            assert (h1, h2, h3) == tuple(ref.choice(pool) for _ in range(3))
            for left, right in ((h1, h2), (h2, h3)):
                assert _span_data(_random_span(new, left, right, max_order, orders)) == _span_data(
                    _reference_random_span(ref, left, right, max_order, refs)
                ), (seed, trial)
            assert new.getstate() == ref.getstate()


def _no_ref(ref):
    raise AssertionError(f"a document without references loaded {ref}")


class TestDocuments:
    def test_table_and_cyclic_groups(self):
        g = group_from_document({"table": [[0, 1], [1, 0]]}, _no_ref, DEFAULT_MAX_ORDER)
        assert g.order == 2
        assert group_from_document({"cyclic": 6}, _no_ref, DEFAULT_MAX_ORDER).order == 6

    def test_span_document(self):
        doc = {
            "left": {"cyclic": 2},
            "middle": {"cyclic": 4},
            "right": {"cyclic": 2},
            "source": [0, 1, 0, 1],
            "target": [0, 0, 0, 0],
        }
        sp = span_from_document(doc, _no_ref, DEFAULT_MAX_ORDER)
        assert pushpull(sp) == Fraction(1, 2)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            span_from_document({"left": {"cyclic": 2}}, _no_ref, DEFAULT_MAX_ORDER)

    def test_maps_must_meet_the_span_groups(self):
        # The groups are compared by identity: an equal table is another group.
        middle, left, right = cyclic(2), cyclic(1), cyclic(1)
        s, t = Homomorphism(middle, left, (0, 0)), Homomorphism(middle, right, (0, 0))
        assert PointOrbifoldSpan(left, middle, right, s, t).s is s
        with pytest.raises(ParseError) as info:
            PointOrbifoldSpan(cyclic(1), middle, right, s, t)
        assert str(info.value) == "source map must go from the middle to the left group"
        with pytest.raises(ParseError) as info:
            PointOrbifoldSpan(left, middle, cyclic(1), s, t)
        assert str(info.value) == "target map must go from the middle to the right group"

    def test_permutation_closure(self):
        s3 = from_permutations([(1, 0, 2), (1, 2, 0)])
        assert s3.order == 6


REF_DOCUMENTS = {
    **{name: json.loads((ROOT / "samples" / name).read_text())
       for name in ("quaternion.json", "a3.json", "antipodal2.json")},
    "bd12xmu5": BD12_MU5,
}


class TestRefGroups:
    """A ``ref`` group is the table its enumeration recorded."""

    # Built per test: a test that reads rows builds the table's trees.
    @pytest.fixture(params=sorted(REF_DOCUMENTS))
    def unitary(self, request):
        return build(REF_DOCUMENTS[request.param])

    def test_same_group_as_its_table(self, unitary):
        group = group_from_document({"ref": "g.json"}, lambda ref: unitary, DEFAULT_MAX_ORDER)
        assert group is unitary.table
        table = table_of(unitary)
        assert table_of(FiniteGroupTable.from_table(table)) == table
        check_table_structure(group)

    def test_generators_are_the_generator_elements(self, unitary):
        group = group_from_document({"ref": "g.json"}, lambda ref: unitary, DEFAULT_MAX_ORDER)
        elements = [m for _, m in unitary.exact(range(unitary.order))]
        assert group.generators == tuple(elements.index(g) for g in unitary.generators)

    def test_ref_middle_composes_no_table(self, unitary, monkeypatch):
        built = _recording_tree_builds(monkeypatch)
        n, trivial = unitary.order, {"table": [[0]]}
        doc = {"left": trivial, "middle": {"ref": "g.json"}, "right": trivial,
               "source": [0] * n, "target": [0] * n}
        sp = span_from_document(doc, lambda ref: unitary, DEFAULT_MAX_ORDER)
        assert pushpull(sp) == Fraction(1, n)
        assert composition_check(sp, identity_span(sp.right)) == (Fraction(1, n),) * 2 + (True,)
        assert built == [("", 1)] * 2 and sp.middle._trees is None
