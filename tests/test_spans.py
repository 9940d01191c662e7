"""The pullback-pushforward calculus and its composition identity."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from battery import build, quaternion as quaternion_doc
from orbifill import (
    FiniteGroupTable,
    Homomorphism,
    MiddleMismatch,
    ParseError,
    composition_check,
    cyclic,
    dihedral,
    direct_product,
    fiber_product,
    identity_span,
    pushpull,
    quaternion8,
    random_composition_battery,
    span,
)
from orbifill import parse_group, spans
from orbifill.groups import document_digest
from orbifill.spans import (
    _check_associative,
    _element_orders,
    _group_pool,
    _lagrange_rejects,
    _orbit_reps,
    _random_span,
    from_permutations,
    group_from_document,
    span_from_document,
    subgroup_of_product,
)

TRIV = cyclic(1)


def trivial_hom_images(group):
    return tuple(0 for _ in range(group.order))


class TestGroupTables:
    def test_cyclic(self):
        z6 = cyclic(6)
        assert z6.order == 6
        assert z6.inverse[1] == 5

    def test_dihedral_orders(self):
        for m in (3, 4, 5, 6):
            assert dihedral(m).order == 2 * m

    def test_quaternion_table(self):
        q = quaternion8()
        assert q.order == 8
        i, j = 1, 2
        minus_one = q.table[i][i]
        assert q.table[j][j] == minus_one and minus_one != 0
        assert q.table[minus_one][minus_one] == 0
        # anticommutation: ij = -ji
        assert q.table[i][j] == q.table[minus_one][q.table[j][i]]

    def test_quaternion_matches_unitary_model(self):
        table_model = quaternion8()
        unitary = build(quaternion_doc())
        # same multiset of element orders
        orders_a = sorted(
            next(k for k in range(1, 9) if _power(table_model, i, k) == 0)
            for i in range(8)
        )
        orders_b = sorted(unitary.element_order(i) for i in range(8))
        assert orders_a == orders_b

    def test_cyclic_rows_are_sums_mod_k(self):
        for k in range(1, 40):
            assert cyclic(k).table == tuple(
                tuple((i + j) % k for j in range(k)) for i in range(k)
            ), k

    def test_validation_rejects_non_groups(self):
        with pytest.raises(ParseError):
            FiniteGroupTable([[0, 1], [1, 1]], validate=True)
        with pytest.raises(ParseError):
            FiniteGroupTable([[1, 0], [0, 1]], validate=True)

    def test_direct_product(self):
        v4 = direct_product(cyclic(2), cyclic(2))
        assert v4.order == 4
        assert all(v4.table[i][i] == 0 for i in range(4))

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
            FiniteGroupTable([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        with pytest.raises(ParseError, match="two-sided inverse"):
            FiniteGroupTable([[0, 1], [1, 1]])


def _power(group, i, k):
    cur = 0
    for _ in range(k):
        cur = group.table[cur][i]
    return cur


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
                FiniteGroupTable(table, validate=True)

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
        monkeypatch.setattr(spans, "_check_associative", lambda t: calls.append(t))
        table = [[max(x, y) for y in range(200)] for x in range(200)]
        with pytest.raises(ParseError, match="^element 1 has no two-sided inverse$"):
            FiniteGroupTable(table, validate=True)
        assert calls == []
        FiniteGroupTable(cyclic(5).table, validate=True)
        assert len(calls) == 1

    def test_both_faults_report_the_inverse(self):
        # Row 1 has no 0 and (2*1)*2 != 2*(1*2): the inverse message wins.
        table = [[0, 1, 2], [1, 1, 1], [2, 2, 0]]
        assert not _reference_is_associative(table)
        with pytest.raises(ParseError, match="^element 1 has no two-sided inverse$"):
            FiniteGroupTable(table, validate=True)

    def test_group_tables_pass(self):
        for group in _group_pool(24) + [cyclic(60), direct_product(dihedral(5), cyclic(3))]:
            table = [list(row) for row in group.table]
            assert FiniteGroupTable(table, validate=True).table == group.table


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
    return FiniteGroupTable(table, generators=gens, labels=elements, name=name)


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
    return FiniteGroupTable(table, generators=gens, labels=labels, name=f"{a.name}x{b.name}")


def _reference_orbit_reps(span1, span2):
    """Orbits of the fiber-product action, one move function per generator."""
    h2 = span1.right
    t1, s2 = span1.t.images, span2.s.images
    mul, inv = h2.table, h2.inverse
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
        orbits.append(sorted(orbit))
    return orbits


def _group_data(group):
    if group is None:
        return None
    return (group.name, group.table, group.labels, group.generators, group.inverse)


class TestKernelsAgainstReference:
    """The int-coded closure, the product from factor columns and the orbit
    walk on move columns give exactly what the pair-hash closure, the divmod
    product and the move functions give."""

    def test_subgroup_of_product(self):
        rng = random.Random(20261018)
        pool = _group_pool(48)
        outcomes = {True: 0, False: 0}
        for _ in range(4000):
            a, b = rng.choice(pool), rng.choice(pool)
            pair_gens = [
                (rng.randrange(a.order), rng.randrange(b.order))
                for _ in range(rng.choice((1, 2, 3)))
            ]
            cap = rng.randint(4, 48)
            new = subgroup_of_product(a, b, pair_gens, cap, name="sub")
            ref = _reference_subgroup_of_product(a, b, pair_gens, cap, name="sub")
            assert _group_data(new) == _group_data(ref), (a.name, b.name, pair_gens, cap)
            outcomes[new is None] += 1
        assert min(outcomes.values()) > 1000

    def test_trivial_and_repeated_generators(self):
        z4, q8 = cyclic(4), quaternion8()
        for pair_gens in ([(0, 0)], [(1, 2), (1, 2)], [(0, 0), (3, 5)], [(2, 0), (0, 4), (2, 4)]):
            for cap in (1, 2, 8, 32):
                assert _group_data(subgroup_of_product(z4, q8, pair_gens, cap)) == _group_data(
                    _reference_subgroup_of_product(z4, q8, pair_gens, cap)
                ), (pair_gens, cap)

    def test_direct_product(self):
        pool = _group_pool(24)
        factors = pool + [
            subgroup_of_product(dihedral(6), cyclic(4), [(1, 1), (6, 2)], 48),
            subgroup_of_product(quaternion8(), cyclic(6), [(1, 3)], 24),
        ]
        for a in factors:
            for b in factors:
                if a.order * b.order <= 96:
                    assert _group_data(direct_product(a, b)) == _group_data(
                        _reference_direct_product(a, b)
                    ), (a.name, b.name)

    def test_orbit_reps(self):
        pool = _group_pool(24)
        orders = {g: _element_orders(g) for g in pool}
        for trial in range(600):
            rng = random.Random(f"orbits:{trial}")
            h1, h2, h3 = (rng.choice(pool) for _ in range(3))
            span1 = _random_span(rng, h1, h2, 24, orders)
            span2 = _random_span(rng, h2, h3, 24, orders)
            assert _orbit_reps(span1, span2) == _reference_orbit_reps(span1, span2), trial


class TestColumnMiddles:
    """Battery middles hold generator columns; their tables and inverses are
    built only when read, and equal the reference's."""

    def _random_subgroups(self, count):
        rng = random.Random(20261018)
        pool = _group_pool(24)
        while count:
            a, b = rng.choice(pool), rng.choice(pool)
            pair_gens = [(rng.randrange(a.order), rng.randrange(b.order))
                         for _ in range(rng.choice((1, 2, 3)))]
            sub = subgroup_of_product(a, b, pair_gens, 24, name="sub")
            if sub is not None:
                count -= 1
                yield a, b, pair_gens, sub

    def test_tables_built_when_read(self):
        for a, b, pair_gens, sub in self._random_subgroups(300):
            kernel = cyclic(len(pair_gens) + 1)
            product = direct_product(sub, kernel)
            assert sub._table is None and product._table is None
            assert sub._inverse is None and product._inverse is None
            ref = _reference_subgroup_of_product(a, b, pair_gens, 24, name="sub")
            assert _group_data(product) == _group_data(_reference_direct_product(ref, kernel))
            assert _group_data(sub) == _group_data(ref)

    def test_battery_builds_no_middle_table(self, monkeypatch):
        # Only the pool's direct products are given by columns and read as
        # tables; no middle's table is composed.
        built = []
        compose = spans._table_from_columns
        monkeypatch.setattr(spans, "_table_from_columns",
                            lambda cols, n: built.append(n) or compose(cols, n))
        pool = _group_pool(24)
        assert len(built) == 0
        random_composition_battery(150, seed=5)
        assert sorted(built) == sorted(g.order for g in pool if "x" in g.name)

    def test_corrupted_column_raises(self):
        for _, _, pair_gens, sub in self._random_subgroups(100):
            for k, col in enumerate(sub.columns()):
                for x in (0, len(col) - 1):
                    bad = [list(c) for c in sub.columns()]
                    bad[k][x] = bad[k][(x + 1) % len(col)] if len(col) > 1 else 1
                    with pytest.raises(ParseError, match="is not a permutation"):
                        FiniteGroupTable.from_columns(bad, sub.generators, sub.labels)
        with pytest.raises(ParseError, match="is not a permutation"):
            FiniteGroupTable.from_columns([[0, 1, 2]], (1,), range(2))

    def test_columns_that_do_not_generate(self):
        # The column of 2 in Z4 is a permutation, but 2 does not generate Z4.
        group = FiniteGroupTable.from_columns([[2, 3, 0, 1]], (2,), range(4))
        with pytest.raises(ParseError, match="do not generate"):
            group.table

    def test_inverse_check_on_columns(self):
        # Two permutation columns that no group has: the composed table's
        # row 1 is (1, 2, 1), so element 1 has no inverse.
        group = FiniteGroupTable.from_columns([[1, 2, 0], [2, 1, 0]], (1, 2), range(3))
        assert group.table == ((0, 1, 2), (1, 2, 1), (2, 0, 0))
        with pytest.raises(ParseError, match="^element 1 has no two-sided inverse$"):
            group.inverse


class TestLagrangeRejection:
    """A draw is rejected before its closure only when the closure would
    return None: the subgroup's order is a multiple of each element order."""

    def test_single_pairs(self):
        pool = _group_pool(48)
        orders = {g: _element_orders(g) for g in pool}
        for g in pool:
            assert orders[g] == [_element_order(g, x) for x in range(g.order)]
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
    """The all-pairs check: f(x*y) = f(x)*f(y) for every pair (x, y)."""
    n = source.order
    return all(
        images[source.table[x][y]] == target.table[images[x]][images[y]]
        for x in range(n)
        for y in range(n)
    )


def _rejected(source, target, images):
    try:
        Homomorphism(source, target, images)
    except ParseError:
        return True
    return False


def _element_order(group, i):
    return next(k for k in range(1, group.order + 1) if _power(group, i, k) == 0)


def _walk_map(rng, source, target, gens):
    """f(0) = 0 and f(x*g) = f(x)*t_g along a breadth-first walk over gens,
    with t_g of order dividing that of g; each element the walk from the
    identity misses starts a new walk from a random image.

    With all generators this is a homomorphism when it is consistent. With one
    generator g it satisfies the check on g and usually fails on the others.
    """
    steps = {
        g: rng.choice(
            [t for t in range(target.order)
             if _element_order(source, g) % _element_order(target, t) == 0]
        )
        for g in gens
    }
    images = [None] * source.order
    for start in range(source.order):
        if images[start] is not None:
            continue
        images[start] = 0 if start == 0 else rng.randrange(target.order)
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = source.table[x][g]
                if images[y] is None:
                    images[y] = target.table[images[x]][steps[g]]
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
        for images in itertools.product(range(target.order), repeat=source.order):
            assert _rejected(source, target, images) == (
                not _reference_is_homomorphism(source, target, images)
            ), images

    def test_seeded_maps_between_pool_groups(self):
        groups = [dihedral(4), quaternion8(), direct_product(cyclic(2), quaternion8())]
        rng = random.Random(20260811)
        homs = single_generator_failures = 0
        for source, target in itertools.product(groups, repeat=2):
            candidates = []
            for _ in range(12):
                candidates.append(_walk_map(rng, source, target, source.generators))
                for g in source.generators:
                    candidates.append(_walk_map(rng, source, target, (g,)))
            for images in list(candidates):
                x = rng.randrange(1, source.order)
                perturbed = list(images)
                perturbed[x] = rng.randrange(target.order)
                candidates.append(tuple(perturbed))
            for images in candidates:
                is_hom = _reference_is_homomorphism(source, target, images)
                assert _rejected(source, target, images) == (not is_hom), images
                homs += is_hom
                g0 = source.generators[0]
                single_generator_failures += not is_hom and all(
                    images[source.table[x][g0]] == target.table[images[x]][images[g0]]
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
        named = 0
        for source, target in itertools.product(groups, repeat=2):
            for _ in range(20):
                images = [0] + [rng.randrange(target.order) for _ in range(source.order - 1)]
                first = next(
                    ((x, g) for g in source.generators for x in range(source.order)
                     if images[source.table[x][g]] != target.table[images[x]][images[g]]),
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


class TestFiberProduct:
    def test_identity_spans(self):
        z2 = cyclic(2)
        dec, comps = fiber_product(identity_span(z2), identity_span(z2))
        assert dec.orbits == ((2, 2),)
        assert len(comps) == 1
        assert comps[0].middle.order == 2

    def test_trivial_action(self):
        z2 = cyclic(2)
        sp1 = span(z2, z2, z2, (0, 1), (0, 0))
        sp2 = span(z2, z2, z2, (0, 0), (0, 1))
        dec, comps = fiber_product(sp1, sp2)
        assert dec.orbits == ((1, 4), (1, 4))
        assert all(c.middle.order == 4 for c in comps)

    def test_trivial_shared_group(self):
        z2 = cyclic(2)
        sp1 = span(z2, z2, TRIV, (0, 1), (0, 0))
        sp2 = span(TRIV, z2, z2, (0, 0), (0, 1))
        dec, comps = fiber_product(sp1, sp2)
        assert dec.orbits == ((1, 4),)
        assert comps[0].middle.order == 4

    def test_orbit_stabilizer_identity(self):
        # Direct-filter stabilizers agree with orbit sizes.
        z4, z2 = cyclic(4), cyclic(2)
        sp1 = span(z4, z4, z4, tuple(range(4)), tuple(range(4)))
        sp2 = span(z4, z2, z4, (0, 2), (0, 2))
        dec, comps = fiber_product(sp1, sp2)
        assert dec.total == 4
        for (size, stab), comp in zip(dec.orbits, comps):
            assert size * stab == sp1.middle.order * sp2.middle.order
            assert comp.middle.order == stab

    def test_middle_mismatch(self):
        sp1 = identity_span(cyclic(2))
        sp2 = identity_span(cyclic(3))
        with pytest.raises(MiddleMismatch):
            fiber_product(sp1, sp2)


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
        report = random_composition_battery(250, seed=1234)
        assert report["all_equal"]
        assert report["trials"] == 250
        assert report["failures"] == []

    def test_battery_is_deterministic(self):
        a = random_composition_battery(50, seed=9)
        b = random_composition_battery(50, seed=9)
        assert a == b


def _reference_random_span(rng, left, right, max_middle):
    """The span generator as it was before closures stopped at max_middle:
    it builds every subgroup's full table, with the pair-hash closure and the
    divmod product, and rejects an oversized middle afterwards. No subgroup
    of A x B has more than |A||B| elements, so that cap never stops the
    closure."""
    while True:
        k = rng.choice((1, 1, 2, 2, 3))
        pair_gens = [
            (rng.randrange(left.order), rng.randrange(right.order)) for _ in range(k)
        ]
        sub = _reference_subgroup_of_product(left, right, pair_gens, left.order * right.order)
        middle = sub
        kernel = None
        if sub.order * 2 <= max_middle and rng.random() < 0.5:
            kernel = cyclic(rng.choice((2, 3, 4)))
            if sub.order * kernel.order <= max_middle:
                middle = _reference_direct_product(sub, kernel)
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
    return (sp.left.name, sp.middle.name, sp.right.name, sp.middle.table, sp.middle.labels,
            sp.middle.inverse, sp.s.images, sp.t.images)


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
        for trial in range(trials):
            new, ref = random.Random(f"{seed}:{trial}"), random.Random(f"{seed}:{trial}")
            h1, h2, h3 = (new.choice(pool) for _ in range(3))
            assert (h1, h2, h3) == tuple(ref.choice(pool) for _ in range(3))
            for left, right in ((h1, h2), (h2, h3)):
                assert _span_data(_random_span(new, left, right, max_order, orders)) == _span_data(
                    _reference_random_span(ref, left, right, max_order)
                ), (seed, trial)
            assert new.getstate() == ref.getstate()


class TestDocuments:
    def test_table_and_cyclic_groups(self):
        g = group_from_document({"table": [[0, 1], [1, 0]]})
        assert g.order == 2
        assert group_from_document({"cyclic": 6}).order == 6

    def test_span_document(self):
        doc = {
            "left": {"cyclic": 2},
            "middle": {"cyclic": 4},
            "right": {"cyclic": 2},
            "source": [0, 1, 0, 1],
            "target": [0, 0, 0, 0],
        }
        sp = span_from_document(doc)
        assert pushpull(sp) == Fraction(1, 2)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            span_from_document({"left": {"cyclic": 2}})

    def test_permutation_closure(self):
        s3 = from_permutations([(1, 0, 2), (1, 2, 0)])
        assert s3.order == 6
