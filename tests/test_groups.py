"""Group enumeration, conjugacy structure, and exact eigenvalue data."""

import collections
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from battery import (BATTERY_24, BATTERY_48, BD12_MU5, Q8_MU3, Q8_MU5, REDUCTION_NAMES,
                     Z7_SEMIDIRECT_Z9, approx, battery_48, binary_tetrahedral, build,
                     check_table_structure, corpus, corrupt_generator, dense, document,
                     eigen_prime, eigen_root, lift, power_mod_phi, record_reduced_products,
                     record_prime_searches, reduced_elements, table_of, trivial)
from orbifill import groups
from orbifill.cyclotomic import CyclotomicNumber, euler_phi, reduction_size
from orbifill.errors import GroupTooLarge, InternalInconsistency, NotUnitary, ParseError
from orbifill.groups import (
    DEFAULT_MAX_ORDER,
    GroupDocument,
    MAX_CERTIFICATE_SIZE,
    MAX_REDUCTION_SIZE,
    age,
    canonical_document,
    document_digest,
    mat_conj_transpose,
    mat_identity,
    mat_mul,
    parse_group,
)
from orbifill.tables import closure, orbits


def key(matrix):
    """An exact matrix's canonical key: its entries' (den, terms) normal forms,
    faithful because all entries of a group share one conductor."""
    return tuple((x.den, x.terms) for row in matrix for x in row)


def table_powers(group, i):
    """Indices of g^0, g^1, ..., g^(o-1), walked along the row of g."""
    row = group.table.row(i)
    powers = [0]
    cur = i
    while cur != 0:
        assert len(powers) <= group.order, (group.name, i)
        powers.append(cur)
        cur = row[cur]
    return powers


def character_formula(group, i):
    """Exact reference for eigen data: the multiplicity of zeta_o^m is
    (1/o) * sum_k zeta_o^(-mk) trace(g^k), evaluated in Q(zeta_lcm(N, o))."""
    powers = table_powers(group, i)
    o = len(powers)
    lift_to = math.lcm(group.conductor, o)
    traces, elements = [], dict(group.exact(powers))
    for p in powers:
        m = elements[p]
        trace = sum((m[r][r] for r in range(1, len(m))), m[0][0])
        traces.append([(e, c) for e, c in enumerate(dense(lift(trace, lift_to))) if c])
    phi = euler_phi(lift_to)
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
                    for t, r in enumerate(power_mod_phi(lift_to, idx)):
                        if r:
                            acc[t] += c * r
        assert not any(acc[1:])
        val = acc[0] / o
        assert val.denominator == 1 and val >= 0
        if val:
            mults[m] = int(val)
    return o, mults


def rank_reading(group, i, g):
    """Reference for eigen data, read from element i's own reduced matrix g,
    with nothing spread from another element: the order o by powering the
    matrix until it is I, then one rank per candidate exponent, mult(m) =
    n - rank(g - w_o^m I) for m = 0, 1, ..., until the multiplicities sum
    to n. w_o comes from the reduction's own prime, so that the exponents
    are labelled as the reduction labels them."""
    n = group.dimension
    p = eigen_prime(group)
    identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    power, o = g, 1
    while power != identity:
        power = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*g))
                      for row in power)
        o += 1
        assert o <= group.order, (group.name, i)
    w, lam = eigen_root(group, o), 1
    mults, total = {}, 0
    for m in range(o):
        mult = n - groups.rank_shifted(g, lam, p)
        if mult:
            mults[m] = mult
            total += mult
            if total == n:
                break
        lam = lam * w % p
    assert total == n, (group.name, i)
    return o, mults


def diagonal_signs(n):
    """The diagonal sign matrices in U(n), (Z/2)^n: every element is its own
    cyclic subgroup and its own class, and every nontrivial one but -I has
    the eigenvalue 1."""
    gens = tuple((tuple(range(n)), tuple((-1 if i == k else 1, 0) for i in range(n)))
                 for k in range(n))
    return corpus.GroupSpec(f"signs{n}", n, 2, gens, 2**n, 2**n)


def pythagorean_klein():
    """{+-I, +-R} with R the reflection [[3/5, 4/5], [4/5, -3/5]]. L = 4, and
    5, the first prime = 1 (mod 4), divides the entries' denominators."""
    reflection = [["3/5", "4/5"], ["4/5", "-3/5"]]
    return {"name": "klein5", "dimension": 2, "conductor": 2,
            "generators": [[["-1", "0"], ["0", "-1"]], reflection]}


class TestParsing:
    def test_antipodal_document(self):
        g = parse_group(corpus.antipodal(2).document())
        assert isinstance(g, GroupDocument)
        assert len(g.generators) == 1
        assert g.dimension == 2 and g.conductor == 2

    def test_a_type_document(self):
        for k in range(2, 9):
            g = parse_group(corpus.a_type(k).document())
            assert len(g.generators) == 1

    def test_not_unitary_names_entry(self):
        doc = {"dimension": 2, "conductor": 2, "generators": [[["1/2", "0"], ["0", "1"]]]}
        with pytest.raises(NotUnitary) as info:
            parse_group(doc)
        assert info.value.generator == 0
        assert info.value.entry == (0, 0)

    def test_unitarity_check_reads_each_nonzero_row_once(self, monkeypatch):
        # A monomial generator in U(64): the conjugate transpose tests each
        # of the n^2 entries, and the product each entry of a row of a and,
        # for each of the n nonzero ones, one row of b: 3 n^2 tests in all,
        # where testing every (i, j, k) triple would make n^3 more.
        n = 64
        matrix = [["0"] * n for _ in range(n)]
        for r in range(n):
            matrix[r][(5 * r + 3) % n] = f"1*z^{r % 7}" if r % 7 else "-1"
        doc = parse_group({"dimension": n, "conductor": 7, "generators": [matrix]})
        calls = []
        monkeypatch.setattr(CyclotomicNumber, "__bool__",
                            lambda x, f=CyclotomicNumber.__bool__: calls.append(1) or f(x))
        groups._check_unitary(doc.generators[0], 0)
        assert len(calls) <= 3 * n * n

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

    def test_conductor_bound(self):
        # Both parts of the bound are checked before Phi_N or the table is
        # built: N itself, and the table's entries.
        assert all(reduction_size(n) <= MAX_REDUCTION_SIZE for n in (4620, 6930, 20000, 99991))
        assert reduction_size(15015) > MAX_REDUCTION_SIZE
        for n in (15015, 10**8, MAX_REDUCTION_SIZE + 1):
            with pytest.raises(ParseError, match="conductor"):
                parse_group({"dimension": 1, "conductor": n, "generators": [[["-1"]]]})
        doc = {"dimension": 1, "conductor": 20000, "generators": [[["-1"]]]}
        assert parse_group(doc).conductor == 20000


class TestEnumeration:
    def test_antipodal_order_two(self):
        assert build(corpus.antipodal(2)).order == 2

    def test_cyclic_eighth_roots(self):
        doc = {
            "dimension": 2,
            "conductor": 8,
            "generators": [[["z", "0"], ["0", "1*z^7"]]],
        }
        assert build(doc).order == 8

    def test_quaternion_order_eight(self):
        assert build(corpus.quaternion()).order == 8

    def test_identity_is_index_zero(self):
        g = build(corpus.quaternion())
        [(k, identity)] = g.exact([0])
        assert k == 0 and all(c == (1 if i == j else 0) for i, row in enumerate(identity)
                              for j, c in enumerate(row))

    def test_closure_and_inverses(self):
        g = build(corpus.quaternion())
        table = table_of(g)
        n = g.order
        for i in range(n):
            assert 0 <= g.table.inverses[i] < n
            assert table[i][g.table.inverses[i]] == 0
            for j in range(n):
                assert 0 <= table[i][j] < n

    def test_table_matches_matrix_products(self):
        docs = [Q8_MU3, BD12_MU5]
        for g in battery_48() + [build(d) for d in docs]:
            elements = dict(g.exact(range(g.order)))
            for i, row in enumerate(table_of(g)):
                for j, k in enumerate(row):
                    product = mat_mul(elements[i], elements[j])
                    assert key(product) == key(elements[k]), (g.name, i, j)

    def test_order_cap(self):
        with pytest.raises(GroupTooLarge):
            build(corpus.scalar_cyclic(30), max_order=10)

    def test_order_cap_below_one(self):
        with pytest.raises(GroupTooLarge, match="below 1"):
            build(trivial(), max_order=0)

    @pytest.mark.parametrize(
        "doc, entries",
        [(binary_tetrahedral(), ((2, 0), (0, 1))),
         (corpus.quaternion(), ((1, 1), (0, 1)))],
        ids=["diag(2,1)", "unipotent"],
    )
    def test_non_group_element_is_internal(self, monkeypatch, doc, entries):
        # Neither matrix is diagonalizable with |G|-th roots of unity as
        # eigenvalues mod the eigen prime (2 has order 9 mod 73, and 2T has
        # order 24), so it has no eigen data at the order its power walk
        # gives. The eigen code builds the elements it reads mod p from the
        # reduced generators. Element 1, the first generator, is the least
        # member of its class and no power of the identity, so it is always
        # read, and it is the identity times its reduced generator.
        g = build(doc)
        i = 1
        corrupt_generator(monkeypatch, entries)
        with pytest.raises(InternalInconsistency):
            g.eigen_multiplicities(i).order
        with pytest.raises(InternalInconsistency):
            g.eigen_multiplicities(i)

    def test_trivial_group(self):
        g = build(trivial())
        assert g.order == 1 and g.classes[0].label == "Id"

    def test_order_and_classes_against_the_monomial_model(self):
        # orbifill, the closed forms and bench/corpus.py's monomial model,
        # which shares no code with orbifill, on every monomial battery group.
        specs = BATTERY_24 + BATTERY_48 + [Z7_SEMIDIRECT_Z9, Q8_MU5, BD12_MU5, trivial()]
        for spec in {s.name: s for s in specs}.values():
            g = build(spec)
            assert ((g.order, len(g.classes)) == (spec.order, spec.classes)
                    == corpus.order_and_class_count(spec.document())), spec.name


class TestConjugacyClasses:
    def test_abelian_groups_have_singleton_classes(self):
        g = build(corpus.antipodal(3))
        assert [c.size for c in g.classes] == [1, 1]
        assert all(c.centralizer_order == 2 for c in g.classes)
        z3 = build(corpus.scalar_cyclic(3))
        assert len(z3.classes) == 3
        assert all(c.size == 1 for c in z3.classes)

    def test_quaternion_class_sizes(self):
        g = build(corpus.quaternion())
        assert sorted(c.size for c in g.classes) == [1, 1, 2, 2, 2]

    def test_orbit_stabilizer(self):
        for g in battery_48():
            for c in g.classes:
                assert c.size * c.centralizer_order == g.order
            assert sum(c.size for c in g.classes) == g.order

    def test_centralizer_is_subgroup(self):
        for g in [build(corpus.quaternion()), build(Z7_SEMIDIRECT_Z9)]:
            table = table_of(g)
            for c in g.classes:
                r = c.representative_index
                cent = {h for h in range(g.order) if table[h][r] == table[r][h]}
                assert len(cent) == c.centralizer_order, (g.name, c.label)
                assert 0 in cent
                for a in cent:
                    for b in cent:
                        assert table[a][b] in cent

    def test_classes_match_table_orbits(self):
        # Reference: the orbit {g x g^-1 : g in G} read from the full table.
        docs = [Q8_MU5, BD12_MU5, binary_tetrahedral(), Z7_SEMIDIRECT_Z9]
        for g in battery_48() + [build(d) for d in docs]:
            table = table_of(g)
            inv = [row.index(0) for row in table]
            expected = {
                tuple(sorted({table[table[x][i]][inv[x]] for x in range(g.order)}))
                for i in range(g.order)
            }
            assert {c.member_indices for c in g.classes} == expected, g.name
            for c in g.classes:
                assert c.representative_index == c.member_indices[0]
                assert c.order == len(table_powers(g, c.representative_index)), g.name
            check_table_structure(g.table)

    def test_class_ordering_is_by_age(self):
        for g in battery_48():
            ages = [age(g, c.representative_index) for c in g.classes]
            assert ages == sorted(ages)
            assert ages[0] == 0


def centralizer_intersection(g, a, b):
    """|Z(a) & Z(b)| as |G| over the orbit of (a, b) under simultaneous
    conjugation, the weight the full-pair ring convention reads, through the
    same tables.closure that build_ring runs."""
    moves = [lambda p, c=c: (c[p[0]], c[p[1]]) for c in g.table.conjugation_maps()]
    return g.order // len(closure((a, b), moves, math.inf)[0])


class TestCentralizerIntersection:
    def test_identity_pair(self):
        g = build(corpus.quaternion())
        assert centralizer_intersection(g, 0, 0) == g.order

    def test_abelian(self):
        g = build(corpus.scalar_cyclic(5))
        assert centralizer_intersection(g, 1, 3) == 5

    def test_quaternion_center(self):
        g = build(corpus.quaternion())
        size2 = [c for c in g.classes if c.size == 2]
        i_rep, j_rep = size2[0].representative_index, size2[1].representative_index
        assert centralizer_intersection(g, i_rep, j_rep) == 2


class TestEigenData:
    def test_minus_identity(self):
        for n in (2, 3, 5):
            g = build(corpus.antipodal(n))
            data = g.eigen_multiplicities(1)
            assert data.order == 2 and data.multiplicities == {1: n}

    def test_scalar_cyclic(self):
        g = build(corpus.scalar_cyclic(3))
        rep = g.classes[1].representative_index
        data = g.eigen_multiplicities(rep)
        assert data.order == 3 and data.multiplicities == {1: 2}

    def test_identity(self):
        g = build(corpus.quaternion())
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
            Q8_MU3,
            Q8_MU5,
            BD12_MU5,
            corpus.scalar_cyclic(30, n=3),
            binary_tetrahedral(),
            pythagorean_klein(),
            Z7_SEMIDIRECT_Z9,
        ],
        ids=lambda d: document(d)["name"],
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

    def test_against_rank_reading(self):
        docs = [Z7_SEMIDIRECT_Z9, Q8_MU3, Q8_MU5, BD12_MU5, binary_tetrahedral(5),
                corpus.scalar_cyclic(500), corpus.times_scalars(corpus.quaternion(), 63),
                diagonal_signs(3)]
        for g in battery_48() + [build(d) for d in docs]:
            for i, reduced in reduced_elements(g, range(g.order)):
                data = g.eigen_multiplicities(i)
                o, mults = rank_reading(g, i, reduced)
                assert (data.order, list(data.multiplicities.items())) == (
                    o, list(mults.items())), (g.name, i)

    def test_reduced_matrix_not_diagonalizable(self):
        g = build(corpus.quaternion())
        p = eigen_prime(g)
        with pytest.raises(InternalInconsistency, match="not diagonalizable mod 17"):
            groups.eigen_exponents(((1, 1), (0, 1)), 8, p, eigen_root(g, 8))

    def test_reduced_eigenvalue_not_a_root_of_unity(self):
        # Q8: the eigenvalues of its elements are 8th roots of unity mod 17.
        g = build(corpus.quaternion())
        p = eigen_prime(g)
        assert p == 17
        w_8, w_4 = eigen_root(g, 8), eigen_root(g, 4)
        stray = next(x for x in range(2, p) if pow(x, 8, p) != 1)
        with pytest.raises(InternalInconsistency, match="with 8-th roots of unity"):
            groups.eigen_exponents(((stray, 0), (0, 1)), 8, p, w_8)
        with pytest.raises(InternalInconsistency, match="with 8-th roots of unity"):
            groups.eigen_exponents(((1, 0), (0, stray)), 8, p, w_8)
        # An 8th root that is not a 4th root is not an eigenvalue of order 4.
        w8 = next(x for x in range(2, p) if pow(x, 4, p) != 1 and pow(x, 8, p) == 1)
        with pytest.raises(InternalInconsistency, match="with 4-th roots of unity"):
            groups.eigen_exponents(((w8, 0), (0, 1)), 4, p, w_4)

    @pytest.mark.parametrize(
        "doc, reads, ranks",
        [(corpus.scalar_cyclic(500), 2, 3),
         (corpus.binary_dihedral(500), 4, 1009),
         (corpus.times_scalars(corpus.quaternion(), 63), 8, 597),
         (Z7_SEMIDIRECT_Z9, 4, 34),
         # Dimension costs ranks only: {I, -I} in U(64), the trivial group
         # in U(200).
         (corpus.antipodal(64), 2, 3),
         (trivial(200), 1, 1)],
        ids=lambda v: v.name if isinstance(v, corpus.GroupSpec) else None,
    )
    def test_one_read_per_cyclic_subgroup(self, monkeypatch, doc, reads, ranks):
        # One read per orbit that no earlier read's powers reach (mu500 has
        # 500 classes and 2 reads), one rank per candidate eigenvalue of a
        # read element.
        g = build(doc)
        calls = collections.Counter()
        for name in ("eigen_exponents", "rank_shifted"):
            monkeypatch.setattr(groups, name, lambda *a, f=getattr(groups, name), name=name:
                                calls.update([name]) or f(*a))
        for cls in g.classes:
            g.eigen_multiplicities(cls.representative_index)
        assert (calls["eigen_exponents"], calls["rank_shifted"]) == (reads, ranks)

    @pytest.mark.parametrize(
        "doc, products",
        [(corpus.scalar_cyclic(500), 1),
         (corpus.binary_dihedral(500), 3),
         (corpus.times_scalars(corpus.quaternion(), 63), 7),
         (corpus.scalar_cyclic(10000), 1)],
        ids=lambda v: v.name if isinstance(v, corpus.GroupSpec) else None,
    )
    def test_reduced_products_only_for_read_elements(self, monkeypatch, doc, products):
        # The classes build mod p only the elements read and their
        # ancestors in the tree, one product each: on mu500 and mu10000 the
        # generator alone, and none of the other |G| - 2 elements.
        g = build(doc)
        # The elements read mod p are the targets of the walk whose step is
        # a reduction's (the exact tie-break walks too).
        calls, read = record_reduced_products(monkeypatch)
        g.classes
        needed = set()
        for j in read:
            while j and j not in needed:
                needed.add(j)
                j = g.table.tree[j - 1][1]
        assert len(calls) == products
        assert len(needed) == products

    def test_rank_against_elimination_by_columns(self):
        # Dense and sparse matrices mod p, of full and of low rank, against a
        # plain elimination that picks each pivot by column.
        def reference(rows, p):
            rows, rank = [list(r) for r in rows], 0
            for c in range(len(rows[0])):
                i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
                if i is None:
                    continue
                rows[rank], rows[i] = rows[i], rows[rank]
                inv = pow(rows[rank][c], -1, p)
                for k in range(rank + 1, len(rows)):
                    f = rows[k][c] * inv
                    rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[rank])]
                rank += 1
            return rank

        p, rng = eigen_prime(build(corpus.quaternion())), random.Random(5)
        for trial in range(200):
            n, r, density = rng.randint(1, 7), rng.randint(0, 7), rng.choice([0.2, 0.5, 1])
            entry = lambda: rng.randrange(p) if rng.random() < density else 0
            a = [[entry() for _ in range(r)] for _ in range(n)]
            b = [[entry() for _ in range(n)] for _ in range(r)]
            g = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] if r else [0] * n
                 for row in a]
            lam = rng.choice([0, 1, rng.randrange(p)])
            shifted = [[(x - lam) % p if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(g)]
            assert groups.rank_shifted(g, lam, p) == reference(shifted, p), trial

    def test_eigen_prime_skips_primes_dividing_D(self):
        g = build(pythagorean_klein())
        assert g.order == 4
        assert eigen_prime(g) == 13

    def test_against_float_eigendecomposition(self):
        # Independent oracle: numerical eigenvalues of the complex matrix.
        for g in battery_48():
            if g.order > 16:
                continue
            elements = dict(g.exact(c.representative_index for c in g.classes))
            for cls in g.classes:
                idx = cls.representative_index
                data = g.eigen_multiplicities(idx)
                mat = np.array([[approx(c) for c in row] for row in elements[idx]])
                angles = np.angle(np.linalg.eigvals(mat)) / (2 * np.pi) % 1.0
                got = sorted(angles)
                expected = sorted(
                    (m / data.order) % 1.0
                    for m, mult in data.multiplicities.items()
                    for _ in range(mult)
                )
                assert np.allclose(got, expected, atol=1e-9)


def isolation_by_elements(group):
    """Reference for isolation: the per-element scan, n - rank_p(g - I) over
    every nontrivial element in index order, the first with a fixed vector
    as the witness."""
    p = eigen_prime(group)
    for i, reduced in reduced_elements(group, range(1, group.order)):
        if group.dimension - groups.rank_shifted(reduced, 1, p):
            return False, i
    return True, None


def random_monomial(rng, n):
    """One or two random monomial matrices in U(n), with roots of unity of a
    random conductor N <= 12 as their nonzero entries."""
    conductor = rng.randint(1, 12)
    gens = []
    for _ in range(rng.randint(1, 2)):
        mat = [["0"] * n for _ in range(n)]
        for r, c in enumerate(rng.sample(range(n), n)):
            e = rng.randrange(conductor)
            mat[r][c] = f"1*z^{e}" if e else "1"
        gens.append(mat)
    return {"name": f"monomial{n}", "dimension": n, "conductor": conductor, "generators": gens}


class TestIsolated:
    def test_against_element_scan(self):
        docs = [Q8_MU3, Q8_MU5, BD12_MU5, binary_tetrahedral(5), Z7_SEMIDIRECT_Z9]
        # Seeded random monomial groups in U(2) and U(3); a draw above order
        # 200 is replaced, which bounds the scan's cost.
        rng, monomial = random.Random(18), []
        while len(monomial) < 240:
            try:
                monomial.append(build(random_monomial(rng, rng.choice((2, 3))), max_order=200))
            except GroupTooLarge:
                pass
        witnesses = []
        for g in battery_48() + [build(d) for d in docs] + monomial:
            expected = isolation_by_elements(g)
            assert g.is_isolated_singularity() == expected, g.name
            witnesses.append(expected[1])
        # Most random groups are not isolated, and many have their first
        # fixed vector past element 1, so the witnesses are compared too.
        assert sum(w is not None for w in witnesses) > 150
        assert sum(w is not None and w > 1 for w in witnesses) > 80

    def test_antipodal_isolated(self):
        for n in (2, 3, 6):
            assert build(corpus.antipodal(n)).is_isolated_singularity() == (True, None)

    def test_quaternion_isolated(self):
        assert build(corpus.quaternion()).is_isolated_singularity()[0]

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
        assert (document_digest(corpus.antipodal(2).document())
                != document_digest(corpus.antipodal(3).document()))

    def test_digest_fallback_imports_agree(self, monkeypatch):
        # Without _sha256 (renamed _sha2 in Python 3.12), and then without
        # either, the digest comes from the next module and is the same.
        text = (Path(__file__).resolve().parents[1] / "samples" / "a3.json").read_text()
        default = document_digest(text)
        for module in ("_sha256", "_sha2"):
            monkeypatch.setitem(sys.modules, module, None)
            assert document_digest(text) == default

    def test_digest_of_parsed_group_equals_digest_of_document(self):
        for doc in (s.document() for s in (corpus.antipodal(2), corpus.quaternion(), BD12_MU5)):
            text = json.dumps(doc)
            group = parse_group(text)
            assert document_digest(group) == document_digest(text) == document_digest(doc)
            assert canonical_document(group) == canonical_document(doc)

    def test_canonical_document_shape(self):
        canon = canonical_document(corpus.antipodal(2).document())
        assert set(canon) == {"name", "dimension", "conductor", "generators"}


def fraction_key(matrix):
    """The element key as it was before keys were ints: the entries'
    Fraction coefficients, which class order breaks its ties on."""
    return tuple(dense(x) for row in matrix for x in row)


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
    other way as (den, terms) pairs, since 5 > 1."""
    return {"name": "refl3", "dimension": 3, "conductor": 2, "generators": [
        [["3/5", "4/5", "0"], ["4/5", "-3/5", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]]}


class TestIntegerKeys:
    @pytest.fixture(scope="class")
    def groups(self):
        # BD200 and the Wolf-type products have long runs of classes that tie
        # on (age, size), which the Fraction tie-break orders.
        docs = [Q8_MU3, Q8_MU5, corpus.times_scalars(corpus.quaternion(), 7), BD12_MU5,
                corpus.times_scalars(corpus.binary_dihedral(5), 7), corpus.binary_dihedral(50),
                binary_tetrahedral(), commuting_reflections()]
        return battery_48() + [build(d) for d in docs]

    def test_keys_hold_only_ints(self, groups):
        for g in groups:
            for _, m in g.exact(range(g.order)):
                assert all(type(v) is int for v in leaves(key(m))), g.name

    def test_class_order_keeps_fraction_tie_break(self, groups):
        for g in groups:
            classes = g.classes
            elements = dict(g.exact(c.representative_index for c in classes))
            expected = sorted(classes, key=lambda c: (
                age(g, c.representative_index), c.size,
                fraction_key(elements[c.representative_index])))
            assert [c.representative_index for c in classes] == [
                c.representative_index for c in expected], g.name
            assert [c.label for c in classes] == [
                "Id" if c.representative_index == 0 else f"c{pos}"
                for pos, c in enumerate(expected)], g.name

    def test_class_order_matches_dense_reference(self, groups):
        docs = [corpus.binary_dihedral(500), corpus.times_scalars(corpus.quaternion(), 63),
                binary_tetrahedral(5)]
        for g in groups + [build(d) for d in docs]:
            assert [c.member_indices for c in g.classes] == dense_class_order(g), g.name

    def test_inverses_from_table(self, groups):
        for g in groups:
            table = table_of(g)
            elements = dict(g.exact(range(g.order)))
            for i in range(g.order):
                j = g.table.inverses[i]
                assert table[i][j] == table[j][i] == 0, g.name
                assert key(elements[j]) == key(mat_conj_transpose(elements[i])), g.name


def dense_class_order(group):
    """Reference for class order: the tie-break as it ran while every exact
    matrix it rebuilt was kept. Each run of classes that tie on (age, size)
    is sorted by its representatives' dense coefficient vectors, scaled to
    the lcm of the run's denominators."""
    tree = group.table.tree
    generator = {col[0]: s for col, s in zip(group.table.columns, group.generators)}
    known = {0: mat_identity(group.dimension, group.conductor)}

    def exact(i):
        chain = []
        while i not in known:
            chain.append(i)
            i = tree[i - 1][1]
        m = known[i]
        for c in reversed(chain):
            m = known[c] = mat_mul(m, generator[tree[c - 1][2][0]])
        return m

    coarse = sorted(((age(group, c[0]), len(c)), c)
                    for c in orbits(group.table.conjugation_maps(), group.order))
    out = []
    for _, run in itertools.groupby(coarse, key=lambda kc: kc[0]):
        run = [c for _, c in run]
        if len(run) > 1:
            entries = [[x for row in exact(c[0]) for x in row] for c in run]
            scale = math.lcm(*(x.den for rep in entries for x in rep))
            keys = [tuple(tuple(v * scale for v in dense(x)) for x in rep)
                    for rep in entries]
            run = [c for _, c in sorted(zip(keys, run))]
        out.extend(run)
    return out


class TestSparseKey:
    """The tie-break keys a matrix by its entries' nonzero coefficients; they
    must order matrices as the dense tuples of Fractions do."""

    def check(self, a, b):
        sparse, dense = groups._sparse_key, fraction_key
        assert (sparse(a) < sparse(b)) == (dense(a) < dense(b)), (a, b)
        assert (sparse(a) == sparse(b)) == (dense(a) == dense(b)), (a, b)

    def test_zero_before_positive_after_negative(self):
        # Sparsely, (1, 0, 0, 0) is a prefix of (1, 0, -5, 0) and of (1, 0, 5, 0).
        prefix, negative, positive = [((CyclotomicNumber(5, enumerate(nums)),),) for nums in (
            (1, 0, 0, 0), (1, 0, -5, 0), (1, 0, 5, 0))]
        for a, b in itertools.permutations([prefix, negative, positive], 2):
            self.check(a, b)
        assert sorted([prefix, negative, positive], key=groups._sparse_key) == [
            negative, prefix, positive]

    def test_random_vectors(self):
        rng = random.Random(20261019)

        def matrix():
            # Small values and many zeros, so supports differ and entries tie.
            return tuple(tuple(
                CyclotomicNumber(5, enumerate(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(4)),
                                 rng.choice((1, 1, 2, 3, 6)))
                for _ in range(2)) for _ in range(2))

        for _ in range(1500):
            a = matrix()
            self.check(a, a)
            self.check(a, matrix())


class TestTieBreakWalk:
    """The tie-break rebuilds its representatives in one walk down the
    table's first tree, and drops each matrix once its children are built."""

    def test_one_product_per_needed_element(self, monkeypatch):
        g = build(corpus.binary_dihedral(500))
        calls = []
        monkeypatch.setattr(groups, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
        ties = collections.Counter((c.age, c.size) for c in g.classes)
        needed = set()
        for j in [c.representative_index for c in g.classes if ties[c.age, c.size] > 1]:
            while j and j not in needed:
                needed.add(j)
                j = g.table.tree[j - 1][1]
        assert len(calls) == len(needed) > 0

    def test_classes_peak_memory(self):
        # Keeping every rebuilt matrix, the classes of BD2000 peaked at
        # 14 MB under tracemalloc, and at under 1 MB dropping them. The
        # orbits and their eigen data are read first, outside the trace.
        g = build(corpus.binary_dihedral(500))
        g._spread(orbits(g.table.conjugation_maps(), g.order))
        tracemalloc.start()
        try:
            g.classes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def exact_closure(group):
    """Reference: the breadth-first closure over exact matrices keyed by the
    entries' (den, terms) normal forms, as enumeration ran before its keys
    moved to F_p0. Returns the elements, their index by key, the parents and
    the generator columns."""
    identity = mat_identity(group.dimension, group.conductor)
    elements, index, parents = [identity], {key(identity): 0}, [(0, -1)]
    gen_cols = [[] for _ in group.generators]
    frontier = [0]
    while frontier:
        fresh = []
        for ei in frontier:
            for gi, g in enumerate(group.generators):
                product = mat_mul(elements[ei], g)
                idx = index.get(key(product))
                if idx is None:
                    assert len(elements) < DEFAULT_MAX_ORDER
                    idx = index[key(product)] = len(elements)
                    elements.append(product)
                    parents.append((ei, gi))
                    fresh.append(idx)
                gen_cols[gi].append(idx)
        frontier = fresh
    return elements, index, parents, gen_cols


def rotation():
    """[[3/5, -4/5], [4/5, 3/5]]: unitary and of infinite order, since the
    denominators of its powers grow like 5^k, yet of finite order mod 13."""
    return {"name": "rot", "dimension": 2, "conductor": 4,
            "generators": [[["3/5", "-4/5"], ["4/5", "3/5"]]]}


class TestAgainstExactClosure:
    @pytest.fixture(scope="class")
    def pairs(self):
        docs = [Q8_MU3, Q8_MU5, BD12_MU5, binary_tetrahedral(), binary_tetrahedral(5),
                Z7_SEMIDIRECT_Z9, commuting_reflections(), corpus.scalar_cyclic(500)]
        return [(g, exact_closure(g)) for g in battery_48() + [build(d) for d in docs]]

    def test_order_parents_and_columns(self, pairs):
        for g, (elements, _, parents, gen_cols) in pairs:
            assert g.order == len(elements), g.name
            columns = g.table.columns
            assert list(columns) == gen_cols, g.name
            # The table's first tree finds each element as the enumeration
            # did: edge j - 1 finds element j, as the walk and the F_p
            # replay read it.
            assert [(j, (p, columns.index(move))) for j, p, move in g.table.tree] == \
                list(enumerate(parents))[1:], g.name

    def test_exact_elements_rebuilt_on_demand(self, pairs):
        for g, (elements, *_) in pairs:
            last = g.order - 1
            assert [(i, key(m)) for i, m in g.exact([last, 0, last])] == \
                [(0, key(elements[0])), (last, key(elements[last]))], g.name
            assert [(i, key(m)) for i, m in g.exact(range(g.order))] == \
                list(enumerate(map(key, elements))), g.name

    def test_inverses(self, pairs):
        # The inverse of a unitary matrix is its conjugate transpose, and
        # x -> s^-1 x s is read from exact matrix products.
        for g, (elements, index, *_) in pairs:
            inverses = [index[key(mat_conj_transpose(e))] for e in elements]
            assert g.table.inverses == inverses, g.name
            conj = [[index[key(mat_mul(mat_mul(mat_conj_transpose(s), e), s))] for e in elements]
                    for s in g.generators]
            assert g.table.conjugation_maps() == conj, g.name

    def test_element_orders(self, pairs):
        for g, (elements, _, parents, gen_cols) in pairs:
            # Right multiplication by x follows x's parent chain through the
            # reference's generator columns; the order is the length of the
            # power walk back to the identity.
            words = [()]
            for parent, gi in parents[1:]:
                words.append(words[parent] + (gi,))
            for x in range(g.order):
                power, o = x, 1
                while power != 0:
                    for gi in words[x]:
                        power = gen_cols[gi][power]
                    o += 1
                assert g.eigen_multiplicities(x).order == o, (g.name, x)


class TestCertificate:
    def test_infinite_rotation_is_rejected_quickly(self):
        start = time.perf_counter()
        with pytest.raises(GroupTooLarge, match="do not generate a finite group"):
            build(rotation())
        assert time.perf_counter() - start < 2

    def test_primes_cover_the_bound(self, monkeypatch):
        # 2T x mu5: D = 2 from the generator -(1 + i + j + k)/2, N = 20.
        found = record_prime_searches(monkeypatch)
        g = build(binary_tetrahedral(5))
        fractional = [any(x.den > 1 for row in s for x in row) for s in g.generators]
        counts = [0]
        for _, parent, col in g.table.tree:
            counts.append(counts[parent] + fractional[g.table.columns.index(col)])
        bound = (2 * 2 ** (max(counts) + 1)) ** euler_phi(20)
        (p0, _), *certificate = found
        primes = [q for q, _ in certificate]
        assert p0 % 20 == 1
        assert len(set(primes)) == len(primes) >= 2
        assert all(q % 20 == 1 and q != p0 for q in primes)
        assert p0 * math.prod(primes) > bound >= p0 * math.prod(primes[:-1])

    def test_conductor_lifted_to_powers_of_two(self):
        # The reduction raises the root only to the exponents the generators
        # use, so 2T declared at conductor 2^k closes as it does at 4. Its
        # certificate bound (2 D^(d+1))^phi(N), with D = 2 and d = 2, has
        # 4 phi(2^k) = 2^(k+1) bits: up to 2^15 the certificate is under the
        # cap and runs, and above it 2T is refused before any prime is drawn.
        def ages(g):
            return sorted((age(g, c.representative_index), c.size) for c in g.classes)

        expected = ages(build(binary_tetrahedral()))
        for k in range(12, 22):
            doc = binary_tetrahedral(conductor=2**k)
            if k <= 15:
                g = build(doc)
                assert (g.order, len(g.classes), ages(g)) == (24, 7, expected), k
            else:
                bits = 2 ** (k + 1)
                with pytest.raises(GroupTooLarge) as refused:
                    build(doc)
                assert str(refused.value) == (
                    f"the certificate of order 24 at conductor {2**k} needs a {bits}-bit "
                    f"modulus: order x generators x bits^2 is {24 * 3 * bits**2:.2g}, above "
                    f"the cap of {MAX_CERTIFICATE_SIZE:.0g}"), k

    def test_primality_is_exact(self):
        # Miller-Rabin with the first 13 primes as bases, against trial
        # division and on the least strong pseudoprimes to the first 1, 4, 9
        # and 12 prime bases; at the least one to all 13 it raises.
        def trial_division(q):
            return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))

        is_prime = groups._is_prime
        assert [q for q in range(20000) if is_prime(q) != trial_division(q)] == []
        for q in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(q), q
        assert is_prime(2**61 - 1)
        with pytest.raises(InternalInconsistency, match="no exact primality test"):
            is_prime(3317044064679887385961981)

    def test_cap_is_met_at_the_default(self):
        doc = corpus.binary_dihedral(DEFAULT_MAX_ORDER // 4)
        assert build(doc).order == DEFAULT_MAX_ORDER
        with pytest.raises(GroupTooLarge, match="order cap"):
            build(doc, max_order=DEFAULT_MAX_ORDER - 1)


class TestCertificateColumns:
    """The certificate is the closure at the certificate modulus, which must
    find the enumeration's columns: a generator reduced wrongly there only
    is a failed relation."""

    @pytest.mark.parametrize("wrong", [
        lambda a, m: tuple(tuple(-x % m for x in row) for row in a),  # -s: same group
        lambda a, m: ((1, 0), (0, 1)),  # I: a smaller group
        lambda a, m: ((2, 0), (0, 1)),  # order far above |G|
    ], ids=["negated", "identity", "unbounded"])
    def test_other_columns_raise(self, monkeypatch, wrong):
        doc = parse_group(binary_tetrahedral(5))
        fractional = next(s for s, g in enumerate(doc.generators)
                          if any(x.den > 1 for row in g for x in row))
        assert groups.enumerate_group(doc).order == 120
        corrupted = corrupt_generator(monkeypatch, wrong, at="certificate", generator=fractional)
        with pytest.raises(GroupTooLarge, match="do not generate a finite group"):
            groups.enumerate_group(doc)
        assert corrupted


def test_only_the_battery_names_the_reduction():
    # The reduced layout is the group core's alone: tests reach it through
    # battery.py's seams, which never write it, so a change to it edits
    # groups.py alone.
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name != "battery.py":
            text = path.read_text()
            assert [name for name in REDUCTION_NAMES if name in text] == [], path.name
