"""The pullback-pushforward calculus and its composition identity."""

import itertools
import random
from fractions import Fraction

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
from orbifill.spans import (
    _group_pool,
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
    it builds every subgroup's full table and rejects an oversized middle
    afterwards. No subgroup of A x B has more than |A||B| elements, so that
    cap never stops the closure."""
    while True:
        k = rng.choice((1, 1, 2, 2, 3))
        pair_gens = [
            (rng.randrange(left.order), rng.randrange(right.order)) for _ in range(k)
        ]
        sub = subgroup_of_product(left, right, pair_gens, left.order * right.order)
        middle = sub
        kernel = None
        if sub.order * 2 <= max_middle and rng.random() < 0.5:
            kernel = cyclic(rng.choice((2, 3, 4)))
            if sub.order * kernel.order <= max_middle:
                middle = direct_product(sub, kernel)
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
    return (sp.left.name, sp.middle.name, sp.right.name, sp.middle.table, sp.s.images, sp.t.images)


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
        for trial in range(trials):
            new, ref = random.Random(f"{seed}:{trial}"), random.Random(f"{seed}:{trial}")
            h1, h2, h3 = (new.choice(pool) for _ in range(3))
            assert (h1, h2, h3) == tuple(ref.choice(pool) for _ in range(3))
            for left, right in ((h1, h2), (h2, h3)):
                assert _span_data(_random_span(new, left, right, max_order)) == _span_data(
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
