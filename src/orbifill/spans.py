"""Pullback-pushforward counts on spans of point orbifolds.

A span */H1 <-s- */G -t-> */H2 contributes the rational weight |H2|/|G|.
Composing two spans is governed by the fiber product, which is the action
groupoid of G1 x G2 acting on the shared group H2 by
(g1, g2) . h = s2(g2) * h * t1(g1)^-1; decomposing into orbits with their
stabilizers recovers the composite weight, and the equality of the two
computations is the identity exercised by the randomized battery.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import itemgetter

from .errors import GroupTooLarge, MiddleMismatch, ParseError
from .record import Record


class FiniteGroupTable:
    """A finite group on the elements 0, ..., order - 1; index 0 is the identity.

    The group is given by the column col_g[x] = x*g of each of its
    generators g, and each column must be a permutation of the elements.
    ``table`` and ``inverse`` are built from the columns when first read.
    """

    __slots__ = ("order", "columns", "generators", "labels", "name", "_table", "_inverse")

    def __init__(self, columns, generators, labels, name=""):
        n = self.order = len(labels)
        elements = list(range(n))
        for g, col in zip(generators, columns):
            if sorted(col) != elements:
                raise ParseError(f"column of generator {g} is not a permutation")
        self.columns = tuple(columns)
        self.generators = tuple(generators)
        self.labels = tuple(labels)
        self.name = name
        self._table = self._inverse = None

    @classmethod
    def from_table(cls, table, name=""):
        """The group of a multiplication table, checked for a square shape,
        index entries, the identity, two-sided inverses and then
        associativity. Light's test picks the generators; the checked table
        and inverses are kept."""
        t = tuple(map(tuple, table))
        n = len(t)
        for row in t:
            if len(row) != n:
                raise ParseError("multiplication table is not square")
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                raise ParseError("table entries must be element indices")
        if t[0] != tuple(range(n)) or any(row[0] != i for i, row in enumerate(t)):
            raise ParseError("index 0 is not a two-sided identity")
        inverse = _two_sided_inverses(t)
        # Associativity last: a monoid without inverses is rejected above
        # before Light's test takes every element as a generator.
        gens = _check_associative(t)
        self = cls([[row[g] for row in t] for g in gens], gens, range(n), name)
        self._table, self._inverse = t, inverse
        return self

    @property
    def table(self):
        if self._table is None:
            self._table = _table_from_columns(self.columns, self.order)
        return self._table

    @property
    def inverse(self):
        if self._inverse is None:
            self._inverse = _two_sided_inverses(self.table)
        return self._inverse


def _two_sided_inverses(t: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    inverse = []
    for i, row in enumerate(t):
        try:
            j = row.index(0)
        except ValueError:
            j = -1
        if j < 0 or t[j][i] != 0:
            raise ParseError(f"element {i} has no two-sided inverse")
        inverse.append(j)
    return tuple(inverse)


def _table_from_columns(columns, n: int) -> tuple[tuple[int, ...], ...]:
    """The table whose row j is x -> j*x, from the generator columns
    col_k[x] = x*g_k. A breadth-first walk from the identity finds each
    element j once, as j = p*g_k with p found earlier. Along that tree each
    generator's row is g*j = (g*p)*g_k = col_k[g*p], and row j, x -> p*(g_k*x),
    is row p read along row g_k."""
    reached, tree = [0], []
    seen = [True] + [False] * (n - 1)
    for p in reached:  # reached grows while it is read
        for k, col in enumerate(columns):
            j = col[p]
            if not seen[j]:
                seen[j] = True
                reached.append(j)
                tree.append((j, p, k))
    if len(reached) != n:
        raise ParseError("the generators do not generate the group")
    along = []
    for col in columns:
        row = [col[0]] * n
        for j, p, k in tree:
            row[j] = columns[k][row[p]]
        along.append(itemgetter(*row))
    rows = [tuple(range(n))] * n
    for j, p, k in tree:
        rows[j] = along[k](rows[p])
    return tuple(rows)


def _check_associative(t: tuple[tuple[int, ...], ...]) -> list[int]:
    """Light's test on a table of tuples with identity 0: the g with
    (x*g)*y = x*(g*y) for all x, y are closed under the product, so checking
    a generating set suffices. It is chosen greedily: g joins unless some
    ((s1*s2)*...)*sk of it is g. Returns the generating set."""
    n = len(t)
    gens, members, reached = [], [0], [True] + [False] * (n - 1)
    for g in range(1, n):
        if reached[g]:
            continue
        if any(t[row[g]] != tuple(map(row.__getitem__, t[g])) for row in t):
            raise ParseError("multiplication table is not associative")
        gens.append(g)
        queue = [t[x][g] for x in members]
        for y in queue:  # queue grows while it is read
            if not reached[y]:
                reached[y] = True
                members.append(y)
                queue.extend(map(t[y].__getitem__, gens))
    return gens


def cyclic(k: int) -> FiniteGroupTable:
    return FiniteGroupTable([[*range(1, k), 0]], (1 % k,), range(k), name=f"Z{k}")


def from_permutations(gens: list[tuple[int, ...]], name="") -> FiniteGroupTable:
    """Closure of permutation generators; deterministic BFS order. The
    closure records col_g[p] = p*g for every element p and generator g."""
    identity = tuple(range(len(gens[0])))
    elements = [identity]
    index = {identity: 0}
    cols = [[] for _ in gens]
    for p in elements:  # elements grows while it is read
        for g, col in zip(gens, cols):
            q = tuple(map(p.__getitem__, g))
            j = index.get(q)
            if j is None:
                j = index[q] = len(elements)
                elements.append(q)
            col.append(j)
    return FiniteGroupTable(cols, [index[g] for g in gens], elements, name=name)


def dihedral(m: int) -> FiniteGroupTable:
    """Symmetries of the m-gon, order 2m, for m >= 3."""
    if m < 3:
        raise ValueError("dihedral groups need m >= 3")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((m - i) % m for i in range(m))
    return from_permutations([rot, ref], name=f"D{m}")


def quaternion8() -> FiniteGroupTable:
    """The order-8 quaternion group, elements +-1, +-i, +-j, +-k."""
    # element = (sign, axis) encoded as sign*4 + axis with axes 1,i,j,k
    def mul(a, b):
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

    return FiniteGroupTable.from_table([[mul(a, b) for b in range(8)] for a in range(8)], "Q8")


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    """A x B with (x, y) coded x * |B| + y, from its factors' generator
    columns: (x, y)(g, 0) = (x g, y) and (x, y)(0, h) = (x, y h)."""
    nb = b.order
    rb, starts = range(nb), range(0, a.order * nb, nb)
    cols = [[x + y for x in [c * nb for c in col] for y in rb] for col in a.columns]
    cols += [[x + c for x in starts for c in col] for col in b.columns]
    gens = tuple(g * nb for g in a.generators) + tuple(b.generators)
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    return FiniteGroupTable(cols, gens, labels, name=f"{a.name}x{b.name}")


def subgroup_of_product(
    a: FiniteGroupTable,
    b: FiniteGroupTable,
    pair_gens: list[tuple[int, int]],
    max_order: int,
    name="",
) -> FiniteGroupTable | None:
    """The subgroup of A x B generated by the given pairs, built without
    materializing the full product table; None once the closure holds more
    than max_order elements. A pair (x, y) is coded x * |B| + y. The closure
    finds col_g[i] = i * g for every element i and generator g on its way,
    and the subgroup is given by these columns."""
    ta, tb, nb = a.table, b.table, b.order
    index = [0] + [-1] * (a.order * nb - 1)
    codes = [0]
    cols = [[] for _ in pair_gens]
    for code in codes:  # codes grows while it is read
        ra, rb = ta[code // nb], tb[code % nb]
        for (gx, gy), col in zip(pair_gens, cols):
            q = ra[gx] * nb + rb[gy]
            j = index[q]
            if j < 0:
                j = len(codes)
                if j >= max_order:
                    return None
                index[q] = j
                codes.append(q)
            col.append(j)
    labels = [divmod(code, nb) for code in codes]
    gens = [index[gx * nb + gy] for gx, gy in pair_gens]
    return FiniteGroupTable(cols, gens, labels, name=name)


class Homomorphism(Record):
    def __init__(self, source: FiniteGroupTable, target: FiniteGroupTable,
                 images: tuple[int, ...]):
        self.__dict__.update(source=source, target=target, images=images)
        f = images
        if len(f) != source.order:
            raise ParseError("homomorphism image list has the wrong length")
        n_target = target.order
        if set(map(type, f)) != {int} or min(f) < 0 or max(f) >= n_target:
            raise ParseError(f"homomorphism images must be element indices below {n_target}")
        if f[0] != 0:
            raise ParseError("homomorphism must send identity to identity")
        # f(x*g) = f(x)*f(g) for every x and every generator g implies
        # f(x*y) = f(x)*f(y) for all y, by induction on the word length of y,
        # because the generators generate the source. col_g[x] = x*g.
        tgt = target.table
        for g, col in zip(source.generators, source.columns):
            fg = f[g]
            right = [row[fg] for row in tgt]
            if [f[y] for y in col] != [right[v] for v in f]:
                x = next(x for x, y in enumerate(col) if f[y] != right[f[x]])
                raise ParseError(f"map is not a homomorphism at pair ({x}, {g})")


class PointOrbifoldSpan(Record):
    """*/H1 <-s- */G -t-> */H2 with verified homomorphisms."""

    def __init__(self, left: FiniteGroupTable, middle: FiniteGroupTable,
                 right: FiniteGroupTable, s: Homomorphism, t: Homomorphism):
        self.__dict__.update(left=left, middle=middle, right=right, s=s, t=t)
        if s.source is not middle or s.target is not left:
            raise ParseError("source map must go from the middle to the left group")
        if t.source is not middle or t.target is not right:
            raise ParseError("target map must go from the middle to the right group")


def span(left, middle, right, s_images, t_images) -> PointOrbifoldSpan:
    return PointOrbifoldSpan(
        left,
        middle,
        right,
        Homomorphism(middle, left, tuple(s_images)),
        Homomorphism(middle, right, tuple(t_images)),
    )


def identity_span(group: FiniteGroupTable) -> PointOrbifoldSpan:
    ident = tuple(range(group.order))
    return span(group, group, group, ident, ident)


def pushpull(sp: PointOrbifoldSpan) -> Fraction:
    """t_* s^* applied to the unit: the weight |H2| / |G|."""
    return Fraction(sp.right.order, sp.middle.order)


class OrbitDecomposition(Record):
    """Orbit sizes and stabilizer orders of the fiber-product action."""

    def __init__(self, orbits: tuple[tuple[int, int], ...]):
        # each orbit is (orbit size, stabilizer order)
        self.__dict__.update(orbits=orbits)

    @property
    def total(self) -> int:
        return sum(size for size, _ in self.orbits)


def _require_composable(span1, span2):
    if span1.right.table != span2.left.table:
        raise MiddleMismatch("the shared group of the two spans differs")


def _orbit_reps(span1, span2):
    h2 = span1.right
    t1, s2 = span1.t.images, span2.s.images
    mul, inv = h2.table, h2.inverse
    moves = [[row[inv[t1[g]]] for row in mul] for g in span1.middle.generators]
    moves += [mul[s2[g]] for g in span2.middle.generators]
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
                y = mv[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.add(y)
                    stack.append(y)
        orbits.append(sorted(orbit))
    return orbits


def _stabilizer_order(span1, span2, h: int) -> int:
    # (g1, g2) stabilizes h iff s2(g2) = h * t1(g1) * h^-1; count via the
    # fiber sizes of s2 rather than scanning all pairs.
    h2 = span1.right
    mul, inv = h2.table, h2.inverse
    t1, s2 = span1.t.images, span2.s.images
    fiber = [0] * h2.order
    for img in s2:
        fiber[img] += 1
    total = 0
    hinv = inv[h]
    for g1 in range(span1.middle.order):
        total += fiber[mul[mul[h][t1[g1]]][hinv]]
    return total


def orbit_decomposition(span1, span2) -> OrbitDecomposition:
    _require_composable(span1, span2)
    out = []
    for orbit in _orbit_reps(span1, span2):
        out.append((len(orbit), _stabilizer_order(span1, span2, orbit[0])))
    return OrbitDecomposition(tuple(out))


def fiber_product(span1, span2):
    """Orbit decomposition plus the composite spans */H1 <- */stab_i -> */H3."""
    _require_composable(span1, span2)
    g1, g2 = span1.middle, span2.middle
    h2 = span1.right
    mul, inv = h2.table, h2.inverse
    t1, s2 = span1.t.images, span2.s.images
    decomposition = []
    composites = []
    for orbit in _orbit_reps(span1, span2):
        h = orbit[0]
        stab_pairs = [
            (a, b)
            for a in range(g1.order)
            for b in range(g2.order)
            if mul[mul[s2[b]][h]][inv[t1[a]]] == h
        ]
        stab = subgroup_of_product(g1, g2, stab_pairs, len(stab_pairs), name="stab")
        s3 = tuple(span1.s.images[a] for a, _ in stab.labels)
        t3 = tuple(span2.t.images[b] for _, b in stab.labels)
        composites.append(span(span1.left, stab, span2.right, s3, t3))
        decomposition.append((len(orbit), stab.order))
    return OrbitDecomposition(tuple(decomposition)), composites


def composition_check(span1, span2):
    """Both evaluations of the composite weight, computed independently.

    Left: |H2||H3| / (|G1||G2|) from the pushpull formula applied twice.
    Right: the sum of |H3| / |stab_i| over the fiber-product orbits.
    """
    lhs = Fraction(
        span1.right.order * span2.right.order,
        span1.middle.order * span2.middle.order,
    )
    rhs = sum(
        (Fraction(span2.right.order, stab) for _, stab in orbit_decomposition(span1, span2).orbits),
        Fraction(0),
    )
    return lhs, rhs, lhs == rhs


# -- randomized battery --------------------------------------------------------

BATTERY_MAX_ORDER = 24


def _group_pool(max_order: int) -> list[FiniteGroupTable]:
    pool = [cyclic(k) for k in range(2, 13)]
    pool += [dihedral(m) for m in range(3, 7)]
    pool.append(quaternion8())
    pool.append(direct_product(cyclic(2), cyclic(2)))
    pool.append(direct_product(cyclic(2), cyclic(4)))
    pool.append(direct_product(cyclic(3), cyclic(3)))
    pool.append(direct_product(cyclic(2), quaternion8()))
    return [g for g in pool if g.order <= max_order]


def _element_orders(group: FiniteGroupTable) -> list[int]:
    t = group.table
    orders = []
    for x in range(group.order):
        k, p = 1, x
        while p:
            p = t[p][x]
            k += 1
        orders.append(k)
    return orders


def _lagrange_rejects(pair_gens, left_orders, right_orders, max_order: int) -> bool:
    """Whether the pairs generate a subgroup above max_order for a reason
    that needs no closure: (x, y) has order lcm(ord x, ord y), and by
    Lagrange the order of the subgroup is a multiple of the lcm of these."""
    return math.lcm(*(left_orders[x] for x, _ in pair_gens),
                    *(right_orders[y] for _, y in pair_gens)) > max_order


def _random_span(rng: random.Random, left, right, max_middle: int, orders) -> PointOrbifoldSpan:
    """A random span */left <- */G -> */right with |G| <= max_middle;
    ``orders`` maps each group to its list of element orders."""
    # A subgroup with more than max_middle elements is rejected before any
    # further draw, so rejecting it early leaves the stream unchanged.
    left_orders, right_orders = orders[left], orders[right]
    while True:
        k = rng.choice((1, 1, 2, 2, 3))
        pair_gens = [
            (rng.randrange(left.order), rng.randrange(right.order)) for _ in range(k)
        ]
        if _lagrange_rejects(pair_gens, left_orders, right_orders, max_middle):
            continue
        sub = subgroup_of_product(left, right, pair_gens, max_middle)
        if sub is not None:
            break
    middle = sub
    pairs = sub.labels
    if sub.order * 2 <= max_middle and rng.random() < 0.5:
        kernel = cyclic(rng.choice((2, 3, 4)))
        if sub.order * kernel.order <= max_middle:
            middle = direct_product(sub, kernel)
            pairs = tuple(pair for pair, _ in middle.labels)
    s_images = tuple(a for a, _ in pairs)
    t_images = tuple(b for _, b in pairs)
    return span(left, middle, right, s_images, t_images)


def random_composition_battery(
    trials: int, seed: int, max_order: int = BATTERY_MAX_ORDER
) -> dict:
    """Seeded random composable span pairs, checking the composition identity.

    Per-trial randomness derives deterministically from the master seed, so
    trials are reproducible independently of each other.
    """
    pool = _group_pool(max_order)
    orders = {group: _element_orders(group) for group in pool}
    failures = []
    checked = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        h1, h2, h3 = (rng.choice(pool) for _ in range(3))
        span1 = _random_span(rng, h1, h2, max_order, orders)
        span2 = _random_span(rng, h2, h3, max_order, orders)
        lhs, rhs, equal = composition_check(span1, span2)
        checked += 1
        if not equal:
            failures.append(
                {
                    "trial": trial,
                    "groups": [h1.name, h2.name, h3.name],
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
            )
    return {
        "trials": checked,
        "seed": seed,
        "max_order": max_order,
        "failures": failures,
        "all_equal": not failures,
    }


# -- span documents ------------------------------------------------------------


def group_from_document(doc, loader=None, max_order=None) -> FiniteGroupTable:
    """A group in a span document: a table, a cyclic shorthand, or a
    reference to a unitary group document resolved by the loader. A table
    or cyclic order above ``max_order`` (when given) raises GroupTooLarge
    before any table is built; a reference is bounded by its loader."""
    if isinstance(doc, dict) and "table" in doc:
        table = doc["table"]
        if not (isinstance(table, list) and table and all(isinstance(r, list) for r in table)):
            raise ParseError("multiplication table must be a non-empty list of rows")
        _require_order(len(table), max_order)
        return FiniteGroupTable.from_table(table, name=doc.get("name", ""))
    if isinstance(doc, dict) and "cyclic" in doc:
        k = doc["cyclic"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ParseError("cyclic order must be a positive integer")
        _require_order(k, max_order)
        return cyclic(k)
    if isinstance(doc, dict) and "ref" in doc:
        if loader is None:
            raise ParseError("group references require a document loader")
        unitary = loader(doc["ref"])
        columns = unitary.generator_columns()
        return FiniteGroupTable(columns, [col[0] for col in columns], range(unitary.order),
                                name=unitary.name or doc["ref"])
    raise ParseError("group must provide 'table', 'cyclic', or 'ref'")


def _require_order(order: int, max_order: int | None):
    if max_order is not None and order > max_order:
        raise GroupTooLarge(f"group order {order} exceeds the order cap {max_order}")


def span_from_document(doc, loader=None, max_order=None) -> PointOrbifoldSpan:
    for key in ("left", "middle", "right", "source", "target"):
        if key not in doc:
            raise ParseError(f"span document is missing '{key}'")
    for key in ("source", "target"):
        if not isinstance(doc[key], list):
            raise ParseError(f"'{key}' must be a list of element indices")
    left = group_from_document(doc["left"], loader, max_order)
    middle = group_from_document(doc["middle"], loader, max_order)
    right = group_from_document(doc["right"], loader, max_order)
    return span(left, middle, right, tuple(doc["source"]), tuple(doc["target"]))
