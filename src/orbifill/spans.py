"""Pullback-pushforward counts on spans of point orbifolds.

A span */H1 <-s- */G -t-> */H2 contributes the rational weight |H2|/|G|.
Composing two spans is governed by the fiber product, which is the action
groupoid of G1 x G2 acting on the shared group H2 by
(g1, g2) . h = s2(g2) * h * t1(g1)^-1; decomposing into orbits with their
stabilizers recovers the composite weight, and the equality of the two
computations is the identity exercised by the randomized battery. Each
orbit is read once, at its least member h, from one row of H2: (a, b)
stabilizes h exactly when s2(b) = h * t1(a) * h^-1.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InputError
from .record import Record
from .tables import FiniteGroupTable, closure, orbits


def cyclic(k: int) -> FiniteGroupTable:
    return FiniteGroupTable([[*range(1, k), 0]], range(k), name=f"Z{k}")


def from_permutations(gens: list[tuple[int, ...]], name="") -> FiniteGroupTable:
    """The group the permutations generate, with p*g = p o g: x -> p[g[x]].
    Its elements are the permutations in the breadth-first order of
    :func:`~orbifill.tables.closure`."""
    moves = [lambda p, g=g: tuple(map(p.__getitem__, g)) for g in gens]
    elements, columns = closure(tuple(range(len(gens[0]))), moves, math.inf)
    return FiniteGroupTable(columns, elements, name=name)


def dihedral(m: int) -> FiniteGroupTable:
    """Symmetries of the m-gon, order 2m, for m >= 3."""
    if m < 3:
        raise ValueError("dihedral groups need m >= 3")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((m - i) % m for i in range(m))
    return from_permutations([rot, ref], name=f"D{m}")


def quaternion8() -> FiniteGroupTable:
    """The order-8 quaternion group: the right multiplications by i and by j
    on 1, i, j, k, -1, -i, -j, -k."""
    return from_permutations([(1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)], "Q8")


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    """A x B with (x, y) coded x * |B| + y, from its factors' generator
    columns: (x, y)(g, 0) = (x g, y) and (x, y)(0, h) = (x, y h)."""
    nb = b.order
    rb, starts = range(nb), range(0, a.order * nb, nb)
    cols = [[x + y for x in [c * nb for c in col] for y in rb] for col in a.columns]
    cols += [[x + c for x in starts for c in col] for col in b.columns]
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    return FiniteGroupTable(cols, labels, name=f"{a.name}x{b.name}")


def subgroup_of_product(
    a: FiniteGroupTable,
    b: FiniteGroupTable,
    pair_gens: list[tuple[int, int]],
    max_order: int,
    name="",
) -> FiniteGroupTable | None:
    """The subgroup of A x B generated by the given pairs, with a pair (x, y)
    coded x * |B| + y: the :func:`~orbifill.tables.closure` of the code 0,
    with one move per pair, q -> (x * gx) * |B| + (y * gy). None once it
    holds more than max_order elements, so its memory is bounded by
    max_order and not by |A| * |B|."""
    nb = b.order
    moves = [lambda q, ca=a.column(gx), cb=b.column(gy): ca[q // nb] * nb + cb[q % nb]
             for gx, gy in pair_gens]
    found = closure(0, moves, max_order)
    return found and FiniteGroupTable(found[1], [divmod(q, nb) for q in found[0]], name=name)


class Homomorphism(Record):
    def __init__(self, source: FiniteGroupTable, target: FiniteGroupTable,
                 images: tuple[int, ...]):
        self.__dict__.update(source=source, target=target, images=images)
        f = images
        if len(f) != source.order:
            raise InputError("homomorphism image list has the wrong length")
        n_target = target.order
        if set(map(type, f)) != {int} or min(f) < 0 or max(f) >= n_target:
            raise InputError(f"homomorphism images must be element indices below {n_target}")
        if f[0] != 0:
            raise InputError("homomorphism must send identity to identity")
        # f(x*g) = f(x)*f(g) for every x and every generator g implies
        # f(x*y) = f(x)*f(y) for all y, by induction on the word length of y,
        # because the generators generate the source. col_g[x] = x*g.
        for g, col in zip(source.generators, source.columns):
            right = target.column(f[g])
            if [f[y] for y in col] != [right[v] for v in f]:
                x = next(x for x, y in enumerate(col) if f[y] != right[f[x]])
                raise InputError(f"map is not a homomorphism at pair ({x}, {g})")


class PointOrbifoldSpan(Record):
    """*/H1 <-s- */G -t-> */H2 with verified homomorphisms."""

    def __init__(self, left: FiniteGroupTable, middle: FiniteGroupTable,
                 right: FiniteGroupTable, s: Homomorphism, t: Homomorphism):
        self.__dict__.update(left=left, middle=middle, right=right, s=s, t=t)
        if s.source is not middle or s.target is not left:
            raise InputError("source map must go from the middle to the left group")
        if t.source is not middle or t.target is not right:
            raise InputError("target map must go from the middle to the right group")


def span(left, middle, right, s_images, t_images) -> PointOrbifoldSpan:
    return PointOrbifoldSpan(
        left,
        middle,
        right,
        Homomorphism(middle, left, tuple(s_images)),
        Homomorphism(middle, right, tuple(t_images)),
    )


def pushpull(sp: PointOrbifoldSpan) -> Fraction:
    """t_* s^* applied to the unit: the weight |H2| / |G|."""
    return Fraction(sp.right.order, sp.middle.order)


def _orbit_conjugates(span1, span2):
    """Checks that the spans compose, then yields each orbit by least
    member h, with h * t1(a) * h^-1 for every a in G1 read off the row of h
    as (h * (h * t1(a))^-1)^-1."""
    h2, b = span1.right, span2.left
    # The elements y with x*y the same in both groups for every x are closed
    # under the product, so equal generator columns mean equal tables.
    if h2 is not b and (h2.order != b.order or any(
            b.column(g) != list(col) for g, col in zip(h2.generators, h2.columns))):
        raise InputError("the shared group of the two spans differs")
    t1, s2, inv = span1.t.images, span2.s.images, h2.inverses
    moves = [h2.column(inv[t1[g]]) for g in span1.middle.generators]
    moves += [h2.row(s2[g]) for g in span2.middle.generators]
    for orbit in orbits(moves, h2.order):
        row = h2.row(orbit[0])
        yield orbit, [inv[row[inv[row[t]]]] for t in t1]


def orbit_decomposition(span1, span2) -> tuple[tuple[int, int], ...]:
    """(orbit size, stabilizer order) per orbit of the fiber-product action."""
    fiber = [0] * span2.left.order  # fiber[x] = |s2^-1(x)|
    for img in span2.s.images:
        fiber[img] += 1
    return tuple((len(orbit), sum(map(fiber.__getitem__, conjugates)))
                 for orbit, conjugates in _orbit_conjugates(span1, span2))


def composition_check(span1, span2):
    """Both evaluations of the composite weight, computed independently.

    Left: |H2||H3| / (|G1||G2|) from the pushpull formula applied twice.
    Right: the sum of |H3| / |stab_i| over the fiber-product orbits.
    """
    lhs = Fraction(
        span1.right.order * span2.right.order,
        span1.middle.order * span2.middle.order,
    )
    # One Fraction: the terms are summed as ints over the lcm of the
    # stabilizer orders.
    stabs = [stab for _, stab in orbit_decomposition(span1, span2)]
    lcm = math.lcm(*stabs)
    rhs = Fraction(span2.right.order * sum(lcm // stab for stab in stabs), lcm)
    return lhs, rhs, lhs == rhs


# -- randomized battery --------------------------------------------------------

BATTERY_MAX_ORDER = 24
# The most trials one span random may run: 50,000 took 7.3 s in process on a
# shared 2-vCPU x86-64 VM (10,000 took 1.45-1.51 s), so a trial costs ~0.15 ms.
MAX_TRIALS = 50_000


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
    """The order of x is the length of its power walk."""
    return [len(group.powers(x)) for x in range(group.order)]


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


def random_composition_battery(trials: int, seed: int, max_order: int) -> dict:
    """Seeded random composable span pairs, checking the composition identity.

    Per-trial randomness derives deterministically from the master seed, so
    trials are reproducible independently of each other.
    """
    pool = _group_pool(max_order)
    orders = {group: _element_orders(group) for group in pool}
    failures = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        h1, h2, h3 = (rng.choice(pool) for _ in range(3))
        span1 = _random_span(rng, h1, h2, max_order, orders)
        span2 = _random_span(rng, h2, h3, max_order, orders)
        lhs, rhs, equal = composition_check(span1, span2)
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
        "trials": trials,
        "seed": seed,
        "max_order": max_order,
        "failures": failures,
        "all_equal": not failures,
    }


# -- span documents ------------------------------------------------------------


def group_from_document(doc, loader, max_order: int) -> FiniteGroupTable:
    """A group in a span document: a table, a cyclic shorthand, or a
    reference to a unitary group document, which is the table of the group
    the loader enumerates. A table or cyclic order above ``max_order``
    raises InputError before any table is built; a reference is bounded
    by its loader."""
    if isinstance(doc, dict) and "table" in doc:
        table = doc["table"]
        if not (isinstance(table, list) and table and all(isinstance(r, list) for r in table)):
            raise InputError("multiplication table must be a non-empty list of rows")
        _require_order(len(table), max_order)
        return FiniteGroupTable.from_table(table, name=doc.get("name", ""))
    if isinstance(doc, dict) and "cyclic" in doc:
        k = doc["cyclic"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InputError("cyclic order must be a positive integer")
        _require_order(k, max_order)
        return cyclic(k)
    if isinstance(doc, dict) and "ref" in doc:
        ref = doc["ref"]
        if not isinstance(ref, str):
            raise InputError("'ref' must be the path of a group document")
        return loader(ref).table
    raise InputError("group must provide 'table', 'cyclic', or 'ref'")


def _require_order(order: int, max_order: int):
    if order > max_order:
        raise InputError(f"group order {order} exceeds the order cap {max_order}")


def span_from_document(doc, loader, max_order: int) -> PointOrbifoldSpan:
    if not isinstance(doc, dict):
        raise InputError("a span must be an object")
    for key in ("left", "middle", "right", "source", "target"):
        if key not in doc:
            raise InputError(f"span document is missing '{key}'")
    for key in ("source", "target"):
        if not isinstance(doc[key], list):
            raise InputError(f"'{key}' must be a list of element indices")
    left = group_from_document(doc["left"], loader, max_order)
    middle = group_from_document(doc["middle"], loader, max_order)
    right = group_from_document(doc["right"], loader, max_order)
    return span(left, middle, right, tuple(doc["source"]), tuple(doc["target"]))
