"""Twisted sectors, ages, and the Chen-Ruan ring of C^n/G.

For an isolated quotient singularity every twisted sector is a point with
finite isotropy, so the whole ring is group theory: one sector per conjugacy
class, graded by twice the age, with structure constants summed over pairs
of class members whose ages add. The summation domain of the displayed
product formula admits two readings, so both are implemented behind an
explicit convention flag and an associativity sweep arbitrates empirically.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from fractions import Fraction

from .errors import InputError
from .groups import ConjugacyClass, FiniteUnitaryGroup
from .record import Record
from .tables import closure


class CupConvention(enum.Enum):
    """How the product formula's pair set is summed.

    FULL_PAIR_SUM is the literal reading: every pair (h1, h2) of class
    members with additive ages contributes. ORBIT_REPRESENTATIVE_SUM counts
    one representative per simultaneous-conjugation orbit of such pairs.
    """

    FULL_PAIR_SUM = "full-pairs"
    ORBIT_REPRESENTATIVE_SUM = "orbit-reps"


MAX_RING_PAIRS = 200_000


def twisted_sectors(group: FiniteUnitaryGroup) -> tuple[ConjugacyClass, ...]:
    """The sectors of an isolated C^n/G: its conjugacy classes, untwisted
    first then ascending degree, each carrying its age."""
    group.require_isolated()
    return group.classes


def _zz2_parity(degree: Fraction) -> str:
    # The induced Z/2 grading: parity of the numerator when the denominator
    # is odd, indeterminate otherwise.
    if degree.denominator % 2 == 1:
        return "even" if degree.numerator % 2 == 0 else "odd"
    return "indeterminate"


class CRRing(Record):
    """The Chen-Ruan cohomology ring of C^n/G as structure constants:
    ``structure_constants[(i, j)]`` holds the (k, coefficient) terms of each
    nonzero product of twisted sectors i and j, and no other pair."""

    def __init__(self, group: FiniteUnitaryGroup, sectors: tuple[ConjugacyClass, ...],
                 convention: CupConvention, structure_constants: dict):
        self.__dict__.update(group=group, sectors=sectors, convention=convention,
                             structure_constants=structure_constants)

    def sector_count(self) -> int:
        return len(self.sectors)


def build_ring(group: FiniteUnitaryGroup, convention: CupConvention) -> CRRing:
    """Structure constants of the product of sectors i, j >= 1 in sector k.

    Conjugation carries the pairs (h1, h2) in C_i x C_j with h1*h2 = x onto
    those with h1*h2 = gxg^-1, so a sum over all pairs with product in C_k is
    |C_k| times the sum over the pairs with h1*h2 = rep(C_k), that is with
    h2 = h1^-1 * rep(C_k). Only pairs whose ages add contribute. Each such
    pair stands for its conjugation orbit, of size |G| / |Z(h1) & Z(rep(C_k))|
    since Z(h1) & Z(h2) = Z(h1) & Z(rep(C_k)). The literal pair sum of
    |Z(rep(C_k))| / |Z(h1) & Z(h2)| is thus the sum of these orbit sizes, and
    by orbit-stabilizer the orbit-representative sum is the class-sum count
    a_ijk = #{(h1, h2) in C_i x C_j : h1*h2 = rep(C_k)}.

    Under full-pairs each weight is the size of the tables.closure of
    (h1, rep) under simultaneous conjugation. That orbit holds (x, rep) for
    every x in the Z(rep)-orbit of h1, and all of these take its size, so
    each Z(rep)-orbit is searched once per sector k.

    Sectors ascend by age, so a product of twisted sectors has age at least
    2 * age_1: no row is built for a sector below that. Only the pairs with
    a nonzero product are stored; a missing pair reads as the empty product.
    """
    sectors = twisted_sectors(group)
    # Ages as ints, scaled to the lcm of their denominators.
    scale = math.lcm(*(s.age.denominator for s in sectors))
    ages = [s.age.numerator * (scale // s.age.denominator) for s in sectors]
    table = group.table
    inv = table.inverses
    inv_class = [group.class_position(h) for h in inv]
    full = convention is CupConvention.FULL_PAIR_SUM
    moves = [lambda p, c=c: (c[p[0]], c[p[1]]) for c in table.conjugation_maps()] if full else None
    count = len(sectors)
    contributions: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
    for k in range(1, count):
        if ages[k] < 2 * ages[1]:
            continue
        rep = sectors[k].representative_index
        # r[h1] = rep^-1 * h1, so h1^-1 * rep = inv[r[h1]], in class inv_class[r[h1]].
        r = table.row(inv[rep])
        orbit_size = {}  # x -> the size of the orbit of (x, rep), once searched
        for i in range(1, count):
            age_j = ages[k] - ages[i]
            if age_j <= 0:
                continue
            for h1 in sectors[i].member_indices:
                j = inv_class[r[h1]]
                if ages[j] != age_j:
                    continue
                if not full:
                    weight = 1
                elif (weight := orbit_size.get(h1)) is None:
                    orbit = closure((h1, rep), moves, math.inf)[0]
                    weight = len(orbit)
                    orbit_size.update((x, weight) for x, y in orbit if y == rep)
                terms = contributions[(i, j)]
                terms[k] = terms.get(k, 0) + weight
    return CRRing(group, sectors, convention,
                  {pair: tuple(sorted(terms.items())) for pair, terms in contributions.items()})


def associativity_sweep(ring: CRRing):
    """Check ([a][b])[c] = [a]([b][c]) over all sector triples.

    Returns (passes, counterexample) where the counterexample is the first
    failing triple, in lexicographic order, with both evaluations.

    Built constants are int counts, so both evaluations are ints and compare
    exactly; constants set by hand may be Fractions, and are summed as they
    are. Triples that contain the unit sector 0 pass by the unit law and are
    not evaluated, so a ring whose twisted sectors all multiply to zero
    passes at once.

    Light's test: the b with (a b) c = a (b c) for all a, c form a Q-subring,
    so a product x * [k], x != 0, of two of them puts [k] in it. Sectors are
    kept in turn unless such products of those kept before reach them, and
    only the kept b are swept; all b are swept once one of them fails, to
    report the first failing triple."""
    count = ring.sector_count()
    constants = ring.structure_constants
    if not any(constants.values()):
        return True, None
    # rows[a]: b -> [a][b] for the stored products and the unit sector 0.
    rows = [{b: ((b, 1),) for b in range(count)}] + [{0: ((a, 1),)} for a in range(1, count)]
    for (a, b), terms in constants.items():
        rows[a][b] = terms
    # support[t]: the nonzero products [t][c], c >= 1, as (c * count, u, coefficient).
    support = [[(c * count, u, y) for c, terms in row.items() if c for u, y in terms]
               for row in rows]
    # by_factor[i]: (j, k) for each product [i][j] or [j][i] that is x * [k], x != 0.
    by_factor = defaultdict(list)
    for (i, j), terms in constants.items():
        if len(terms) == 1 and terms[0][1]:
            by_factor[i].append((j, terms[0][0]))
            by_factor[j].append((i, terms[0][0]))
    reached, middles = [False] * count, []
    for b in range(1, count):
        if not reached[b]:
            middles.append(b)
            reached[b], stack = True, [b]
            while stack:
                for y, k in by_factor[stack.pop()]:
                    if reached[y] and not reached[k]:
                        reached[k] = True
                        stack.append(k)
    if _first_failure(rows, support, middles) is None:
        return True, None
    return False, _first_failure(rows, support, range(1, count))


def _first_failure(rows, support, middles):
    """The first failing (a, b, c) with b in ``middles``, and both sides; or None.

    For each (a, b), both sides are summed at once over the c with a nonzero
    [t][c] for some t in [a][b] or a nonzero [b][c], keyed by the int
    c * count + u; every other c gives 0 on both sides. When the sums differ
    by a nonzero term, the smallest such c gives the failing triple.
    """
    count = len(rows)
    for a in range(1, count):
        row_a = rows[a]
        for b in middles:
            left = {}
            for t, x in row_a.get(b, ()):
                for base, u, y in support[t]:
                    left[base + u] = left.get(base + u, 0) + x * y
            right = {}
            for base, t, x in support[b]:
                for u, y in row_a.get(t, ()):
                    right[base + u] = right.get(base + u, 0) + x * y
            if left == right:
                continue
            # The smallest c at which the sides differ by a nonzero term.
            c = min((key // count for key in left.keys() | right.keys()
                     if left.get(key, 0) != right.get(key, 0)), default=None)
            if c is not None:
                return {
                    "triple": (a, b, c),
                    "left": _terms_at(left, c, count),
                    "right": _terms_at(right, c, count),
                }


def _terms_at(terms: dict, c: int, count: int) -> dict:
    """The nonzero terms of one c, keyed by u, from terms keyed c * count + u."""
    return {key % count: v for key, v in terms.items() if key // count == c and v}


def commutativity_check(ring: CRRing):
    """Flag the first sector pair whose products differ as coefficient
    multisets. Products with the unit sector commute by the unit law, and a
    failing pair (i, j) with j < i would have been found as (j, i) first,
    so only the constants of pairs 1 <= i < j are compared."""
    constants = ring.structure_constants
    count = ring.sector_count()
    for i in range(1, count):
        for j in range(i + 1, count):
            ij, ji = constants.get((i, j), ()), constants.get((j, i), ())
            if ij != ji and dict(ij) != dict(ji):
                return False, (i, j)
    return True, None


def choose_ring(group: FiniteUnitaryGroup, convention: CupConvention | None = None):
    """Build and sweep the ring under both conventions and pick one.

    The default is the literal pair-sum reading; if that fails the
    associativity sweep for this group while the orbit reading passes, the
    orbit reading is selected. Returns the chosen ring and, by convention
    value, each ring's (passes, counterexample) sweep result. More than
    MAX_RING_PAIRS twisted sector pairs i <= j raise InputError before
    either ring is built.
    """
    sectors = len(twisted_sectors(group))
    pairs = (sectors - 1) * sectors // 2
    if pairs > MAX_RING_PAIRS:
        raise InputError(f"{sectors} sectors give {pairs} twisted sector pairs, "
                         f"more than the cap of {MAX_RING_PAIRS}")
    rings = {c: build_ring(group, c) for c in CupConvention}
    sweeps = {c.value: associativity_sweep(ring) for c, ring in rings.items()}
    if convention is None:
        full_ok = sweeps[CupConvention.FULL_PAIR_SUM.value][0]
        orbit_ok = sweeps[CupConvention.ORBIT_REPRESENTATIVE_SUM.value][0]
        convention = (
            CupConvention.FULL_PAIR_SUM if full_ok or not orbit_ok
            else CupConvention.ORBIT_REPRESENTATIVE_SUM
        )
    return rings[convention], sweeps


def cr_pairing_check(group: FiniteUnitaryGroup) -> dict:
    """Age duality age(g) + age(g^-1) = n, and the induced sector pairing."""
    sectors = twisted_sectors(group)
    n = group.dimension
    pairs = []
    all_pass = True
    for pos, sector in enumerate(sectors):
        if pos == 0:
            continue
        rep = sector.representative_index
        inv_pos = group.class_position(group.table.inverses[rep])
        dual = sectors[inv_pos]
        ok = sector.age + dual.age == n
        all_pass = all_pass and ok
        pairs.append(
            {
                "sector": sector.label,
                "dual": dual.label,
                "degree": str(sector.degree),
                "dual_degree": str(dual.degree),
                "complementary": dual.degree == 2 * n - sector.degree,
                "age_sum_is_n": ok,
            }
        )
    return {"dimension": n, "all_pass": all_pass, "pairs": pairs}


def cr_of_filling(betti: tuple[int, ...],
                  singularities: tuple[FiniteUnitaryGroup, ...]) -> dict[Fraction, int]:
    """Graded ranks: the user's Betti data plus one rank per nontrivial class
    per singularity in degree 2*age. Torsion of the underlying space is the
    caller's responsibility and passes through untouched."""
    if any(b < 0 for b in betti):
        raise InputError("Betti numbers must be non-negative")
    ranks: dict[Fraction, int] = {}
    for degree, rank in enumerate(betti):
        if rank:
            ranks[Fraction(degree)] = ranks.get(Fraction(degree), 0) + rank
    for group in singularities:
        for sector in twisted_sectors(group)[1:]:
            ranks[sector.degree] = ranks.get(sector.degree, 0) + 1
    return dict(sorted(ranks.items()))


def sector_report(ring: CRRing, sweep) -> dict:
    """JSON-ready description of sectors, products, and ring diagnostics;
    ``sweep`` is the ring's (passes, counterexample) from the sweep. The
    products are an iterator, built as they are read."""
    labels = [s.label for s in ring.sectors]
    count = len(labels)
    sectors = [
        {
            "label": s.label,
            "age": str(s.age),
            "degree": str(s.degree),
            "parity": _zz2_parity(s.degree),
            "class_size": s.size,
            "centralizer_order": s.centralizer_order,
        }
        for s in ring.sectors
    ]
    assoc_ok, counterexample = sweep
    comm_ok, comm_pair = commutativity_check(ring)
    return {
        "convention": ring.convention.value,
        "sectors": sectors,
        "products": (
            {
                "left": labels[i],
                "right": labels[j],
                "terms": [{"sector": labels[k], "coefficient": str(c)}
                          for k, c in ring.structure_constants.get((i, j), ())],
            }
            for i in range(1, count) for j in range(i, count)
        ),
        "associative": assoc_ok,
        "associativity_counterexample": counterexample and {
            "triple": [ring.sectors[p].label for p in counterexample["triple"]]
        },
        "commutative": comm_ok,
        "commutativity_counterexample": comm_pair
        and [ring.sectors[p].label for p in comm_pair],
    }
