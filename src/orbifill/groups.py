"""Finite subgroups of U(n): enumeration, conjugacy structure, eigenvalue data.

A group is described by a JSON document declaring the dimension n, a single
cyclotomic conductor N, and generator matrices whose entries are literals in
the cyclotomic grammar. Enumeration is a breadth-first closure over F_p0:
each element is keyed by its reduction mod one odd prime p0 = 1 (mod N) that
does not divide D, the lcm of the generator denominators, and the closure
records each element's parent and, per generator s, the column x -> x * s.
Classes, inverses and products are read off those columns and keys; element
orders and eigenvalue multiplicities come from a second reduction, mod a
prime chosen after the closure. Exact matrices are rebuilt along the parent
chain only when something asks for them.

Why the keys are exact. If D = 1, every entry lies in Z[zeta_N], so G is a
discrete subset of the Minkowski embedding; every Galois conjugate of a
generator is unitary, because complex conjugation is central in
Gal(Q(zeta_N)/Q), so G is also bounded, hence finite. Reduction at a
degree-1 prime above an odd p0 has a torsion-free kernel (e = 1 < p0 - 1),
so it is injective on G and the closure mod p0 is G. If D > 1, G can be
infinite while its image mod p0 is finite, so the closure is certified.
Each element is the product of the generators on its parent chain; let d be
the largest number of generators with a denominator on one chain (at most
the depth of the closure). Every relation x * s = col_s[x] is checked
modulo further primes q = 1 (mod N) prime to D until
p0 * prod(q) > (2 D^(d+1))^phi(N). Each entry of D^(d+1) (x s - y) is an
algebraic integer of absolute value at most 2 D^(d+1) under every
embedding; if all those primes divide it, so does its norm, which is then
0. The relations hold exactly and the closure is G. A failed relation means
the generators do not generate a finite group.
"""

from __future__ import annotations

import json
import math
import operator
from functools import cached_property
from fractions import Fraction
from itertools import groupby

from .cyclotomic import (CyclotomicNumber, euler_phi, factorize, make, parse_literal,
                         reduction_size, zero)
from .errors import (
    GroupTooLarge,
    InternalInconsistency,
    NonIsolated,
    NotUnitary,
    ParseError,
)
from .record import Record

DEFAULT_MAX_ORDER = 20000
# The most entries a group document's conductor may ask of the reduction
# table (cyclotomic.reduction_size). The table has at least one entry per
# row and a row per exponent below the conductor, so a larger conductor is
# rejected before it is factorized.
MAX_REDUCTION_SIZE = 4_000_000

Matrix = tuple[tuple[CyclotomicNumber, ...], ...]
# A matrix over Z/m: a tuple of row tuples of ints in 0..m-1.
Residues = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    nil = zero(math.lcm(a[0][0].conductor, b[0][0].conductor))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = nil
            for k in range(n):
                x, y = a[i][k], b[k][j]
                if x and y:
                    acc = x * y if acc is nil else acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_conj_transpose(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i] and a[j][i].conjugate() for j in range(n)) for i in range(n))


def mat_identity(n: int, conductor: int) -> Matrix:
    one = make(conductor, [(1, 0)])
    nil = make(conductor, [])
    return tuple(tuple(one if i == j else nil for j in range(n)) for i in range(n))


class ConjugacyClass(Record):
    """A conjugation orbit with its centralizer order and age, in
    deterministic order. For an isolated C^n/G it is the twisted sector
    placed in degree 2 * age."""

    def __init__(self, label: str, representative_index: int, member_indices: tuple[int, ...],
                 centralizer_order: int, order: int, age: Fraction):
        self.__dict__.update(label=label, representative_index=representative_index,
                             member_indices=member_indices,
                             centralizer_order=centralizer_order, order=order, age=age)

    @property
    def size(self) -> int:
        return len(self.member_indices)

    @property
    def degree(self) -> Fraction:
        return 2 * self.age


class EigenData(Record):
    """Exact eigenvalue multiplicities of one element.

    ``multiplicities`` maps an exponent m in 0..o-1 to the multiplicity of
    the eigenvalue zeta_o^m; exponents with multiplicity zero are omitted.
    """

    def __init__(self, element_index: int, order: int, multiplicities: dict[int, int]):
        self.__dict__.update(element_index=element_index, order=order,
                             multiplicities=multiplicities)


class FiniteUnitaryGroup:
    """A finite subgroup of U(n), staged as parsed-then-enumerated.
    ``generators`` are exact matrices at the group's one conductor."""

    def __init__(self, name, dimension, conductor, generators):
        self.name = name
        self.dimension = dimension
        self.conductor = conductor
        self.generators = generators
        self._keys: list[Residues] | None = None
        self._index: dict[Residues, int] | None = None
        self._key_map: _ResidueMap | None = None
        self._parents: list[tuple[int, int]] | None = None
        self._gen_cols: list[list[int]] | None = None
        self._mult_table = None
        self._inverses = None
        self._eigen: dict[int, EigenData] = {}
        self._classes = None
        self._class_of = None
        self._isolated = None

    # -- enumeration ---------------------------------------------------------

    @property
    def is_enumerated(self) -> bool:
        return self._keys is not None

    @property
    def order(self) -> int:
        self._require_enumerated()
        return len(self._keys)

    def _require_enumerated(self):
        if not self.is_enumerated:
            raise InternalInconsistency("group is not enumerated yet")

    @cached_property
    def _exact_known(self) -> dict[int, Matrix]:
        return {0: mat_identity(self.dimension, self.conductor)}

    def _exact(self, i: int) -> Matrix:
        """Element i as an exact matrix, its parent's times its generator.
        Every matrix built on the way is kept, so no element is built twice."""
        known = self._exact_known
        chain = []
        while i not in known:
            chain.append(i)
            i = self._parents[i][0]
        m = known[i]
        for c in reversed(chain):
            m = known[c] = mat_mul(m, self.generators[self._parents[c][1]])
        return m

    def row(self, i: int) -> list[int]:
        """[i * x for x in G], composed without matrix products.

        Every element x was discovered as parent * generator with parent < x,
        so i * x is the generator column (recorded by the enumeration) read
        at i * parent, an entry already filled in.
        """
        self._require_enumerated()
        gen_cols = self._gen_cols
        out = [i]
        for parent, gen_idx in self._parents[1:]:
            out.append(gen_cols[gen_idx][out[parent]])
        return out

    def generator_columns(self) -> list[list[int]]:
        """For each generator s, the column x -> x * s of the enumeration."""
        self._require_enumerated()
        return self._gen_cols

    # No src/ path reads mult_table. It and _mult_table stay for
    # bench/tracer.py, which wraps both, and for the tests' references.
    @property
    def mult_table(self) -> list[list[int]]:
        """|G| x |G| index table, for consumers that need every product."""
        if self._mult_table is None:
            self._mult_table = [self.row(i) for i in range(self.order)]
        return self._mult_table

    def inverse_index(self, i: int) -> int:
        """The element whose key is the inverse of key i mod p0."""
        self._require_enumerated()
        if self._inverses is None:
            p, index = self._key_map.modulus, self._index
            try:
                self._inverses = [index[_inverse_mod(k, p)] for k in self._keys]
            except KeyError:
                raise InternalInconsistency("an inverse escaped the enumerated closure")
        return self._inverses[i]

    def element_order(self, i: int) -> int:
        """Order of element i, read off its eigen data over F_p. Reduction mod
        p sends to I only elements of p-power order, and p = 1 (mod |G|) does
        not divide |G|, so it is injective on G and keeps orders."""
        return self.eigen_multiplicities(i).order

    # -- conjugacy structure ---------------------------------------------------

    def conjugation_maps(self) -> list[list[int]]:
        """For each generator s, the map x -> s^-1 * x * s.

        The generator column gives x -> x * s, and s^-1 * x = (x^-1 * s)^-1,
        so s^-1 * x * s = col_s[inv[col_s[inv[x]]]].
        """
        inv = [self.inverse_index(x) for x in range(self.order)]
        return [[col[inv[col[inv[x]]]] for x in range(len(inv))] for col in self._gen_cols]

    @property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        self._require_enumerated()
        if self._classes is None:
            conj = self.conjugation_maps()
            n = self.order
            orbit_of: dict[int, tuple[int, ...]] = {}
            for i in range(n):
                if i not in orbit_of:
                    members = tuple(sorted(x for (x,) in conjugation_orbit(conj, (i,))))
                    orbit_of.update(dict.fromkeys(members, members))
            coarse = sorted(
                ((age(self, c[0]), len(c)), c) for c in set(orbit_of.values())
            )
            raw = []
            for (a, _), run in groupby(coarse, key=operator.itemgetter(0)):
                run = [c for _, c in run]
                if len(run) > 1:
                    run = self._tie_break(run)
                raw.extend((a, c) for c in run)
            classes = []
            for pos, (a, members) in enumerate(raw):
                rep = members[0]
                label = "Id" if rep == 0 else f"c{pos}"
                order = self.element_order(rep)
                classes.append(ConjugacyClass(label, rep, members, n // len(members), order, a))
            self._classes = tuple(classes)
            self._class_of = {
                m: pos for pos, cls in enumerate(self._classes) for m in cls.member_indices
            }
        return self._classes

    def _tie_break(self, run: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Classes that tie on (age, size), in the order labels have always
        had: by their representatives' power-basis coefficients as Fractions,
        entry by entry. Scaled to the lcm of the run's denominators those are
        ints in the same order, so no Fraction is built."""
        entries = [[x for row in self._exact(c[0]) for x in row] for c in run]
        scale = math.lcm(*(x.den for rep in entries for x in rep))
        keys = [tuple(tuple(v * (scale // x.den) for v in x.nums) for x in rep)
                for rep in entries]
        return [c for _, c in sorted(zip(keys, run))]

    def class_position(self, element_index: int) -> int:
        self.classes
        return self._class_of[element_index]

    # -- eigenvalue data -------------------------------------------------------

    @cached_property
    def _reduction(self) -> "_ModularReduction":
        return _ModularReduction(self)

    def eigen_multiplicities(self, i: int) -> EigenData:
        """Multiplicity of each eigenvalue zeta_o^m, read over F_p as a root
        of the characteristic polynomial; see :class:`_ModularReduction`.
        The order o is |G| / gcd(|G|, exponents): the reduced element is
        diagonalizable, so its order is the lcm of its eigenvalues' orders."""
        self._require_enumerated()
        cached = self._eigen.get(i)
        if cached is not None:
            return cached
        exponents = self._reduction.eigen_exponents(self._reduction.matrices[i])
        step = math.gcd(self.order, *exponents)
        data = EigenData(i, self.order // step, {j // step: m for j, m in exponents.items()})
        self._eigen[i] = data
        return data

    def fixed_space_dimension(self, i: int) -> int:
        """dim ker(g - I): the multiplicity of eigenvalue 1, read over F_p."""
        self._require_enumerated()
        red = self._reduction
        return self.dimension - red.rank_shifted(red.matrices[i], 1)

    def is_isolated_singularity(self) -> tuple[bool, int | None]:
        """True when no nontrivial element has eigenvalue 1.

        On failure the second component is the first offending element index.
        """
        self._require_enumerated()
        if self._isolated is None:
            witness = None
            for i in range(1, self.order):
                if self.fixed_space_dimension(i) > 0:
                    witness = i
                    break
            self._isolated = (witness is None, witness)
        return self._isolated

    def require_isolated(self):
        ok, witness = self.is_isolated_singularity()
        if not ok:
            raise NonIsolated(witness)


def age(group: FiniteUnitaryGroup, element_index: int) -> Fraction:
    """sum of m_i / o over the eigenvalue exponents of the element."""
    data = group.eigen_multiplicities(element_index)
    return Fraction(sum(m * mult for m, mult in data.multiplicities.items()), data.order)


class _ResidueMap:
    """The ring map Z[1/D][zeta_N] -> Z/m, zeta_N -> ``root``, on matrices.

    ``root`` is a primitive N-th root of unity mod m and m is prime to D, the
    lcm of the generator denominators, so every group element has an image.
    """

    __slots__ = ("modulus", "zeta_powers")

    def __init__(self, conductor: int, modulus: int, root: int):
        self.modulus = modulus
        self.zeta_powers = [pow(root, e, modulus) for e in range(euler_phi(conductor))]

    def reduce(self, entries: Matrix) -> Residues:
        """The matrix's image; ValueError if a denominator is not prime to m."""
        m, zp = self.modulus, self.zeta_powers
        return tuple(
            tuple(sum(c * z for c, z in zip(x.nums, zp) if c) * pow(x.den, -1, m) % m
                  for x in row)
            for row in entries
        )

    def replay(self, group: FiniteUnitaryGroup, parents) -> list[Residues]:
        """The image of every element in index order, each the image of its
        parent times that of its generator."""
        m = self.modulus
        gens = [_columns(self.reduce(g)) for g in group.generators]
        out = [_identity_mod(group.dimension)]
        for parent, gi in parents[1:]:
            out.append(_mul_mod(out[parent], gens[gi], m))
        return out


def _identity_mod(n: int) -> Residues:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _columns(a: Residues) -> Residues:
    return tuple(zip(*a))


def _mul_mod(a: Residues, b_columns: Residues, m: int) -> Residues:
    """a * b over Z/m, with b given by its columns."""
    return tuple(tuple(sum(map(operator.mul, row, col)) % m for col in b_columns) for row in a)


def _inverse_mod(a: Residues, p: int) -> Residues:
    """a^-1 over F_p, by Gauss-Jordan elimination on [a | I]."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(r[n:]) for r in rows)


def _denominator(group: FiniteUnitaryGroup) -> int:
    """D: the lcm of the generator entries' denominators."""
    return math.lcm(*(x.den for g in group.generators for row in g for x in row))


class _ModularReduction:
    """The ring map Z[1/D][zeta_L] -> F_p, zeta_L -> w_L, for one group.

    L = lcm(N, |G|); p is the smallest prime = 1 (mod L) above n that divides
    no generator denominator, and w_L is a primitive L-th root of unity mod
    p. ``matrices[i]`` is element i mod p, replayed along the parent chain
    from the reduced generators. Every eigenvalue of an element is a |G|-th
    root of unity (g^|G| = I), so ``powers[j]`` = w^j for the primitive
    |G|-th root w = w_L^(L/|G|) lists them all; the eigenvalue zeta_o^m goes
    to w^(m |G|/o). Since p = 1 (mod |G|), x^|G| - 1 is separable mod p, so
    reduced elements are diagonalizable over F_p, and the reduction keeps
    eigenvalue multiplicities (README, Conventions).
    """

    __slots__ = ("prime", "matrices", "powers")

    def __init__(self, group: FiniteUnitaryGroup):
        L = math.lcm(group.conductor, group.order)
        p, root = _split_prime(L, _denominator(group), group.dimension)
        self.prime = p
        residues = _ResidueMap(group.conductor, p, pow(root, L // group.conductor, p))
        self.matrices = residues.replay(group, group._parents)
        w = pow(root, L // group.order, p)
        powers = [1]
        for _ in range(group.order - 1):
            powers.append(powers[-1] * w % p)
        self.powers = powers

    def eigen_exponents(self, g: Residues) -> dict[int, int]:
        """{j: multiplicity} of the eigenvalues w^j of g, in ascending j.

        The roots of the characteristic polynomial are looked for among the
        powers of w in ascending order, and the polynomial is deflated at
        each root until its degree is 0. A repeated root is confirmed by one
        rank, n - rank(g - w^j I) = multiplicity; a simple root's eigenspace
        is a line. InternalInconsistency is raised unless g is
        diagonalizable with |G|-th roots of unity as eigenvalues, as every
        reduced element is.
        """
        p = self.prime
        poly = _charpoly(g, p)
        found: dict[int, int] = {}
        for j, lam in enumerate(self.powers):
            if len(poly) == 1:
                break
            value = 0
            for c in poly:
                value = (value * lam + c) % p
            if value:
                continue
            mult = 0
            quotient, value = _divide(poly, lam, p)
            while not value:
                poly, mult = quotient, mult + 1
                quotient, value = _divide(poly, lam, p)
            if mult > 1 and len(g) - self.rank_shifted(g, lam) != mult:
                raise InternalInconsistency(
                    f"a reduced element is not diagonalizable mod {p}: the eigenvalue "
                    f"w^{j} has multiplicity {mult} but a smaller eigenspace"
                )
            found[j] = mult
        if len(poly) > 1:
            raise InternalInconsistency(
                f"a reduced element has eigenvalues mod {p} that are not "
                f"{len(self.powers)}-th roots of unity"
            )
        return found

    def rank_shifted(self, g: Residues, lam: int) -> int:
        """rank over F_p of g - lam * I."""
        p = self.prime
        rows = [[(x - lam) % p if r == c else x for c, x in enumerate(row)]
                for r, row in enumerate(g)]
        rank = 0
        while rows:
            pivot_row = rows.pop()
            col = next((c for c, x in enumerate(pivot_row) if x), None)
            if col is None:
                continue
            rank += 1
            inv = pow(pivot_row[col], -1, p)
            rows = [[(x - r[col] * inv * y) % p for x, y in zip(r, pivot_row)] for r in rows]
        return rank


def _charpoly(g: Residues, p: int) -> list[int]:
    """det(xI - g) over F_p as [1, c_(n-1), ..., c_0], by Faddeev-LeVerrier:
    M_1 = I, c_(n-k) = -tr(g M_k) / k and M_(k+1) = g M_k + c_(n-k) I. The
    divisions by k <= n need p > n."""
    n = len(g)
    poly, m = [1], _identity_mod(n)
    for k in range(1, n + 1):
        gm = _mul_mod(g, _columns(m), p)
        c = -sum(gm[r][r] for r in range(n)) * pow(k, -1, p) % p
        poly.append(c)
        m = tuple(tuple((x + c) % p if r == s else x for s, x in enumerate(row))
                  for r, row in enumerate(gm))
    return poly


def _divide(poly: list[int], root: int, p: int) -> tuple[list[int], int]:
    """poly = (x - root) * quotient + poly(root) over F_p: (quotient,
    poly(root)), by synthetic division."""
    out = [poly[0]]
    for c in poly[1:]:
        out.append((out[-1] * root + c) % p)
    return out[:-1], out[-1]


def _split_prime(order: int, avoid: int, floor: int) -> tuple[int, int]:
    """The smallest prime p > floor with p = 1 (mod order) that does not
    divide ``avoid``, and a primitive order-th root of unity mod p."""
    p = order * -(-floor // order) + 1
    while avoid % p == 0 or not _is_prime(p):
        p += order
    factors = factorize(order)
    powers = (pow(a, (p - 1) // order, p) for a in range(1, p))
    return p, next(w for w in powers if all(pow(w, order // q, p) != 1 for q in factors))


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


# -- document handling --------------------------------------------------------


def parse_group(document) -> FiniteUnitaryGroup:
    """Validate a group document (text or mapping) into generators.

    The result is not yet enumerated; pass it to :func:`enumerate_group`.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno}, column {e.colno}")
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ParseError("group document must be a JSON object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("must be a string", "name")
    dimension = doc.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise ParseError("must be a positive integer", "dimension")
    conductor = doc.get("conductor")
    if not isinstance(conductor, int) or isinstance(conductor, bool) or conductor < 1:
        raise ParseError("must be a positive integer", "conductor")
    if conductor > MAX_REDUCTION_SIZE or reduction_size(conductor) > MAX_REDUCTION_SIZE:
        raise ParseError(
            f"{conductor} needs a reduction table of more than {MAX_REDUCTION_SIZE} entries",
            "conductor",
        )
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise ParseError("must be a list of matrices", "generators")
    generators = []
    for gi, mat in enumerate(raw_gens):
        if not isinstance(mat, list) or len(mat) != dimension:
            raise ParseError(f"must be a {dimension}x{dimension} matrix", f"generators[{gi}]")
        rows = []
        for ri, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dimension:
                raise ParseError(
                    f"must have {dimension} entries", f"generators[{gi}][{ri}]"
                )
            parsed = []
            for ci, entry in enumerate(row):
                if not isinstance(entry, str):
                    raise ParseError(
                        "entry must be a cyclotomic literal string",
                        f"generators[{gi}][{ri}][{ci}]",
                    )
                parsed.append(
                    parse_literal(entry, conductor, f"generators[{gi}][{ri}][{ci}]")
                )
            rows.append(tuple(parsed))
        matrix = tuple(rows)
        _check_unitary(matrix, gi)
        generators.append(matrix)
    return FiniteUnitaryGroup(name, dimension, conductor, generators)


def _check_unitary(matrix: Matrix, generator_index: int):
    product = mat_mul(mat_conj_transpose(matrix), matrix)
    n = len(matrix)
    for r in range(n):
        for c in range(n):
            if product[r][c] != (1 if r == c else 0):
                raise NotUnitary(generator_index, (r, c))


def enumerate_group(group: FiniteUnitaryGroup, max_order: int = DEFAULT_MAX_ORDER) -> FiniteUnitaryGroup:
    """Breadth-first closure of the generators under multiplication, over
    F_p0 (module docstring): elements are keyed by their reduction mod p0,
    and a closure whose generators have denominators is certified exact."""
    if group.is_enumerated:
        return group
    if max_order < 1:
        raise GroupTooLarge(f"the order cap {max_order} is below 1, the order of the trivial group")
    dens = _denominator(group)
    key_map = _ResidueMap(group.conductor, *_split_prime(group.conductor, dens, 2))
    p0 = key_map.modulus
    gens = [_columns(key_map.reduce(g)) for g in group.generators]
    identity = _identity_mod(group.dimension)
    keys = [identity]
    index = {identity: 0}
    parents: list[tuple[int, int]] = [(0, -1)]
    # gen_cols[gi][e] is the index of element e * generator gi. Elements
    # pass through the frontier once each and in index order, so appending
    # fills every column in order.
    gen_cols: list[list[int]] = [[] for _ in gens]
    frontier = [0]
    while frontier:
        fresh = []
        for ei in frontier:
            base = keys[ei]
            for gi, g in enumerate(gens):
                key = _mul_mod(base, g, p0)
                idx = index.get(key)
                if idx is None:
                    if len(keys) >= max_order:
                        raise GroupTooLarge(
                            f"closure exceeded the order cap {max_order}"
                        )
                    idx = index[key] = len(keys)
                    keys.append(key)
                    parents.append((ei, gi))
                    fresh.append(idx)
                gen_cols[gi].append(idx)
        frontier = fresh
    if dens > 1:
        _certify(group, dens, p0, parents, gen_cols)
    group._keys = keys
    group._index = index
    group._key_map = key_map
    group._parents = parents
    group._gen_cols = gen_cols
    return group


# Certificate primes are drawn from above this floor, so that few of them
# cover the bound and trial division stays cheap.
_CERTIFICATE_PRIME_FLOOR = 1 << 20


def _certify(group: FiniteUnitaryGroup, dens: int, p0: int, parents, gen_cols):
    """Check every relation x * s = col_s[x] of a closure mod p0 exactly, or
    raise GroupTooLarge: modulo primes q = 1 (mod N) prime to D = ``dens``
    with p0 * prod(q) > (2 D^(d+1))^phi(N), all at once modulo their
    product; d is the largest number of generators with a denominator on one
    parent chain (module docstring)."""
    conductor = group.conductor
    fractional = [any(x.den > 1 for row in g for x in row) for g in group.generators]
    depth = [0]
    for parent, gi in parents[1:]:
        depth.append(depth[parent] + fractional[gi])
    bound = (2 * dens ** (max(depth) + 1)) ** euler_phi(conductor)
    modulus, root, q = 1, 0, max(p0, _CERTIFICATE_PRIME_FLOOR)
    while p0 * modulus <= bound:
        q, w = _split_prime(conductor, dens, q)
        # Chinese remainders: root stays root mod modulus and becomes w mod q.
        root += modulus * ((w - root) * pow(modulus, -1, q) % q)
        modulus *= q
    residues = _ResidueMap(conductor, modulus, root)
    mats = residues.replay(group, parents)
    gens = [_columns(residues.reduce(g)) for g in group.generators]
    for g, col in zip(gens, gen_cols):
        for x, y in enumerate(col):
            if _mul_mod(mats[x], g, modulus) != mats[y]:
                raise GroupTooLarge("the generators do not generate a finite group")


def conjugation_orbit(conj: list[list[int]], point: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Orbit of a tuple of element indices under simultaneous conjugation,
    in breadth-first order over the maps of
    :meth:`FiniteUnitaryGroup.conjugation_maps`."""
    orbit = [point]
    seen = {point}
    for pt in orbit:
        for c in conj:
            image = tuple(c[x] for x in pt)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


# -- canonical documents and digests ------------------------------------------


def canonical_document(document) -> dict:
    """Re-render a group document with canonical entry literals and ordering.

    ``document`` is text, a mapping, or a group :func:`parse_group` returned.
    """
    group = document if isinstance(document, FiniteUnitaryGroup) else parse_group(document)
    return {
        "name": group.name,
        "dimension": group.dimension,
        "conductor": group.conductor,
        "generators": [[[x.to_literal() for x in row] for row in g] for g in group.generators],
    }


def document_digest(document) -> str:
    # Imported here: hashlib loads OpenSSL, which commands that hash no
    # document (span random, --version) need not pay for at start-up.
    import hashlib

    canon = canonical_document(document)
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()
