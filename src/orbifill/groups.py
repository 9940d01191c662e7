"""Finite subgroups of U(n): enumeration, and conjugacy classes with their spectra.

A group is described by a JSON document declaring the dimension n, a single
cyclotomic conductor N, and generator matrices whose entries are literals in
the cyclotomic grammar. Enumeration is the breadth-first closure
:func:`~orbifill.tables.closure` over F_p0: each element is keyed by its
reduction mod one odd prime p0 = 1 (mod N) that does not divide D, the lcm
of the generator denominators, and the closure records, per generator s,
the column x -> x * s. The keys are dropped once the closure is done: the
group keeps those columns as a :class:`~orbifill.tables.FiniteGroupTable`,
which composes its rows, inverses and conjugation maps, and classes are
orbits of those maps. The table's first tree, the same breadth-first search
over the columns, finds each element as its parent times a generator, and
is the one record of how it was found. Element orders come from power walks
along the table's rows, and eigenvalue multiplicities from a reduction mod
a prime p chosen after the closure, at one rank per candidate eigenvalue.
Both are read once per cyclic subgroup and spread to every class its powers
meet: each :class:`ConjugacyClass` carries its order and eigenvalue
multiplicities, its spectrum, and the age that follows from them. One
:class:`_Reduction` sends the generators to Z/m for each of p0, the
certificate's modulus and p, and holds each reduced generator by its
columns, each column by its nonzero (row, value) pairs, so x times s costs n
products per nonzero entry of s: n^2 on a monomial generator, not n^3.
Elements are built along the tree only where they are read, mod p for the
eigen data and as exact matrices for the class order's tie-break, by one
walk (:meth:`~orbifill.tables.FiniteGroupTable.elements`) that keeps a
matrix only while something still needs it.

Why the keys are exact. If D = 1, every entry lies in Z[zeta_N], so G is a
discrete subset of the Minkowski embedding; every Galois conjugate of a
generator is unitary, because complex conjugation is central in
Gal(Q(zeta_N)/Q), so G is also bounded, hence finite. Reduction at a
degree-1 prime above an odd p0 has a torsion-free kernel (e = 1 < p0 - 1),
so it is injective on G and the closure mod p0 is G. If D > 1, G can be
infinite while its image mod p0 is finite, so the closure is certified.
Each element is the product of the generators on its path from the identity
in the first tree; let d be the largest number of generators with a
denominator on one path (at most the depth of the closure). Every relation
x * s = col_s[x] is checked modulo further primes q = 1 (mod N) prime to D
until p0 * prod(q) > (2 D^(d+1))^phi(N), by the closure modulo prod(q),
which must find the same columns. Each entry of D^(d+1) (x s - y) is an
algebraic integer of absolute value at most 2 D^(d+1) under every
embedding; if all those primes divide it, so does its norm, which is then
0. The relations hold exactly and the closure is G. A failed relation means
the generators do not generate a finite group. The certificate's closure
makes |G| * |S| moves modulo a product of about log2 (2 D^(d+1))^phi(N)
bits, which is known before the first prime is drawn; one whose |G| * |S| *
bits^2 is above MAX_CERTIFICATE_SIZE is refused.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

from .cyclotomic import (CyclotomicNumber, euler_phi, factorize, one, parse_literal,
                         reduction_size, zero)
from .errors import InputError, InternalInconsistency, NonIsolated, excerpt
from .record import Record
from .tables import FiniteGroupTable, closure, orbits

DEFAULT_MAX_ORDER = 20000
# The most terms a group document's conductor may ask of the powers
# x^e mod Phi_N, 0 <= e < N (cyclotomic.reduction_size), which bound the
# reduction table. Each power has at least one term, so a larger conductor
# is rejected before it is factorized.
MAX_REDUCTION_SIZE = 4_000_000
# group info on {I, -I} in U(500) took 1.4 s and 24 MB child peak (2-vCPU x86-64 VM).
MAX_DIMENSION = 500

Matrix = tuple[tuple[CyclotomicNumber, ...], ...]
# A matrix over Z/m: a tuple of row tuples of ints in 0..m-1.
Residues = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a * b, reading a row of b only where the row of a is nonzero; the
    operands share one conductor, at which the zero is taken."""
    nil = zero(a[0][0].conductor)
    out = []
    for a_row in a:
        acc = [nil] * len(b[0])
        for x, b_row in zip(a_row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] = x * y if acc[j] is nil else acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_conj_transpose(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i] and a[j][i].conjugate() for j in range(n)) for i in range(n))


def mat_identity(n: int, conductor: int) -> Matrix:
    unit, nil = one(conductor), zero(conductor)
    return tuple(tuple(unit if i == j else nil for j in range(n)) for i in range(n))


class ConjugacyClass(Record):
    """A conjugation orbit with its centralizer order and spectrum, in
    deterministic order. Its members have the order o, and
    ``multiplicities`` maps an exponent m in 0..o-1 to the multiplicity of
    the eigenvalue zeta_o^m, exponents with multiplicity zero omitted; the
    age is the sum of m / o over the eigenvalues. For an isolated C^n/G the
    class is the twisted sector placed in degree 2 * age."""

    def __init__(self, label: str, representative_index: int, member_indices: tuple[int, ...],
                 centralizer_order: int, order: int, multiplicities: dict[int, int]):
        self.__dict__.update(label=label, representative_index=representative_index,
                             member_indices=member_indices, centralizer_order=centralizer_order,
                             order=order, multiplicities=multiplicities,
                             age=_age(order, multiplicities))

    @property
    def size(self) -> int:
        return len(self.member_indices)

    @property
    def degree(self) -> Fraction:
        return 2 * self.age


def _age(order: int, multiplicities: dict[int, int]) -> Fraction:
    return Fraction(sum(m * mult for m, mult in multiplicities.items()), order)


class GroupDocument(Record):
    """A validated group document: its name, the dimension n, the one
    conductor N and the generators as exact matrices at N.
    :func:`enumerate_group` builds the group they generate."""

    def __init__(self, name: str, dimension: int, conductor: int, generators: tuple[Matrix, ...]):
        self.__dict__.update(name=name, dimension=dimension, conductor=conductor,
                             generators=generators)


class FiniteUnitaryGroup:
    """A finite subgroup of U(n), built whole by :func:`enumerate_group`.
    ``generators`` are exact matrices at the group's one conductor, and
    ``table`` holds the generator columns the enumeration recorded."""

    def __init__(self, document: GroupDocument, table: FiniteGroupTable):
        self.name = document.name
        self.dimension = document.dimension
        self.conductor = document.conductor
        self.generators = document.generators
        self.order = table.order
        self.table = table
        self._mult_table = None
        self._eigen: dict[int, tuple[int, dict[int, int]]] = {}
        self._classes = None
        self._class_of = None
        self._isolated = None

    def exact(self, targets):
        """(i, element i as an exact matrix) for each target i, in ascending
        i, built along ``table.tree`` (:meth:`FiniteGroupTable.elements`)."""
        return self.table.elements(targets, mat_identity(self.dimension, self.conductor),
                                   lambda m, s: mat_mul(m, self.generators[s]))

    # No src/ path or test reads mult_table. It and _mult_table stay only
    # because bench/tracer.py wraps both.
    @property
    def mult_table(self) -> list[list[int]]:
        """|G| x |G| index table, for consumers that need every product."""
        if self._mult_table is None:
            self._mult_table = [self.table.row(i) for i in range(self.order)]
        return self._mult_table

    # -- conjugacy structure ---------------------------------------------------

    @property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        if self._classes is None:
            n = self.order
            found = orbits(self.table.conjugation_maps(), n)
            self._spread(found)
            coarse = sorted(((_age(*self._eigen[c[0]]), len(c)), c) for c in found)
            # Classes that tie on (age, size) are ordered by their
            # representatives' power-basis coefficients as Fractions, entry
            # by entry; only those representatives are rebuilt, in one walk.
            ties = Counter(k for k, _ in coarse)
            tied = (c[0] for k, c in coarse if ties[k] > 1)
            keys = {i: _sparse_key(m) for i, m in self.exact(tied)}
            classes = []
            for pos, (_, members) in enumerate(
                    sorted(coarse, key=lambda kc: (kc[0], keys.get(kc[1][0], ())))):
                rep = members[0]
                label = "Id" if rep == 0 else f"c{pos}"
                classes.append(ConjugacyClass(label, rep, members, n // len(members),
                                              *self._eigen[rep]))
            self._classes = tuple(classes)
            self._class_of = {
                m: pos for pos, cls in enumerate(self._classes) for m in cls.member_indices
            }
        return self._classes

    def _spread(self, found: list[tuple[int, ...]]):
        """The spectrum of the least member of each orbit in ``found``, in
        ``_eigen``, one read per cyclic subgroup (Isaacs, Character Theory of
        Finite Groups, 1976, ch. 2). The least member g of each orbit no
        earlier read reached is walked along its row until g^o = 1 and read
        once. If g has the eigenvalues zeta_o^m, g^k has zeta_o^(mk), so the
        orbit of each g^k gets the order o / gcd(o, k) and the exponents
        (mk mod o) / gcd(o, k), with equal exponents' multiplicities summed."""
        rep_of = [0] * self.order
        for c in found:
            for x in c:
                rep_of[x] = c[0]
        # The walks first, as they fix which elements are read; then one
        # walk down the tree builds those elements mod p.
        walks, reached = {}, set(self._eigen)
        for c in found:
            if c[0] not in reached:
                walk = walks[c[0]] = self.table.powers(c[0])
                reached.update(rep_of[x] for x in walk)
        red, lcm, root = _eigen_reduction(self)
        p = red.modulus
        for g, element in self.table.elements(walks, _identity_mod(self.dimension), red.times):
            o = len(walks[g])
            exponents = eigen_exponents(element, o, p, pow(root, lcm // o, p))
            for k, x in enumerate(walks[g]):
                if rep_of[x] not in self._eigen:
                    d = math.gcd(o, k)
                    mults = Counter()
                    for m, mult in exponents.items():
                        mults[m * k % o // d] += mult
                    self._eigen[rep_of[x]] = (o // d, dict(sorted(mults.items())))

    def class_position(self, element_index: int) -> int:
        self.classes
        return self._class_of[element_index]

    def eigen_multiplicities(self, i: int) -> ConjugacyClass:
        """The class of element i, which carries i's spectrum. No src/ path
        or test calls it: it stays only because bench/tracer.py wraps it."""
        return self.classes[self.class_position(i)]

    def is_isolated_singularity(self) -> tuple[bool, int | None]:
        """True when no nontrivial element has eigenvalue 1, read from the
        spectra of the classes.

        Each representative is the smallest member of its class, so on
        failure the second component is the first offending element index.
        """
        if self._isolated is None:
            offending = [c.representative_index for c in self.classes
                         if c.representative_index and c.multiplicities.get(0)]
            witness = min(offending, default=None)
            self._isolated = (witness is None, witness)
        return self._isolated

    def require_isolated(self):
        ok, witness = self.is_isolated_singularity()
        if not ok:
            raise NonIsolated(f"element {witness} fixes a nonzero vector")


def _sparse_key(matrix: Matrix) -> tuple:
    """Orders matrices as the tuples of their entries' power-basis
    coefficients do, from the stored terms alone: a nonzero c at position e
    is (c > 0, -e if c > 0 else e, c), and (False, inf) ends each entry, so
    where two entries first differ, a 0 sorts after a negative coefficient
    and before a positive one, as in the dense order."""
    return tuple(tuple((c > 0, -e if c > 0 else e, Fraction(c, x.den))
                       for e, c in x.terms) + ((False, math.inf),)
                 for row in matrix for x in row)


class _Reduction:
    """The ring map Z[1/D][zeta_N] -> Z/m, zeta_N -> ``root``, on the
    generators of a document: ``root`` is a primitive N-th root of unity mod
    m and m is prime to D, the lcm of the generator denominators, so every
    group element has an image. Each generator is reduced once and held by
    its columns, in document order, each column as the (row, value) pairs of
    its nonzero entries in ascending row. :meth:`times` sums over those
    pairs; it is the closure's move mod p0 and mod the certificate modulus,
    and the eigen walk's step mod p.
    """

    __slots__ = ("modulus", "columns")

    def __init__(self, document: GroupDocument | FiniteUnitaryGroup, modulus: int, root: int):
        self.modulus = m = modulus
        # One power per exponent and one inverse per denominator that occur:
        # at the certificate's modulus of thousands of bits, these dominate.
        entries = [x for g in document.generators for row in g for x in row]
        power = {e: pow(root, e, m) for e in {e for x in entries for e, _ in x.terms}}
        inverse = {d: pow(d, -1, m) for d in {x.den for x in entries}}
        self.columns = tuple(
            tuple(tuple((r, v) for r, x in enumerate(col)
                        if (v := sum(c * power[e] for e, c in x.terms) * inverse[x.den] % m))
                  for col in zip(*g))
            for g in document.generators)

    def times(self, x: Residues, s: int) -> Residues:
        """x times generator s over Z/m."""
        m = self.modulus
        return tuple(tuple(sum(row[r] * v for r, v in col) % m for col in self.columns[s])
                     for row in x)

    @property
    def moves(self) -> list:
        """x -> x times s for each generator s, for :func:`closure`."""
        return [lambda x, s=s, times=self.times: times(x, s) for s in range(len(self.columns))]


def _identity_mod(n: int) -> Residues:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _denominator(document: GroupDocument | FiniteUnitaryGroup) -> int:
    """D: the lcm of the generator entries' denominators."""
    return math.lcm(*(x.den for g in document.generators for row in g for x in row))


def _eigen_reduction(group: FiniteUnitaryGroup) -> tuple[_Reduction, int, int]:
    """The generators mod p, L = lcm(N, |G|) and w_L, with p the smallest
    odd prime = 1 (mod L) that divides no generator denominator, w_L a
    primitive L-th root of unity mod p and zeta_N sent to w_L^(L/N). An
    element of order o has o-th roots of unity as eigenvalues, and zeta_o^m
    goes to w_o^m, w_o = w_L^(L/o). As x^o - 1 is separable mod p, reduced
    elements are diagonalizable over F_p with the same eigenvalue
    multiplicities (README, Conventions)."""
    lcm = math.lcm(group.conductor, group.order)
    p, root = _split_prime(lcm, _denominator(group), 2)
    return _Reduction(group, p, pow(root, lcm // group.conductor, p)), lcm, root


def eigen_exponents(g: Residues, o: int, p: int, w: int) -> dict[int, int]:
    """{m: multiplicity} of the eigenvalues w^m of g mod p, an element of
    order o with w = w_o, in ascending m: mult(m) = n - rank(g - w^m I) for
    m = 0, 1, ..., until the multiplicities sum to n. InternalInconsistency
    is raised if they never do, that is unless g is diagonalizable with o-th
    roots of unity as eigenvalues, as every reduced element of order o is.
    """
    n, lam = len(g), 1
    found, total = {}, 0
    for m in range(o):
        mult = n - rank_shifted(g, lam, p)
        if mult:
            found[m] = mult
            total += mult
            if total == n:
                return found
        lam = lam * w % p
    raise InternalInconsistency(
        f"a reduced element is not diagonalizable mod {p} with {o}-th roots of "
        f"unity as eigenvalues: its eigenspaces span {total} of {n} dimensions"
    )


def rank_shifted(g: Residues, lam: int, p: int) -> int:
    """rank over F_p of g - lam * I; rows 0 in a pivot's column are left as they are."""
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
        rows = [[(x - f * y) % p for x, y in zip(r, pivot_row)] if (f := r[col] * inv) else r
                for r in rows]
    return rank


def _split_prime(order: int, avoid: int, floor: int) -> tuple[int, int]:
    """The smallest prime p > floor with p = 1 (mod order) that does not
    divide ``avoid``, and a primitive order-th root of unity mod p."""
    p = order * -(-floor // order) + 1
    while avoid % p == 0 or not _is_prime(p):
        p += order
    factors = factorize(order)
    powers = (pow(a, (p - 1) // order, p) for a in range(1, p))
    return p, next(w for w in powers if all(pow(w, order // q, p) != 1 for q in factors))


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (J. Sorenson and J. Webster, Strong pseudoprimes to twelve prime bases,
# Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin, which raises at or above its bound."""
    if q >= _PRIME_TEST_BOUND:
        raise InternalInconsistency(f"no exact primality test for {q}")
    if q < 2 or any(q % b == 0 for b in _PRIME_BASES):
        return q in _PRIME_BASES
    twos = ((q - 1) & (1 - q)).bit_length() - 1
    for b in _PRIME_BASES:
        x = pow(b, (q - 1) >> twos, q)
        if x == 1:
            continue
        for _ in range(twos - 1):
            if x == q - 1:
                break
            x = x * x % q
        if x != q - 1:
            return False
    return True


# -- document handling --------------------------------------------------------


def read_json(text: str):
    """The value that a group or span document's JSON text writes, else InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e.msg}", f"line {e.lineno}, column {e.colno}")
    except (ValueError, RecursionError):  # int()'s digit limit, or the decoder's depth
        raise InputError("invalid JSON: an integer past the digit limit or too deep") from None


def parse_group(text: str) -> GroupDocument:
    """Validate a group document's JSON text into exact generators;
    :func:`enumerate_group` builds the group from the result."""
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise InputError("group document must be a JSON object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InputError("must be a string", "name")
    dimension = doc.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise InputError("must be a positive integer", "dimension")
    if dimension > MAX_DIMENSION:
        raise InputError(f"{excerpt(dimension)} is above the cap of {MAX_DIMENSION}", "dimension")
    conductor = doc.get("conductor")
    if not isinstance(conductor, int) or isinstance(conductor, bool) or conductor < 1:
        raise InputError("must be a positive integer", "conductor")
    if conductor > MAX_REDUCTION_SIZE or reduction_size(conductor) > MAX_REDUCTION_SIZE:
        raise InputError(
            f"{conductor} needs a reduction table of more than {MAX_REDUCTION_SIZE} entries",
            "conductor",
        )
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise InputError("must be a list of matrices", "generators")
    generators = []
    # Entry text -> its value: the values are immutable, so equal entries
    # share one, and a bad literal raises before it is stored.
    literals = {}
    for gi, mat in enumerate(raw_gens):
        if not isinstance(mat, list) or len(mat) != dimension:
            raise InputError(f"must be a {dimension}x{dimension} matrix", f"generators[{gi}]")
        rows = []
        for ri, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dimension:
                raise InputError(
                    f"must have {dimension} entries", f"generators[{gi}][{ri}]"
                )
            parsed = []
            for ci, entry in enumerate(row):
                if not isinstance(entry, str):
                    raise InputError(
                        "entry must be a cyclotomic literal string",
                        f"generators[{gi}][{ri}][{ci}]",
                    )
                value = literals.get(entry)
                if value is None:
                    value = literals[entry] = parse_literal(
                        entry, conductor, f"generators[{gi}][{ri}][{ci}]")
                parsed.append(value)
            rows.append(tuple(parsed))
        matrix = tuple(rows)
        _check_unitary(matrix, gi)
        generators.append(matrix)
    return GroupDocument(name, dimension, conductor, tuple(generators))


def _check_unitary(matrix: Matrix, generator_index: int):
    product = mat_mul(mat_conj_transpose(matrix), matrix)
    n = len(matrix)
    for r in range(n):
        for c in range(n):
            if product[r][c] != (1 if r == c else 0):
                raise InputError(f"generator {generator_index} is not unitary: conjugate-transpose "
                                 f"product differs from the identity first at entry ({r}, {c})")


def enumerate_group(document: GroupDocument, max_order: int) -> FiniteUnitaryGroup:
    """The group the document's generators generate: their breadth-first
    closure under multiplication over F_p0 (module docstring). Elements are
    keyed by their reduction mod p0 while the closure runs, and a closure
    whose generators have denominators is certified exact. ``max_order``
    is at least 1, the order of the trivial group."""
    dens = _denominator(document)
    red = _Reduction(document, *_split_prime(document.conductor, dens, 2))
    found = closure(_identity_mod(document.dimension), red.moves, max_order)
    if found is None:
        raise InputError(f"closure exceeded the order cap {max_order}")
    keys, columns = found
    table = FiniteGroupTable(columns, range(len(keys)), document.name)
    if dens > 1:
        _certify(document, dens, red.modulus, table)
    return FiniteUnitaryGroup(document, table)


# Certificate primes are drawn from above this floor, so that few of them
# cover the bound.
_CERTIFICATE_PRIME_FLOOR = 1 << 20
# The most work a certificate may take, counted as |G| * |S| * bits^2: its
# closure makes |G| * |S| moves, each a few products of bits-bit residues
# reduced mod M, at about bits^2 apiece. A unit took 0.8-1.2e-11 s on a
# 2-vCPU x86-64 VM, so an admitted certificate takes at most about 6 s there
# (README, caps).
MAX_CERTIFICATE_SIZE = 5 * 10**11


def _certify(document: GroupDocument, dens: int, p0: int, table: FiniteGroupTable):
    """Check every relation x * s = col_s[x] of a closure mod p0 exactly, or
    raise InputError: modulo primes q = 1 (mod N) prime to D = ``dens``
    with p0 * prod(q) > (2 D^(d+1))^phi(N), all at once modulo their
    product; d is the largest number of generators with a denominator on one
    path from the identity in ``table.tree`` (module docstring). The
    relations hold modulo that product exactly when the closure there, capped at |G|, finds the same columns:
    its elements are then the images of those mod p0, which are distinct,
    as reduction is injective on the finite group the relations then give.
    A certificate above MAX_CERTIFICATE_SIZE, with bits the log2 of the
    bound, is refused before the first prime is drawn.
    """
    conductor = document.conductor
    fractional = {col[0]: any(x.den > 1 for row in g for x in row)
                  for col, g in zip(table.columns, document.generators)}
    depth = [0]
    for _, parent, col in table.tree:
        depth.append(depth[parent] + fractional[col[0]])
    phi, power = euler_phi(conductor), max(depth) + 1
    bits = math.ceil(phi * (1 + power * math.log2(dens)))
    size = table.order * len(table.columns) * bits**2
    if size > MAX_CERTIFICATE_SIZE:
        raise InputError(
            f"the certificate of order {table.order} at conductor {conductor} needs a "
            f"{bits}-bit modulus: order x generators x bits^2 is {size:.2g}, above the cap "
            f"of {MAX_CERTIFICATE_SIZE:.0g}")
    bound = (2 * dens**power) ** phi
    modulus, root, q = 1, 0, max(p0, _CERTIFICATE_PRIME_FLOOR)
    while p0 * modulus <= bound:
        q, w = _split_prime(conductor, dens, q)
        # Chinese remainders: root stays root mod modulus and becomes w mod q.
        root += modulus * ((w - root) * pow(modulus, -1, q) % q)
        modulus *= q
    moves = _Reduction(document, modulus, root).moves
    found = closure(_identity_mod(document.dimension), moves, table.order)
    if found is None or tuple(found[1]) != table.columns:
        raise InputError("the generators do not generate a finite group")


# -- canonical documents and digests ------------------------------------------


def canonical_document(document: GroupDocument) -> dict:
    """Re-render a parsed group document with canonical entry literals and ordering."""
    return {
        "name": document.name,
        "dimension": document.dimension,
        "conductor": document.conductor,
        "generators": [[[x.to_literal() for x in row] for row in g] for g in document.generators],
    }


def document_digest(document: GroupDocument) -> str:
    # The built-in sha256, as random.py takes sha512 (hashlib loads OpenSSL),
    # imported here so that commands that hash no document load neither.
    try:
        from _sha256 import sha256  # up to Python 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    canon = canonical_document(document)
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return sha256(payload).hexdigest()
