"""Finite subgroups of U(n): enumeration, conjugacy structure, eigenvalue data.

A group is described by a JSON document declaring the dimension n, a single
cyclotomic conductor N, and generator matrices whose entries are literals in
the cyclotomic grammar. Enumeration is the breadth-first closure
:func:`~orbifill.tables.closure` over F_p0: each element is keyed by its
reduction mod one odd prime p0 = 1 (mod N) that does not divide D, the lcm
of the generator denominators, and the closure records, per generator s,
the column x -> x * s.
The keys are dropped once the closure is done: the group keeps those columns
as a :class:`~orbifill.tables.FiniteGroupTable`, which composes its rows,
inverses and conjugation maps, and classes are orbits of those maps. The
table's first tree, the same breadth-first search over the columns, finds
each element as its parent times a generator, and is the one record of how
it was found. Element orders and eigenvalue multiplicities come from a
second reduction, mod a prime chosen after the closure, replayed along that
tree. Exact matrices are rebuilt along it only when something asks for
them, and only while something still needs them.

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
the generators do not generate a finite group.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from functools import cached_property
from fractions import Fraction

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
from .tables import FiniteGroupTable, closure, orbits

DEFAULT_MAX_ORDER = 20000
# The most terms a group document's conductor may ask of the powers
# x^e mod Phi_N, 0 <= e < N (cyclotomic.reduction_size), which bound the
# reduction table. Each power has at least one term, so a larger conductor
# is rejected before it is factorized.
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

    def __init__(self, order: int, multiplicities: dict[int, int]):
        self.__dict__.update(order=order, multiplicities=multiplicities)


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
        self._eigen: dict[int, EigenData] = {}
        self._classes = None
        self._class_of = None
        self._isolated = None

    def exact(self, targets):
        """(i, element i as an exact matrix) for each target i, in ascending
        i. One walk down ``table.tree`` builds each needed element, a target
        or an ancestor of one, as its parent's times its generator, and
        drops a matrix once its last needed child is built."""
        tree, wanted = self.table.tree, set(targets)
        needed, children = set(), [0] * self.order
        for j in wanted:
            while j not in needed:
                needed.add(j)
                if j:
                    j = tree[j - 1][1]
                    children[j] += 1
        # col_g[0] = g: equal elements are equal matrices.
        generator = {col[0]: g for col, g in zip(self.table.columns, self.generators)}
        m = mat_identity(self.dimension, self.conductor)
        built = {0: m}
        for j in sorted(needed):  # 0 comes first, and m is its matrix
            if j:
                _, p, col = tree[j - 1]
                children[p] -= 1
                m = mat_mul(built[p] if children[p] else built.pop(p), generator[col[0]])
                if children[j]:
                    built[j] = m
            if j in wanted:
                yield j, m

    # No src/ path or test reads mult_table. It and _mult_table stay only
    # because bench/tracer.py wraps both.
    @property
    def mult_table(self) -> list[list[int]]:
        """|G| x |G| index table, for consumers that need every product."""
        if self._mult_table is None:
            self._mult_table = [self.table.row(i) for i in range(self.order)]
        return self._mult_table

    def element_order(self, i: int) -> int:
        """Order of element i, read off its eigen data over F_p. Reduction mod
        p sends to I only elements of p-power order, and p = 1 (mod |G|) does
        not divide |G|, so it is injective on G and keeps orders."""
        return self.eigen_multiplicities(i).order

    # -- conjugacy structure ---------------------------------------------------

    @property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        if self._classes is None:
            n = self.order
            coarse = sorted(((age(self, c[0]), len(c)), c)
                            for c in orbits(self.table.conjugation_maps(), n))
            # Classes that tie on (age, size) are ordered by their
            # representatives' power-basis coefficients as Fractions, entry
            # by entry; only those representatives are rebuilt, in one walk.
            ties = Counter(k for k, _ in coarse)
            tied = (c[0] for k, c in coarse if ties[k] > 1)
            keys = {i: _sparse_key(m) for i, m in self.exact(tied)}
            classes = []
            for pos, ((a, _), members) in enumerate(
                    sorted(coarse, key=lambda kc: (kc[0], keys.get(kc[1][0], ())))):
                rep = members[0]
                label = "Id" if rep == 0 else f"c{pos}"
                order = self.element_order(rep)
                classes.append(ConjugacyClass(label, rep, members, n // len(members), order, a))
            self._classes = tuple(classes)
            self._class_of = {
                m: pos for pos, cls in enumerate(self._classes) for m in cls.member_indices
            }
        return self._classes

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
        cached = self._eigen.get(i)
        if cached is not None:
            return cached
        exponents = self._reduction.eigen_exponents(self._reduction.matrices[i])
        step = math.gcd(self.order, *exponents)
        data = EigenData(self.order // step, {j // step: m for j, m in exponents.items()})
        self._eigen[i] = data
        return data

    def fixed_space_dimension(self, i: int) -> int:
        """dim ker(g - I): the multiplicity of eigenvalue 1."""
        return self.eigen_multiplicities(i).multiplicities.get(0, 0)

    def is_isolated_singularity(self) -> tuple[bool, int | None]:
        """True when no nontrivial element has eigenvalue 1, read from the
        eigen data :attr:`classes` computed for the class representatives.

        Each representative is the smallest member of its class, so on
        failure the second component is the first offending element index.
        """
        if self._isolated is None:
            offending = [c.representative_index for c in self.classes
                         if c.representative_index
                         and self.fixed_space_dimension(c.representative_index)]
            witness = min(offending, default=None)
            self._isolated = (witness is None, witness)
        return self._isolated

    def require_isolated(self):
        ok, witness = self.is_isolated_singularity()
        if not ok:
            raise NonIsolated(witness)


def _sparse_key(matrix: Matrix) -> tuple:
    """Orders matrices as the tuples of their entries' power-basis
    coefficients do, from the nonzero ones alone: a nonzero c at position e
    is (c > 0, -e if c > 0 else e, c), and (False, inf) ends each entry, so
    where two entries first differ, a 0 sorts after a negative coefficient
    and before a positive one, as in the dense order."""
    return tuple(tuple((c > 0, -e if c > 0 else e, Fraction(c, x.den))
                       for e, c in enumerate(x.nums) if c) + ((False, math.inf),)
                 for row in matrix for x in row)


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


def _identity_mod(n: int) -> Residues:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _columns(a: Residues) -> Residues:
    return tuple(zip(*a))


def _mul_mod(a: Residues, b_columns: Residues, m: int) -> Residues:
    """a * b over Z/m, with b given by its columns."""
    return tuple(tuple(sum(map(operator.mul, row, col)) % m for col in b_columns) for row in a)


def _denominator(document: GroupDocument | FiniteUnitaryGroup) -> int:
    """D: the lcm of the generator entries' denominators."""
    return math.lcm(*(x.den for g in document.generators for row in g for x in row))


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
        gens = {col[0]: _columns(residues.reduce(g))
                for col, g in zip(group.table.columns, group.generators)}
        # One product per element, where a closure mod p makes one per element
        # and generator: 9 to 16 ms against 29 on nine groups (2-vCPU machine).
        # Edge j - 1 of the tree finds element j.
        matrices = self.matrices = [_identity_mod(group.dimension)]
        for _, parent, col in group.table.tree:
            matrices.append(_mul_mod(matrices[parent], gens[col[0]], p))
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


def parse_group(document) -> GroupDocument:
    """Validate a group document (text or mapping) into exact generators;
    :func:`enumerate_group` builds the group from the result."""
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
    return GroupDocument(name, dimension, conductor, tuple(generators))


def _check_unitary(matrix: Matrix, generator_index: int):
    product = mat_mul(mat_conj_transpose(matrix), matrix)
    n = len(matrix)
    for r in range(n):
        for c in range(n):
            if product[r][c] != (1 if r == c else 0):
                raise NotUnitary(generator_index, (r, c))


def enumerate_group(document: GroupDocument, max_order: int = DEFAULT_MAX_ORDER) -> FiniteUnitaryGroup:
    """The group the document's generators generate: their breadth-first
    closure under multiplication over F_p0 (module docstring). Elements are
    keyed by their reduction mod p0 while the closure runs, and a closure
    whose generators have denominators is certified exact."""
    if max_order < 1:
        raise GroupTooLarge(f"the order cap {max_order} is below 1, the order of the trivial group")
    dens = _denominator(document)
    key_map = _ResidueMap(document.conductor, *_split_prime(document.conductor, dens, 2))
    found = closure(_identity_mod(document.dimension), _moves(document, key_map), max_order)
    if found is None:
        raise GroupTooLarge(f"closure exceeded the order cap {max_order}")
    keys, columns = found
    table = FiniteGroupTable(columns, range(len(keys)), document.name)
    if dens > 1:
        _certify(document, dens, key_map.modulus, table)
    return FiniteUnitaryGroup(document, table)


def _moves(document: GroupDocument, residues: _ResidueMap) -> list:
    """x -> x * s over Z/m for each generator s, for :func:`closure`."""
    m = residues.modulus
    return [lambda x, s=_columns(residues.reduce(g)): _mul_mod(x, s, m)
            for g in document.generators]


# Certificate primes are drawn from above this floor, so that few of them
# cover the bound and trial division stays cheap.
_CERTIFICATE_PRIME_FLOOR = 1 << 20


def _certify(document: GroupDocument, dens: int, p0: int, table: FiniteGroupTable):
    """Check every relation x * s = col_s[x] of a closure mod p0 exactly, or
    raise GroupTooLarge: modulo primes q = 1 (mod N) prime to D = ``dens``
    with p0 * prod(q) > (2 D^(d+1))^phi(N), all at once modulo their
    product; d is the largest number of generators with a denominator on one
    path from the identity in ``table.tree`` (module docstring). The
    relations hold modulo that product exactly when the closure there, capped at |G|, finds the same columns:
    its elements are then the images of those mod p0, which are distinct,
    as reduction is injective on the finite group the relations then give.
    """
    conductor = document.conductor
    fractional = {col[0]: any(x.den > 1 for row in g for x in row)
                  for col, g in zip(table.columns, document.generators)}
    depth = [0]
    for _, parent, col in table.tree:
        depth.append(depth[parent] + fractional[col[0]])
    bound = (2 * dens ** (max(depth) + 1)) ** euler_phi(conductor)
    modulus, root, q = 1, 0, max(p0, _CERTIFICATE_PRIME_FLOOR)
    while p0 * modulus <= bound:
        q, w = _split_prime(conductor, dens, q)
        # Chinese remainders: root stays root mod modulus and becomes w mod q.
        root += modulus * ((w - root) * pow(modulus, -1, q) % q)
        modulus *= q
    residues = _ResidueMap(conductor, modulus, root)
    found = closure(_identity_mod(document.dimension), _moves(document, residues), table.order)
    if found is None or tuple(found[1]) != table.columns:
        raise GroupTooLarge("the generators do not generate a finite group")


# -- canonical documents and digests ------------------------------------------


def canonical_document(document) -> dict:
    """Re-render a group document with canonical entry literals and ordering.

    ``document`` is text, a mapping, or the :class:`GroupDocument`
    :func:`parse_group` returned.
    """
    doc = document if isinstance(document, GroupDocument) else parse_group(document)
    return {
        "name": doc.name,
        "dimension": doc.dimension,
        "conductor": doc.conductor,
        "generators": [[[x.to_literal() for x in row] for row in g] for g in doc.generators],
    }


def document_digest(document) -> str:
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
