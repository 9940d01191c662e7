"""Finite subgroups of U(n): enumeration, conjugacy structure, eigenvalue data.

A group is described by a JSON document declaring the dimension n, a single
cyclotomic conductor N, and generator matrices whose entries are literals in
the cyclotomic grammar. Enumeration is a breadth-first closure keyed by the
canonical form of each matrix that records, per generator s, the column
x -> x * s. Classes, inverses and products are read off those columns;
element orders and eigenvalue multiplicities come from one reduction mod a
prime. Everything is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, divisors, euler_phi, make, parse_literal, zero
from .errors import (
    GroupTooLarge,
    InternalInconsistency,
    NonIsolated,
    NotUnitary,
    ParseError,
)

DEFAULT_MAX_ORDER = 20000

Matrix = tuple[tuple[CyclotomicNumber, ...], ...]


class UnitaryElement:
    """A group element: an n x n cyclotomic matrix with a canonical key."""

    __slots__ = ("entries", "key")

    def __init__(self, entries: Matrix):
        self.entries = entries
        # All entries of a group live at the document conductor, so the
        # normal forms (den, nums) are a faithful canonical key of ints.
        self.key = tuple((c.den, c.nums) for row in entries for c in row)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, UnitaryElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def trace(self) -> CyclotomicNumber:
        t = self.entries[0][0]
        for i in range(1, len(self.entries)):
            t = t + self.entries[i][i]
        return t

    def to_literals(self) -> list[list[str]]:
        return [[c.to_literal() for c in row] for row in self.entries]


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


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugation orbit with its centralizer order, in deterministic order."""

    label: str
    representative_index: int
    member_indices: tuple[int, ...]
    centralizer_order: int
    order: int

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass(frozen=True)
class EigenData:
    """Exact eigenvalue multiplicities of one element.

    ``multiplicities`` maps an exponent m in 0..o-1 to the multiplicity of
    the eigenvalue zeta_o^m; exponents with multiplicity zero are omitted.
    """

    element_index: int
    order: int
    multiplicities: dict[int, int]


class FiniteUnitaryGroup:
    """A finite subgroup of U(n), staged as parsed-then-enumerated."""

    def __init__(self, name, dimension, conductor, generators):
        self.name = name
        self.dimension = dimension
        self.conductor = conductor
        self.generators = generators
        self.elements: list[UnitaryElement] | None = None
        self._index: dict | None = None
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
        return self.elements is not None

    @property
    def order(self) -> int:
        self._require_enumerated()
        return len(self.elements)

    def _require_enumerated(self):
        if not self.is_enumerated:
            raise InternalInconsistency("group is not enumerated yet")

    def element_index(self, element: UnitaryElement) -> int:
        self._require_enumerated()
        idx = self._index.get(element.key)
        if idx is None:
            raise InternalInconsistency("product escaped the enumerated closure")
        return idx

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

    @property
    def mult_table(self) -> list[list[int]]:
        """|G| x |G| index table, for consumers that need every product."""
        if self._mult_table is None:
            self._mult_table = [self.row(i) for i in range(self.order)]
        return self._mult_table

    def inverse_index(self, i: int) -> int:
        """Elements are unitary, so the inverse is the conjugate transpose."""
        self._require_enumerated()
        if self._inverses is None:
            inverses = (UnitaryElement(mat_conj_transpose(e.entries)) for e in self.elements)
            self._inverses = [self.element_index(x) for x in inverses]
        return self._inverses[i]

    def element_order(self, i: int) -> int:
        """Order of element i, read over F_p; see :meth:`_ModularReduction.order`."""
        return self.eigen_multiplicities(i).order

    # -- conjugacy structure ---------------------------------------------------

    def conjugation_maps(self) -> list[list[int]]:
        """For each generator s, the map x -> s^-1 * x * s.

        The generator column gives x -> x * s, and s^-1 * x = (x^-1 * s)^-1,
        so s^-1 * x * s = col_s[inv[col_s[inv[x]]]].
        """
        inv = [self.inverse_index(x) for x in range(len(self.elements))]
        return [[col[inv[col[inv[x]]]] for x in range(len(inv))] for col in self._gen_cols]

    @property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        self._require_enumerated()
        if self._classes is None:
            conj = self.conjugation_maps()
            n = len(self.elements)
            orbit_of: dict[int, tuple[int, ...]] = {}
            for i in range(n):
                if i not in orbit_of:
                    members = tuple(sorted(x for (x,) in conjugation_orbit(conj, (i,))))
                    orbit_of.update(dict.fromkeys(members, members))
            raw = sorted(
                set(orbit_of.values()),
                key=lambda c: (
                    _age_from_eigen(self.eigen_multiplicities(c[0])),
                    len(c),
                    # Ties break on the Fraction coefficients, the order
                    # class labels have always had.
                    tuple(x.coefficients for row in self.elements[c[0]].entries for x in row),
                ),
            )
            classes = []
            for pos, members in enumerate(raw):
                rep = members[0]
                label = "Id" if rep == 0 else f"c{pos}"
                order = self.element_order(rep)
                classes.append(ConjugacyClass(label, rep, members, n // len(members), order))
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
        """Multiplicity of each eigenvalue zeta_o^m, read over F_p as
        mult(m) = n - rank(g - w_o^m I); see :class:`_ModularReduction`."""
        self._require_enumerated()
        cached = self._eigen.get(i)
        if cached is not None:
            return cached
        red = self._reduction
        g = red.matrix(self.elements[i])
        o = red.order(g, i)
        w, lam = pow(red.root, red.lcm // o, red.prime), 1
        n_dim = self.dimension
        mults: dict[int, int] = {}
        total = 0
        for m in range(o):
            mult = n_dim - red.rank_shifted(g, lam)
            if mult:
                mults[m] = mult
                total += mult
                # Eigenspaces of distinct eigenvalues are independent, so
                # once they fill F_p^n no other exponent can occur.
                if total >= n_dim:
                    break
            lam = lam * w % red.prime
        if total != n_dim:
            raise InternalInconsistency(
                f"eigenvalue multiplicities of element {i} sum to {total}, not {n_dim}"
            )
        data = EigenData(i, o, mults)
        self._eigen[i] = data
        return data

    def fixed_space_dimension(self, i: int) -> int:
        """dim ker(g - I): the multiplicity of eigenvalue 1, read over F_p."""
        self._require_enumerated()
        red = self._reduction
        return self.dimension - red.rank_shifted(red.matrix(self.elements[i]), 1)

    def is_isolated_singularity(self) -> tuple[bool, int | None]:
        """True when no nontrivial element has eigenvalue 1.

        On failure the second component is the first offending element index.
        """
        self._require_enumerated()
        if self._isolated is None:
            witness = None
            for i in range(1, len(self.elements)):
                if self.fixed_space_dimension(i) > 0:
                    witness = i
                    break
            self._isolated = (witness is None, witness)
        return self._isolated

    def require_isolated(self):
        ok, witness = self.is_isolated_singularity()
        if not ok:
            raise NonIsolated(witness)


def _age_from_eigen(data: EigenData) -> Fraction:
    return Fraction(sum(m * mult for m, mult in data.multiplicities.items()), data.order)


class _ModularReduction:
    """The ring map Z[1/d][zeta_L] -> F_p, zeta_L -> w_L, for one group.

    L = lcm(N, |G|); p is the smallest prime = 1 (mod L) above n that divides
    no denominator d of a generator coefficient, and ``root`` is w_L, a
    primitive L-th root of unity mod p. Since o | p - 1 for every element
    order o, reduced elements are diagonalizable over F_p with the eigenvalue
    zeta_o^m sent to w_o^m = w_L^(mL/o), so the ranks below give exact
    multiplicities (README, Conventions).
    """

    __slots__ = ("prime", "lcm", "factors", "root", "_zeta_powers")

    def __init__(self, group: FiniteUnitaryGroup):
        self.lcm = L = math.lcm(group.conductor, group.order)
        dens = math.lcm(*(x.den for g in group.generators for row in g.entries for x in row))
        p = L + 1
        while p <= group.dimension or dens % p == 0 or not _is_prime(p):
            p += L
        self.prime = p
        self.factors = [q for q in divisors(L) if _is_prime(q)]
        powers = (pow(a, (p - 1) // L, p) for a in range(1, p))
        self.root = next(w for w in powers if all(pow(w, L // q, p) != 1 for q in self.factors))
        w_n = pow(self.root, L // group.conductor, p)
        self._zeta_powers = [pow(w_n, e, p) for e in range(euler_phi(group.conductor))]

    def matrix(self, element: UnitaryElement) -> list[list[int]]:
        """The element's entries mapped to F_p."""
        p, zp = self.prime, self._zeta_powers
        try:
            return [
                [sum(c * z for c, z in zip(x.nums, zp) if c) * pow(x.den, -1, p) % p
                 for x in row]
                for row in element.entries
            ]
        except ValueError:
            raise InternalInconsistency(f"an element entry has a denominator divisible by {p}")

    def order(self, g: list[list[int]], i: int) -> int:
        """Multiplicative order of g, the reduction of element i, which is the
        element's order: reduction mod p sends to I only elements of p-power
        order, and p = 1 (mod |G|) does not divide |G|, so it is injective on
        G. Divide each prime q out of o = L while g^(o/q) = I."""
        one = [[int(r == c) for c in range(len(g))] for r in range(len(g))]
        if self._power(g, self.lcm) != one:
            raise InternalInconsistency(f"element {i} does not satisfy g^L = I mod {self.prime}")
        o = self.lcm
        for q in self.factors:
            while o % q == 0 and self._power(g, o // q) == one:
                o //= q
        return o

    def _power(self, g: list[list[int]], e: int) -> list[list[int]]:
        """g^e for e >= 1, by square-and-multiply over the bits of e."""
        p = self.prime

        def mul(a, b):
            return [[sum(map(operator.mul, row, col)) % p for col in zip(*b)] for row in a]

        out = g
        for bit in bin(e)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, g)
        return out

    def rank_shifted(self, g: list[list[int]], lam: int) -> int:
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
    if not isinstance(dimension, int) or dimension < 1:
        raise ParseError("must be a positive integer", "dimension")
    conductor = doc.get("conductor")
    if not isinstance(conductor, int) or conductor < 1:
        raise ParseError("must be a positive integer", "conductor")
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
        element = UnitaryElement(tuple(rows))
        _check_unitary(element, gi, conductor)
        generators.append(element)
    return FiniteUnitaryGroup(name, dimension, conductor, generators)


def _check_unitary(element: UnitaryElement, generator_index: int, conductor: int):
    product = mat_mul(mat_conj_transpose(element.entries), element.entries)
    n = element.dimension
    for r in range(n):
        for c in range(n):
            if product[r][c] != (1 if r == c else 0):
                raise NotUnitary(generator_index, (r, c))


def enumerate_group(group: FiniteUnitaryGroup, max_order: int = DEFAULT_MAX_ORDER) -> FiniteUnitaryGroup:
    """Breadth-first closure of the generators under multiplication."""
    if group.is_enumerated:
        return group
    identity = UnitaryElement(mat_identity(group.dimension, group.conductor))
    elements = [identity]
    index = {identity.key: 0}
    parents: list[tuple[int, int]] = [(0, -1)]
    # gen_cols[gi][e] is the index of element e * generator gi. Elements
    # pass through the frontier once each and in index order, so appending
    # fills every column in order.
    gen_cols: list[list[int]] = [[] for _ in group.generators]
    frontier = [0]
    while frontier:
        fresh = []
        for ei in frontier:
            base = elements[ei].entries
            for gi, g in enumerate(group.generators):
                p = UnitaryElement(mat_mul(base, g.entries))
                idx = index.get(p.key)
                if idx is None:
                    if len(elements) >= max_order:
                        raise GroupTooLarge(
                            f"closure exceeded the order cap {max_order}"
                        )
                    idx = index[p.key] = len(elements)
                    elements.append(p)
                    parents.append((ei, gi))
                    fresh.append(idx)
                gen_cols[gi].append(idx)
        frontier = fresh
    group.elements = elements
    group._index = index
    group._parents = parents
    group._gen_cols = gen_cols
    return group


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
        "generators": [g.to_literals() for g in group.generators],
    }


def document_digest(document) -> str:
    canon = canonical_document(document)
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()
