"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored in the power basis 1, z, ..., z^(phi(N)-1) reduced modulo
the N-th cyclotomic polynomial Phi_N, as their nonzero int coefficients over
one positive int denominator with no common factor. Arithmetic runs on ints
and costs the terms a value has, not phi(N): a product of t- and u-term values
makes t*u int products, plus one reduction-table row per power >= phi(N) that
they reach. Everything is exact; no floating point enters this module.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import InputError, InternalInconsistency, excerpt


def factorize(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1 as {prime: exponent}, primes
    ascending, by trial division."""
    if n < 1:
        raise ValueError("only positive integers have a prime factorization")
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).items())


def reduction_size(n: int) -> int:
    """An upper bound on the terms of x^e mod Phi_n over all 0 <= e < n,
    and so on the entries of the reduction table: phi(n) one-term powers
    below phi(n), and above it powers mod Phi_n(x) = Phi_r(x^(n/r)),
    r = rad n, with at most phi(r) terms each."""
    phi = euler_phi(n)
    return phi + (n - phi) * euler_phi(math.prod(factorize(n)))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_n, ascending. Phi_n(x) = Phi_r(x^(n/r))
    for the radical r of n, where Phi_r = prod over d | r of (x^d - 1)^mu(r/d)
    (Washington, Introduction to Cyclotomic Fields, ch. 2)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    primes = list(factorize(n))
    r = math.prod(primes)
    # d = r / prod(S) for each subset S of the primes, and mu(r/d) = (-1)^|S|.
    even, odd = [], []
    for mask in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        (odd if len(chosen) % 2 else even).append(r // math.prod(chosen))
    poly = [1]
    for d in even:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in odd:
        # Exact division by x^d - 1 from the top: afterwards poly[i + d] is
        # the quotient's coefficient of x^i, and poly[:d] the remainder.
        for i in range(len(poly) - 1, d - 1, -1):
            poly[i - d] += poly[i]
        if any(poly[:d]):
            raise InternalInconsistency("polynomial division left a remainder")
        del poly[:d]
    spread = [0] * (n // r * (len(poly) - 1) + 1)
    spread[:: n // r] = poly
    return tuple(spread)


@lru_cache(maxsize=None)
def _sparse_reduction(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row q holds the nonzero (index, value) pairs of x^(q s) mod Phi_n for
    # 0 <= q < r = rad n and s = n / r: since Phi_n(x) = Phi_r(x^s), it is
    # row q of Phi_r's table, y * row(q - 1) folded back through monic
    # Phi_r, at indices i * s. x^e is row e // s shifted by e % s < s.
    r = math.prod(factorize(n))
    s = n // r
    phi_coeffs = cyclotomic_polynomial(r)
    d = len(phi_coeffs) - 1
    fold = [(i, c) for i, c in enumerate(phi_coeffs[:-1]) if c]
    rows = []
    row: dict[int, int] = {}
    for q in range(r):
        if q < d:
            row = {q: 1}
        else:
            lead = row.get(d - 1, 0)
            row = {i + 1: v for i, v in row.items() if i + 1 < d}
            if lead:
                for i, c in fold:
                    v = row.get(i, 0) - lead * c
                    if v:
                        row[i] = v
                    else:
                        row.pop(i, None)
        rows.append(tuple((i * s, v) for i, v in row.items()))
    return tuple(rows)


_exponent, _coefficient = itemgetter(0), itemgetter(1)


class CyclotomicNumber:
    """An element of Q(zeta_N) in sparse reduced power-basis form.

    The value is sum(c * zeta_N^e for e, c in terms) / den. ``terms`` holds
    the nonzero int coefficients as (e, c) pairs, ascending in e < phi(N),
    and the int ``den > 0`` has no factor in common with them all; zero is
    the empty form over 1. This normal form is unique at each conductor, and
    every operation costs the terms it reads, not phi(N). Instances are
    immutable. ``+``, ``*`` and ``==`` take two values at one conductor:
    another type is no operand (TypeError for ``+`` and ``*``), and another
    conductor raises InternalInconsistency. ``==`` also compares a value
    with an int or a Fraction. Values are not hashable.
    """

    __slots__ = ("conductor", "terms", "den")

    def __init__(self, conductor: int, terms, den: int = 1):
        # terms: (e, c) int pairs with distinct e in [0, phi(N)), any order.
        terms = sorted(filter(_coefficient, terms), key=_exponent)
        if terms and not 0 <= terms[0][0] <= terms[-1][0] < euler_phi(conductor):
            raise InternalInconsistency("power-basis exponent out of range")
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("cyclotomic value with denominator zero")
            g = math.gcd(den, *map(_coefficient, terms))
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                terms = [(e, c // g) for e, c in terms]
        self.conductor = conductor
        self.terms = tuple(terms)
        self.den = den

    def __repr__(self):
        return f"cyclo({self.conductor}, {self.to_literal()!r})"

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not _operand(self, other):
            return NotImplemented
        # Over the lcm of the denominators.
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        acc = {e: c * sa for e, c in self.terms}
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c * sb
        return CyclotomicNumber(self.conductor, acc.items(), self.den * sa)

    def __mul__(self, other):
        if not _operand(self, other):
            return NotImplemented
        # Schoolbook product of the stored terms; _reduce folds back only the
        # powers e >= phi it produced, at e mod n (2*phi - 2 >= n for prime n).
        acc = {}
        get = acc.get
        for i, c in self.terms:
            for j, d in other.terms:
                k = i + j
                acc[k] = get(k, 0) + c * d
        return _reduce(self.conductor, acc, self.den * other.den)

    def inverse(self) -> "CyclotomicNumber":
        """Exact multiplicative inverse: for a = b / den, the product P of the
        other Galois conjugates of b over the norm b * P, a nonzero integer
        (Washington, Introduction to Cyclotomic Fields, ch. 2)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.conductor
        b = CyclotomicNumber(n, self.terms)
        p = one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                p = p * b.galois(k)
        norm = (b * p).terms
        if len(norm) != 1 or norm[0][0]:
            raise InternalInconsistency("the norm is not a nonzero rational integer")
        return CyclotomicNumber(n, [(e, c * self.den) for e, c in p.terms], norm[0][1])

    def galois(self, k: int) -> "CyclotomicNumber":
        """Apply the field automorphism zeta_N -> zeta_N^k, gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError("automorphism exponent must be coprime to the conductor")
        return _reduce(n, {j * k % n: c for j, c in self.terms}, self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, realized as zeta_N -> zeta_N^(N-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # Both sides are in lowest terms, so they compare term by term.
            return (self.terms == (((0, other.numerator),) if other else ())
                    and self.den == other.denominator)
        if not _operand(self, other):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    # -- rendering -----------------------------------------------------------

    def to_literal(self) -> str:
        """Canonical literal in the document grammar (z means zeta_conductor)."""
        parts = []
        den = self.den
        for e, c in self.terms:
            g = math.gcd(c, den)
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            body = mag if e == 0 else f"{mag}*z^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts) if parts else "0"


def _operand(a: CyclotomicNumber, b) -> bool:
    # Whether b is an operand of a + b, a * b and a == b: a CyclotomicNumber
    # at a's conductor. A document builds every value at its one conductor.
    if not isinstance(b, CyclotomicNumber):
        return False
    if b.conductor != a.conductor:
        raise InternalInconsistency(
            f"operands at conductors {a.conductor} and {b.conductor}")
    return True


def _reduce(n: int, acc: dict, den: int) -> CyclotomicNumber:
    # sum(c * zeta_n^e for e, c in acc.items()) / den for int e and c. Each
    # power outside 0 <= e < phi is popped and read from the reduction table
    # at e mod n; the others are already in the power basis. Consumes acc.
    phi = euler_phi(n)
    red = _sparse_reduction(n)
    s = n // len(red)
    get = acc.get
    for e in [e for e in acc if e >= phi or e < 0]:
        c = acc.pop(e)
        q, t = divmod(e % n, s)
        for i, r in red[q]:
            acc[i + t] = get(i + t, 0) + c * r
    return CyclotomicNumber(n, acc.items(), den)


def make(conductor: int, terms) -> CyclotomicNumber:
    """Canonical representative of sum(c * zeta_conductor^e) for (c, e) terms,
    each c an int or a Fraction, at a positive conductor."""
    terms = list(terms)
    den = math.lcm(*(c.denominator for c, _ in terms))
    acc = {}
    for c, e in terms:
        acc[e] = acc.get(e, 0) + c.numerator * (den // c.denominator)
    return _reduce(conductor, acc, den)


def zeta(conductor: int, exponent: int = 1) -> CyclotomicNumber:
    return make(conductor, [(1, exponent)])


def zero(conductor: int) -> CyclotomicNumber:
    return CyclotomicNumber(conductor, ())


def one(conductor: int) -> CyclotomicNumber:
    return CyclotomicNumber(conductor, ((0, 1),))


# -- literal grammar ----------------------------------------------------------


# A term with the whitespace around it; every part is optional, so it always matches.
_TERM = re.compile(r"""\s* ([+-]?) \s*
    (?: (\d+) (?: \s* / \s* (\d+) )? (?: \s* \* \s* (z) )? | (z) )?
    (?: (?<=z) \s* \^ \s* ([+-]?\d+) )? \s*""", re.VERBOSE)


def parse_literal(text: str, conductor: int, locus: str | None = None) -> CyclotomicNumber:
    """Parse an entry of the document grammar at the given conductor.

    expression ::= ['-'] term (('+'|'-') term)*
    term       ::= rational ['*' 'z' ['^' integer]] | 'z' ['^' integer]
    rational   ::= digits ['/' digits]        (a nonzero denominator)
    integer    ::= ['+'|'-'] digits

    Digits are decimal as int() reads them, whitespace may surround every
    token, and a rejection is an InputError naming its offset in the literal.
    It quotes a literal of up to 60 characters whole, and a longer one as
    the 60 around the offset, '...' at each cut end, then its length.
    """
    def err(message, offset):
        raise InputError(f"{message} at offset {offset} in {excerpt(text, offset)}", locus)

    if not text.strip():
        err("empty literal", len(text))
    terms, pos = [], 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, num, den, star_z, z, exp = m.groups()
        if not terms and sign == "+":
            err("unexpected leading '+'", m.start(1))
        if not (num or z) or (terms and not sign):
            at = pos if num or z else m.end()
            err(f"unexpected character {text[at]!r}" if at < len(text) else "expected a term", at)
        try:
            c, d, e = int(sign + (num or "1")), int(den or 1), (int(exp or 1) if star_z or z else 0)
        except ValueError:  # more digits than int() converts
            err("integer too long", m.start(1))
        if not d:
            err("zero denominator", m.end(3))
        terms.append((Fraction(c, d) if d > 1 else c, e))
        pos = m.end()
    return make(conductor, terms)
