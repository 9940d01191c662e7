"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored in the power basis 1, z, ..., z^(phi(N)-1) reduced modulo
the N-th cyclotomic polynomial Phi_N, as int numerators over one positive int
denominator with no common factor, so arithmetic and comparison run on ints.
Everything is exact; no floating point enters this module.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .errors import IncompatibleConductor, InternalInconsistency, ParseError


def divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


class CyclotomicNumber:
    """An element of Q(zeta_N) in reduced power-basis form.

    The value is sum(nums[e] * zeta_N^e) / den over int numerators ``nums``
    and an int ``den > 0`` with gcd(den, *nums) == 1; zero is (0, ..., 0)/1.
    This normal form is unique at each conductor. Instances are immutable.
    Equality compares underlying field elements: representations at
    different conductors are lifted to the lcm first. Values are not
    hashable, since equal values at different conductors have different
    normal forms.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums, den: int = 1):
        nums = tuple(nums)
        if len(nums) != euler_phi(conductor):
            raise InternalInconsistency("coefficient vector has wrong length")
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("cyclotomic value with denominator zero")
            g = math.gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                nums = tuple(c // g for c in nums)
        self.conductor = conductor
        self.nums = nums
        self.den = den

    def __repr__(self):
        return f"cyclo({self.conductor}, {self.to_literal()!r})"

    # -- basic queries -----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Read-only view of the power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return not self.is_zero()

    # -- conductor handling --------------------------------------------------

    def lift(self, conductor: int) -> "CyclotomicNumber":
        """The same field element represented at a multiple conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise IncompatibleConductor(
                f"cannot lift conductor {self.conductor} to {conductor}"
            )
        step = conductor // self.conductor
        return _substitute(conductor, [(j * step, c) for j, c in _support(self.nums)], self.den)

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor == self.conductor:
                return self, other
            b = other
        elif isinstance(other, (int, Fraction)):
            b = make(1, [(other, 0)])
        else:
            return None, None
        lcm = math.lcm(self.conductor, b.conductor)
        return self.lift(lcm), b.lift(lcm)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return _combine(a, b, 1)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return _combine(a, b, -1)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        phi = len(a.nums)
        an, bn = _support(a.nums), _support(b.nums)
        if not an or not bn:
            return CyclotomicNumber(a.conductor, [0] * phi)
        # Schoolbook product into degree < 2*phi - 1, then fold the high
        # degrees back through the reduction table; 2*phi - 2 >= n when n
        # is prime, so the power is read at e mod n.
        acc = [0] * (2 * phi - 1)
        for i, c in an:
            for j, d in bn:
                acc[i + j] += c * d
        n = a.conductor
        red = _sparse_reduction(n)
        s = n // len(red)
        for e in range(phi, 2 * phi - 1):
            c = acc[e]
            if c:
                q, t = divmod(e % n, s)
                for i, r in red[q]:
                    acc[i + t] += c * r
        del acc[phi:]
        return CyclotomicNumber(n, acc, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Exact multiplicative inverse: for a = b / den, the product P of the
        other Galois conjugates of b over the norm b * P, a nonzero integer
        (Washington, Introduction to Cyclotomic Fields, ch. 2)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.conductor
        b = CyclotomicNumber(n, self.nums)
        p = one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                p = p * b.galois(k)
        norm = (b * p).nums
        if any(norm[1:]) or not norm[0]:
            raise InternalInconsistency("the norm is not a nonzero rational integer")
        return CyclotomicNumber(n, [c * self.den for c in p.nums], norm[0])

    def galois(self, k: int) -> "CyclotomicNumber":
        """Apply the field automorphism zeta_N -> zeta_N^k, gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError("automorphism exponent must be coprime to the conductor")
        return _substitute(n, [(j * k, c) for j, c in _support(self.nums)], self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, realized as zeta_N -> zeta_N^(N-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # Both sides are in lowest terms, so they compare term by term.
            return (not any(self.nums[1:]) and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    # -- rendering -----------------------------------------------------------

    def to_literal(self) -> str:
        """Canonical literal in the document grammar (z means zeta_conductor)."""
        parts = []
        den = self.den
        for e, c in _support(self.nums):
            g = math.gcd(c, den)
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            body = mag if e == 0 else f"{mag}*z^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts) if parts else "0"


def _support(nums) -> list[tuple[int, int]]:
    # The (index, value) pairs of the nonzero entries, found in C.
    return [(i, nums[i]) for i in compress(range(len(nums)), nums)]


def _combine(a: CyclotomicNumber, b: CyclotomicNumber, sign: int) -> CyclotomicNumber:
    # a + sign * b for a and b at one conductor, over the lcm of the
    # denominators.
    if a.den == b.den:
        return CyclotomicNumber(a.conductor, [x + sign * y for x, y in zip(a.nums, b.nums)], a.den)
    g = math.gcd(a.den, b.den)
    sa, sb = b.den // g, sign * (a.den // g)
    return CyclotomicNumber(
        a.conductor, [x * sa + y * sb for x, y in zip(a.nums, b.nums)], a.den * sa
    )


def _substitute(n: int, terms, den: int) -> CyclotomicNumber:
    # sum(c * zeta_n^e) / den for int (e, c) terms, each power read from the
    # reduction table at e mod n, as in __mul__.
    red = _sparse_reduction(n)
    s = n // len(red)
    acc = [0] * euler_phi(n)
    for e, c in terms:
        q, t = divmod(e % n, s)
        for i, r in red[q]:
            acc[i + t] += c * r
    return CyclotomicNumber(n, acc, den)


def _from_terms(conductor: int, terms) -> CyclotomicNumber:
    # sum(num / den * zeta_conductor^exp) for int (num, den, exp) terms, den > 0.
    if conductor < 1:
        raise ValueError("conductor must be positive")
    terms = [t for t in terms if t[0]]
    den = math.lcm(*(d for _, d, _ in terms))
    return _substitute(conductor, [(exp, num * (den // d)) for num, d, exp in terms], den)


def make(conductor: int, terms) -> CyclotomicNumber:
    """Canonical representative of sum(c * zeta_conductor^e) for (c, e) terms."""
    out = []
    for coeff, exp in terms:
        if not isinstance(coeff, (int, Fraction)):
            coeff = Fraction(coeff)
        out.append((coeff.numerator, coeff.denominator, exp))
    return _from_terms(conductor, out)


def zeta(conductor: int, exponent: int = 1) -> CyclotomicNumber:
    return make(conductor, [(1, exponent)])


def zero(conductor: int = 1) -> CyclotomicNumber:
    return make(conductor, [])


def one(conductor: int = 1) -> CyclotomicNumber:
    return make(conductor, [(1, 0)])


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
    token, and a rejection is a ParseError naming its offset in the literal.
    It quotes a literal of up to 60 characters whole, and a longer one as
    the 60 around the offset, '...' at each cut end, then its length.
    """
    def err(message, offset):
        quoted = repr(text)
        if len(text) > 60:
            lo = max(0, min(offset - 30, len(text) - 60))
            quoted = (f"{'...' if lo else ''}{text[lo:lo + 60]!r}"
                      f"{'...' if lo + 60 < len(text) else ''} ({len(text)} characters)")
        raise ParseError(f"{message} at offset {offset} in {quoted}", locus)

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
            term = int(sign + (num or "1")), int(den or 1), (int(exp or 1) if star_z or z else 0)
        except ValueError:  # more digits than int() converts
            err("integer too long", m.start(1))
        if not term[1]:
            err("zero denominator", m.end(3))
        terms.append(term)
        pos = m.end()
    return _from_terms(conductor, terms)
