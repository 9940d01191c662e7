"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored in the power basis 1, z, ..., z^(phi(N)-1) reduced modulo
the N-th cyclotomic polynomial Phi_N, with Fraction coefficients. Everything
is exact; no floating point enters this module (a decimal rendering for
display is the lone, clearly-marked exception).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials (ascending coefficients), where
    # den is monic; the remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise InternalInconsistency("polynomial division left a remainder")
    return out


class CyclotomicPolynomial:
    """Phi_N with integer coefficients, ascending order."""

    __slots__ = ("conductor", "coefficients")

    def __init__(self, conductor: int, coefficients: tuple[int, ...]):
        self.conductor = conductor
        self.coefficients = coefficients

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __repr__(self):
        return f"CyclotomicPolynomial({self.conductor}, {self.coefficients})"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> CyclotomicPolynomial:
    """Phi_n, by iterated exact division of x^n - 1 by Phi_d for d | n, d < n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d == n:
            break
        poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d).coefficients))
    return CyclotomicPolynomial(n, tuple(poly))


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    # Row e is x^e mod Phi_n as an integer vector of length phi(n), for
    # 0 <= e < 2n. Exponents are always brought below 2n before lookup.
    phi_coeffs = cyclotomic_polynomial(n).coefficients
    d = len(phi_coeffs) - 1
    rows: list[list[int]] = []
    for e in range(2 * n):
        if e < d:
            row = [0] * d
            row[e] = 1
        else:
            prev = rows[e - 1]
            row = [0] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                for i in range(d):
                    row[i] -= lead * phi_coeffs[i]
        rows.append(row)
    return tuple(tuple(r) for r in rows)


_ZERO = Fraction(0)


class CyclotomicNumber:
    """An element of Q(zeta_N) in reduced power-basis form.

    Instances are immutable. Equality compares underlying field elements:
    representations at different conductors are lifted to the lcm first.
    """

    __slots__ = ("conductor", "coefficients", "_minimal")

    def __init__(self, conductor: int, coefficients):
        self.conductor = conductor
        self.coefficients = tuple(coefficients)
        self._minimal = None
        if len(self.coefficients) != euler_phi(conductor):
            raise InternalInconsistency("coefficient vector has wrong length")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(value),))

    def __repr__(self):
        return f"cyclo({self.conductor}, {self.to_literal()!r})"

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def __bool__(self):
        return not self.is_zero()

    def as_rational(self):
        """The Fraction value if this element is rational, else None."""
        if any(self.coefficients[1:]):
            return None
        return self.coefficients[0]

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
        red = _reduction_table(conductor)
        acc = [_ZERO] * euler_phi(conductor)
        for j, c in enumerate(self.coefficients):
            if c:
                for i, r in enumerate(red[j * step]):
                    if r:
                        acc[i] += c * r
        return CyclotomicNumber(conductor, acc)

    def minimal(self) -> "CyclotomicNumber":
        """The equal value at the smallest conductor dividing this one."""
        if self._minimal is None:
            r = self.as_rational()
            if r is not None:
                out = CyclotomicNumber(1, (r,))
            else:
                out = self
                for d in divisors(self.conductor)[:-1]:
                    cand = self._at_conductor(d)
                    if cand is not None:
                        out = cand
                        break
            self._minimal = out
        return self._minimal

    def _at_conductor(self, d: int):
        # Solve for coordinates of self in the basis zeta_d^j, j < phi(d),
        # inside Q(zeta_N); returns None when self lies outside Q(zeta_d).
        n = self.conductor
        red = _reduction_table(n)
        cols = euler_phi(d)
        rows = euler_phi(n)
        mat = [[Fraction(red[(n // d) * j][i]) for j in range(cols)] for i in range(rows)]
        rhs = [Fraction(c) for c in self.coefficients]
        sol = _solve_exact(mat, rhs)
        if sol is None:
            return None
        return CyclotomicNumber(d, sol)

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, CyclotomicNumber):
            b = other
        elif isinstance(other, (int, Fraction)):
            b = CyclotomicNumber.rational(other)
        else:
            return None, None
        lcm = self.conductor * b.conductor // math.gcd(self.conductor, b.conductor)
        return self.lift(lcm), b.lift(lcm)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CyclotomicNumber(a.conductor, tuple(x + y for x, y in zip(a.coefficients, b.coefficients)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CyclotomicNumber(a.conductor, tuple(x - y for x, y in zip(a.coefficients, b.coefficients)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = a.conductor
        phi = len(a.coefficients)
        an = [(i, c) for i, c in enumerate(a.coefficients) if c]
        bn = [(j, c) for j, c in enumerate(b.coefficients) if c]
        acc = [_ZERO] * phi
        if an and bn:
            red = _reduction_table(n)
            for i, c in an:
                for j, d in bn:
                    cd = c * d
                    e = i + j
                    if e < phi:
                        acc[e] += cd
                    else:
                        for t, r in enumerate(red[e]):
                            if r:
                                acc[t] += cd * r
        return CyclotomicNumber(n, acc)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Exact multiplicative inverse via the extended gcd against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.conductor
        modulus = [Fraction(c) for c in cyclotomic_polynomial(n).coefficients]
        g, s = _poly_invert(list(self.coefficients), modulus)
        phi = euler_phi(n)
        coeffs = [(s[i] if i < len(s) else _ZERO) / g for i in range(phi)]
        return CyclotomicNumber(n, coeffs)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicNumber.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, k: int) -> "CyclotomicNumber":
        """Apply the field automorphism zeta_N -> zeta_N^k, gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError("automorphism exponent must be coprime to the conductor")
        red = _reduction_table(n)
        acc = [_ZERO] * euler_phi(n)
        for j, c in enumerate(self.coefficients):
            if c:
                for i, r in enumerate(red[(j * k) % n]):
                    if r:
                        acc[i] += c * r
        return CyclotomicNumber(n, acc)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, realized as zeta_N -> zeta_N^(N-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == Fraction(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coefficients == other.coefficients
        a, b = self._pair(other)
        return a.coefficients == b.coefficients

    def __hash__(self):
        r = self.as_rational()
        if r is not None:
            return hash(r)
        m = self.minimal()
        return hash((m.conductor, m.coefficients))

    # -- rendering -----------------------------------------------------------

    def to_literal(self) -> str:
        """Canonical literal in the document grammar (z means zeta_conductor)."""
        parts = []
        for e, c in enumerate(self.coefficients):
            if not c:
                continue
            mag = abs(c)
            body = str(mag) if e == 0 else f"{mag}*z^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts) if parts else "0"

    def approx(self) -> complex:
        """Floating approximation, for display only."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * z**e for e, c in enumerate(self.coefficients))


def make(conductor: int, terms) -> CyclotomicNumber:
    """Canonical representative of sum(c * zeta_conductor^e) for (c, e) terms."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    phi = euler_phi(conductor)
    red = _reduction_table(conductor)
    acc = [_ZERO] * phi
    for coeff, exp in terms:
        c = Fraction(coeff)
        if not c:
            continue
        for i, r in enumerate(red[exp % conductor]):
            if r:
                acc[i] += c * r
    return CyclotomicNumber(conductor, acc)


def zeta(conductor: int, exponent: int = 1) -> CyclotomicNumber:
    return make(conductor, [(1, exponent)])


def zero(conductor: int = 1) -> CyclotomicNumber:
    return make(conductor, [])


def one(conductor: int = 1) -> CyclotomicNumber:
    return make(conductor, [(1, 0)])


# -- polynomial helpers over Fraction coefficients ----------------------------


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_invert(a, modulus):
    # Extended Euclid for a modulo Phi_N; Phi_N is irreducible over Q so the
    # gcd of a nonzero residue is a nonzero constant g, and s*a = g mod Phi_N.
    r0, r1 = [Fraction(c) for c in modulus], _poly_trim([Fraction(c) for c in a])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if len(r0) != 1:
        raise InternalInconsistency("gcd against an irreducible modulus is not constant")
    return r0[0], s0


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        _poly_trim(a)
        if len(a) - 1 < db:
            break
        c = a[-1] / b[-1]
        shift = len(a) - 1 - db
        q[shift] += c
        for j, bj in enumerate(b):
            a[shift + j] -= c * bj
    return _poly_trim(q) or [Fraction(0)], _poly_trim(a)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def _solve_exact(mat, rhs):
    # Gaussian elimination over Q; returns the solution vector when the
    # system is consistent, else None. The columns passed here are always
    # linearly independent (they are images of a field basis), so a
    # consistent system has a unique solution.
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i] + [rhs[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    sol = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols]
    return sol


# -- literal grammar ----------------------------------------------------------


def parse_literal(text: str, conductor: int, locus: str | None = None) -> CyclotomicNumber:
    """Parse an entry of the document grammar at the given conductor.

    expression ::= term (('+'|'-') term)*
    term       ::= rational | rational '*' 'z' ['^' integer]
                 | 'z' ['^' integer]
    rational   ::= integer | integer '/' positive-integer

    A leading sign on the first term is accepted; whitespace is insignificant.
    """
    s = text
    pos = 0

    def err(msg):
        raise ParseError(f"{msg} at offset {pos} in {text!r}", locus)

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def read_int(signed=True):
        nonlocal pos
        skip_ws()
        start = pos
        if signed and pos < len(s) and s[pos] in "+-":
            pos += 1
        if pos >= len(s) or not s[pos].isdigit():
            err("expected an integer")
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        return int(s[start:pos])

    def read_exponent():
        nonlocal pos
        skip_ws()
        if pos < len(s) and s[pos] == "^":
            pos += 1
            return read_int()
        return 1

    terms = []
    skip_ws()
    if not s[pos:]:
        err("empty literal")
    first = True
    while True:
        skip_ws()
        sign = 1
        if pos < len(s) and s[pos] in "+-":
            if first and s[pos] == "+":
                err("unexpected leading '+'")
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        elif not first:
            break
        skip_ws()
        if pos < len(s) and s[pos] == "z":
            pos += 1
            terms.append((Fraction(sign), read_exponent()))
        else:
            num = read_int(signed=False)
            den = 1
            skip_ws()
            if pos < len(s) and s[pos] == "/":
                pos += 1
                den = read_int(signed=False)
                if den == 0:
                    err("zero denominator")
            coeff = Fraction(sign * num, den)
            skip_ws()
            if pos < len(s) and s[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= len(s) or s[pos] != "z":
                    err("expected 'z' after '*'")
                pos += 1
                terms.append((coeff, read_exponent()))
            else:
                terms.append((coeff, 0))
        first = False
        skip_ws()
        if pos >= len(s):
            break
        if s[pos] not in "+-":
            err(f"unexpected character {s[pos]!r}")
    return make(conductor, terms)
