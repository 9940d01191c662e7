"""Cyclotomic field arithmetic: exactness, canonical form, the grammar."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from orbifill import (
    CyclotomicNumber,
    IncompatibleConductor,
    InternalInconsistency,
    ParseError,
    cyclotomic_polynomial,
    euler_phi,
    make,
    one,
    parse_literal,
    zero,
    zeta,
)
from battery import power_mod_phi
from orbifill.cyclotomic import _sparse_reduction, divisors, factorize, reduction_size


# -- exact reference: the Fraction-vector kernel ------------------------------
#
# The kernel as it was when values were tuples of Fraction coefficients. It
# is kept here only to check the integer kernel against, value by value.


class FractionCyclotomic:
    def __init__(self, conductor, coefficients):
        self.conductor = conductor
        self.coefficients = tuple(Fraction(c) for c in coefficients)
        assert len(self.coefficients) == euler_phi(conductor)

    def lift(self, conductor):
        if conductor == self.conductor:
            return self
        step = conductor // self.conductor
        acc = [Fraction(0)] * euler_phi(conductor)
        for j, c in enumerate(self.coefficients):
            if c:
                for i, r in enumerate(power_mod_phi(conductor, j * step)):
                    if r:
                        acc[i] += c * r
        return FractionCyclotomic(conductor, acc)

    def _pair(self, other):
        lcm = math.lcm(self.conductor, other.conductor)
        return self.lift(lcm), other.lift(lcm)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyclotomic(a.conductor, [x + y for x, y in zip(a.coefficients, b.coefficients)])

    def __sub__(self, other):
        a, b = self._pair(other)
        return FractionCyclotomic(a.conductor, [x - y for x, y in zip(a.coefficients, b.coefficients)])

    def __mul__(self, other):
        a, b = self._pair(other)
        n, phi = a.conductor, len(a.coefficients)
        acc = [Fraction(0)] * phi
        an = [(i, c) for i, c in enumerate(a.coefficients) if c]
        bn = [(j, c) for j, c in enumerate(b.coefficients) if c]
        for i, c in an:
            for j, d in bn:
                if i + j < phi:
                    acc[i + j] += c * d
                else:
                    for t, r in enumerate(power_mod_phi(n, i + j)):
                        if r:
                            acc[t] += c * d * r
        return FractionCyclotomic(n, acc)

    def inverse(self):
        n = self.conductor
        r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r1 = fraction_trim(list(self.coefficients))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, rem = fraction_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, fraction_sub(s0, fraction_mul(q, s1))
        assert len(r0) == 1
        return FractionCyclotomic(n, [(s0[i] if i < len(s0) else 0) / r0[0] for i in range(euler_phi(n))])

    def galois(self, k):
        n = self.conductor
        acc = [Fraction(0)] * euler_phi(n)
        for j, c in enumerate(self.coefficients):
            if c:
                for i, r in enumerate(power_mod_phi(n, (j * k) % n)):
                    if r:
                        acc[i] += c * r
        return FractionCyclotomic(n, acc)

    def conjugate(self):
        return self if self.conductor == 1 else self.galois(self.conductor - 1)

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coefficients == b.coefficients

    def to_literal(self):
        parts = []
        for e, c in enumerate(self.coefficients):
            if c:
                body = str(abs(c)) if e == 0 else f"{abs(c)}*z^{e}"
                if not parts:
                    parts.append(body if c > 0 else "-" + body)
                else:
                    parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts) if parts else "0"


def fraction_make(conductor, terms):
    acc = [Fraction(0)] * euler_phi(conductor)
    for coeff, exp in terms:
        for i, r in enumerate(power_mod_phi(conductor, exp % conductor)):
            if r:
                acc[i] += Fraction(coeff) * r
    return FractionCyclotomic(conductor, acc)


def fraction_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def fraction_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        fraction_trim(a)
        if len(a) - 1 < db:
            break
        c = a[-1] / b[-1]
        shift = len(a) - 1 - db
        q[shift] += c
        for j, bj in enumerate(b):
            a[shift + j] -= c * bj
    return fraction_trim(q) or [Fraction(0)], fraction_trim(a)


def fraction_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fraction_trim(out)


def fraction_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return fraction_trim(out)


@lru_cache(maxsize=None)
def iterated_division_phi(n):
    """Phi_n as a list, the old way: x^n - 1 divided exactly by Phi_d for
    every divisor d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        den = iterated_division_phi(d)
        dd = len(den) - 1
        quotient = [0] * (len(poly) - dd)
        for i in range(len(poly) - 1, dd - 1, -1):
            c = quotient[i - dd] = poly[i]
            for j, dj in enumerate(den):
                poly[i - dd + j] -= c * dj
        assert not any(poly)
        poly = quotient
    return poly


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_base_case(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_phi4(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_phi12(self):
        # Oracle: multiply x^12 - 1 back together from all divisors.
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", list(range(1, 61)))
    def test_product_identity(self, n):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul_int(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected

    def test_degree_is_phi(self):
        for n in range(1, 61):
            assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_against_iterated_division(self):
        for n in range(1, 401):
            assert list(cyclotomic_polynomial(n)) == iterated_division_phi(n), n

    def test_sparse_reduction_at_a_prime(self):
        # Phi_p = 1 + x + ... + x^(p-1), so x^(p-1) = -(1 + ... + x^(p-2)),
        # and the table stops there, since x^p = 1.
        p = 9973
        rows = _sparse_reduction(p)
        assert len(rows) == p
        assert dict(rows[p - 1]) == dict.fromkeys(range(p - 1), -1)
        assert dict(rows[0]) == {0: 1}

    # 2000 = 2^4 5^3 and 1024 = 2^10 have radicals 10 and 2, so their rows
    # are spread by s = 200 and 512.
    @pytest.mark.parametrize("n", [1, 2, 12, 60, 105, 210, 252, 500, 1024, 2000])
    def test_sparse_reduction_against_long_division(self, n):
        # The table has a row per exponent below rad n; x^e is row e // s
        # shifted by e % s, s = n / rad n.
        rows = _sparse_reduction(n)
        s = n // len(rows)
        assert len(rows) == math.prod(factorize(n))
        for e in range(n):
            dense = power_mod_phi(n, e)
            q, t = divmod(e, s)
            assert {i + t: c for i, c in rows[q]} == {i: c for i, c in enumerate(dense) if c}, e
        assert sum(map(len, rows)) <= reduction_size(n)


class TestFactorization:
    def test_against_brute_force(self):
        # A factorization into primes with positive exponents is unique.
        primes = {p for p in range(2, 2001) if all(p % q for q in range(2, p))}
        for n in range(1, 2001):
            factors = factorize(n)
            assert math.prod(p**e for p, e in factors.items()) == n, n
            assert set(factors) <= primes and min(factors.values(), default=1) >= 1, n
            assert list(factors) == sorted(factors)
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n

    def test_rejects_non_positive(self):
        for n in (0, -12):
            with pytest.raises(ValueError):
                factorize(n)

    def test_reduction_size_values(self):
        # phi(N) + (N - phi(N)) * phi(rad N): one-term rows below phi(N),
        # and rows of at most phi(rad N) terms above it.
        assert reduction_size(4620) == 960 + 3660 * 480 == 1757760
        assert reduction_size(6930) == 1440 + 5490 * 480 == 2636640
        assert reduction_size(20000) == 8000 + 12000 * 4 == 56000
        assert reduction_size(99991) == 2 * 99990
        assert reduction_size(15015) == 5760 + 9255 * 5760 == 53314560
        assert reduction_size(1) == 1 and reduction_size(2) == 2


class TestMake:
    def test_zeta4_squared_is_minus_one(self):
        assert make(4, [(1, 2)]) == -1

    def test_zeta2_is_minus_one(self):
        assert make(2, [(1, 1)]) == -1

    def test_cube_roots_sum_to_zero(self):
        assert make(3, [(1, 0), (1, 1), (1, 2)]) == 0

    def test_full_turn_is_one(self):
        for n in range(1, 61):
            assert make(n, [(1, n)]) == 1

    def test_all_roots_sum_to_zero(self):
        for n in range(2, 61):
            total = make(n, [(1, k) for k in range(n)])
            assert total == 0

    def test_negative_exponents_reduce(self):
        assert make(5, [(1, -1)]) == zeta(5, 4)

    def test_rejects_non_positive_conductor(self):
        for reject in (lambda: euler_phi(0), lambda: make(0, [])):
            with pytest.raises(ValueError) as info:
                reject()
            assert str(info.value) == "conductor must be positive"


class TestArithmetic:
    def test_mul_examples(self):
        assert zeta(4) * zeta(4) == -1
        assert zeta(3) * zeta(4) == zeta(12, 7)
        x = make(8, [(Fraction(1, 2), 1), (3, 5)])
        assert x * one() == x

    def test_mul_conductor_is_lcm(self):
        assert (zeta(3) * zeta(4)).conductor == 12

    def test_inverse_of_root(self):
        for n in (3, 4, 5, 8, 12):
            for k in range(1, n):
                assert zeta(n, k).inverse() == zeta(n, n - k)

    def test_inverse_of_rational(self):
        assert make(1, [(2, 0)]).inverse() == Fraction(1, 2)

    def test_inverse_of_one_plus_i(self):
        a = make(4, [(1, 0), (1, 1)])
        expected = make(4, [(Fraction(1, 2), 0), (Fraction(-1, 2), 1)])
        assert a.inverse() == expected
        assert a * a.inverse() == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            zero(4).inverse()

    def test_conjugate_examples(self):
        assert zeta(4).conjugate() == -zeta(4)
        q = make(1, [(Fraction(-7, 3), 0)])
        assert q.conjugate() == q
        x = make(12, [(1, 1), (Fraction(2, 5), 7)])
        assert x.conjugate().conjugate() == x

    def test_lift_examples(self):
        assert make(2, [(1, 1)]).lift(4) == zeta(4, 2)
        assert make(1, [(5, 0)]).lift(12) == 5

    def test_lift_requires_divisibility(self):
        with pytest.raises(IncompatibleConductor):
            zeta(4).lift(6)

    def test_lift_roundtrip(self):
        rng = random.Random(1017)
        for _ in range(200):
            n = rng.choice([d for d in range(1, 25)])
            terms = [(Fraction(rng.randint(-3, 3)), rng.randrange(2 * n)) for _ in range(3)]
            x = make(n, terms)
            lifted = x.lift(n * rng.choice((2, 3, 5)))
            assert lifted == x and x == lifted
            assert lifted.conductor != x.conductor

    def test_values_are_unhashable(self):
        # zeta_12^4 equals zeta_3, at another conductor and in another
        # normal form, so no hash of the normal form could agree with ==.
        assert zeta(12, 4) == zeta(3)
        with pytest.raises(TypeError):
            hash(make(4, [(1, 1)]))

    def test_galois_exponent_must_be_coprime(self):
        with pytest.raises(ValueError) as info:
            zeta(6).galois(2)
        assert str(info.value) == "automorphism exponent must be coprime to the conductor"

    def test_non_numbers_are_not_operands(self):
        # Arithmetic with a non-number raises TypeError; equality is False.
        z = zeta(4)
        with pytest.raises(TypeError) as info:
            z + "1"
        assert str(info.value) == "unsupported operand type(s) for +: 'CyclotomicNumber' and 'str'"
        with pytest.raises(TypeError) as info:
            z * None
        assert str(info.value) == (
            "unsupported operand type(s) for *: 'CyclotomicNumber' and 'NoneType'")
        assert (z == "z") is False and (z != "z") is True


class TestRandomizedProperties:
    """Seeded sweeps of the field axioms; everything must hold exactly."""

    CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24, 30, 36, 45, 48, 60]

    def random_value(self, rng, conductor):
        terms = [
            (Fraction(rng.randint(-4, 4), rng.randint(1, 4)), rng.randrange(conductor + 3))
            for _ in range(rng.randint(1, 4))
        ]
        return make(conductor, terms)

    def test_field_axioms(self):
        rng = random.Random(60601)
        for _ in range(500):
            n = rng.choice(self.CONDUCTORS)
            a = self.random_value(rng, n)
            b = self.random_value(rng, n)
            c = self.random_value(rng, rng.choice(self.CONDUCTORS))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + 0 == a
            assert a * 1 == a
            assert a - a == 0

    def test_inverse_roundtrip(self):
        rng = random.Random(60602)
        count = 0
        while count < 300:
            n = rng.choice(self.CONDUCTORS)
            a = self.random_value(rng, n)
            if a.is_zero():
                continue
            count += 1
            assert a * a.inverse() == 1

    def test_conjugation_is_an_involutive_automorphism(self):
        rng = random.Random(60603)
        for _ in range(300):
            n = rng.choice(self.CONDUCTORS)
            a = self.random_value(rng, n)
            b = self.random_value(rng, n)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert a.conjugate().conjugate() == a


class TestLiteralGrammar:
    def test_simple_forms(self):
        assert parse_literal("5", 4) == 5
        assert parse_literal("-3/2", 4) == Fraction(-3, 2)
        assert parse_literal("z", 4) == zeta(4)
        assert parse_literal("z^2", 4) == -1
        assert parse_literal("2*z^3", 8) == 2 * zeta(8, 3)
        assert parse_literal("1/2*z^1 - z + 1/2*z", 6) == 0

    def test_whitespace_insignificant(self):
        assert parse_literal(" 1 + 2 * z ^ 3 ", 8) == parse_literal("1+2*z^3", 8)

    def test_signs(self):
        assert parse_literal("-z", 4) == -zeta(4)
        assert parse_literal("1 - z^2", 4) == 2
        assert parse_literal("z^-1", 5) == zeta(5, 4)

    # Each rejection's message and offset, with the literal quoted whole up
    # to 60 characters. A superscript digit is a digit to str.isdigit() but
    # not to int(), and is a ParseError like the rest.
    REJECTIONS = [
        ("", "empty literal", 0),
        ("  ", "empty literal", 2),
        ("+1", "unexpected leading '+'", 0),
        ("1/0", "zero denominator", 3),
        ("1 +", "expected a term", 3),
        ("2**z", "unexpected character '*'", 1),
        ("z^", "unexpected character '^'", 1),
        ("x", "unexpected character 'x'", 0),
        ("1 2", "unexpected character '2'", 2),
        ("1..2", "unexpected character '.'", 1),
        ("\u00b2", "unexpected character '\u00b2'", 0),
        ("z" * 59 + "x", "unexpected character 'z'", 1),
    ]

    # A literal of more than 60 characters is quoted as the 60 around the
    # offset, '...' at each cut end, then its length. A 5,000-digit integer
    # exceeds int()'s 4,300-digit limit.
    MIDDLE = "z + " * 20 + "x" + " + z" * 20  # 161 characters, 'x' at offset 80
    TAIL = "1 + " * 20 + "1 +"  # 83 characters, a dangling sign at the end
    LONG_REJECTIONS = [
        ("7" * 5000, f"integer too long at offset 0 in {'7' * 60!r}... (5000 characters)"),
        (MIDDLE, f"unexpected character 'x' at offset 80 in ...{MIDDLE[50:110]!r}... (161 characters)"),
        (TAIL, f"expected a term at offset 83 in ...{TAIL[23:]!r} (83 characters)"),
    ]

    def test_rejects_garbage(self):
        for bad, message, offset in self.REJECTIONS:
            with pytest.raises(ParseError) as info:
                parse_literal(bad, 4, "entry")
            assert str(info.value) == f"entry: {message} at offset {offset} in {bad!r}"
        for bad, message in self.LONG_REJECTIONS:
            with pytest.raises(ParseError) as info:
                parse_literal(bad, 4, "entry")
            assert str(info.value) == f"entry: {message}"

    def test_roundtrip_canonical_rendering(self):
        rng = random.Random(60604)
        for _ in range(200):
            n = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
            terms = [
                (Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randrange(n + 2))
                for _ in range(3)
            ]
            x = make(n, terms)
            assert parse_literal(x.to_literal(), n) == x


class TestAgainstFractionReference:
    """The integer kernel against the Fraction-vector reference, value by value,
    on seeded random cases at conductors 1-60 and 500."""

    SMALL = list(range(1, 61))

    def random_pair(self, rng, n, terms=4):
        spec = [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randrange(2 * n))
            for _ in range(rng.randint(1, terms))
        ]
        return make(n, spec), fraction_make(n, spec)

    def cases(self, seed, small, large):
        rng = random.Random(seed)
        for k in range(small + large):
            yield rng, (rng.choice(self.SMALL) if k < small else 500)

    @staticmethod
    def same(x, ref):
        return x.conductor == ref.conductor and x.coefficients == ref.coefficients

    def test_add_sub_mul_eq(self):
        for rng, n in self.cases(70101, 400, 20):
            a, ra = self.random_pair(rng, n)
            b, rb = self.random_pair(rng, n)
            m = rng.choice(divisors(n if n == 500 else 2 * n))
            c, rc = self.random_pair(rng, m)
            for x, y, rx, ry in ((a, b, ra, rb), (a, c, ra, rc), (c, a, rc, ra)):
                assert self.same(x + y, rx + ry)
                assert self.same(x - y, rx - ry)
                assert self.same(x * y, rx * ry)
                assert (x == y) == (rx == ry)
            assert a == a.lift(2 * n) and ra == ra.lift(2 * n)
            assert (a == a + c) == (ra == ra + rc)

    def test_inverse(self):
        # The reference's Fraction Euclid takes up to a minute on one dense
        # four-term value at conductor 500, so binomials stand in there.
        for rng, n in self.cases(70102, 300, 6):
            a, ra = self.random_pair(rng, n, terms=4 if n < 500 else 2)
            if a.is_zero():
                continue
            assert self.same(a.inverse(), ra.inverse())

    def test_galois_conjugate_lift(self):
        for rng, n in self.cases(70103, 400, 20):
            a, ra = self.random_pair(rng, n)
            k = rng.choice([k for k in range(1, 2 * n + 1) if math.gcd(k, n) == 1])
            assert self.same(a.galois(k), ra.galois(k))
            assert self.same(a.conjugate(), ra.conjugate())
            target = n * rng.choice((2, 3)) if n < 500 else 1000
            assert self.same(a.lift(target), ra.lift(target))

    def test_literals(self):
        for rng, n in self.cases(70106, 400, 20):
            a, ra = self.random_pair(rng, n)
            text = ra.to_literal()
            assert a.to_literal() == text
            assert self.same(parse_literal(text, n), ra)
            assert parse_literal(a.to_literal(), n).nums == a.nums


class TestNormalForm:
    """den > 0, gcd(den, *nums) == 1, zero is (0, ..., 0)/1, and rationals
    compare equal at every conductor."""

    @staticmethod
    def assert_normal(x):
        assert x.den > 0
        assert math.gcd(x.den, *x.nums) == 1
        assert all(type(c) is int for c in x.nums) and type(x.den) is int
        if x.is_zero():
            assert x.den == 1

    def test_results_are_normal(self):
        rng = random.Random(70201)
        for _ in range(300):
            n = rng.choice(range(1, 61))
            spec = [(Fraction(rng.randint(-6, 6), rng.randint(1, 8)), rng.randrange(n))
                    for _ in range(3)]
            a = make(n, spec)
            b = make(n, spec[:2])
            for x in (a, b, a + b, a - b, a * b, a - a, a * 0, -a, a.conjugate(), a.lift(2 * n)):
                self.assert_normal(x)
            if a:
                self.assert_normal(a.inverse())

    def test_constructor_normalises(self):
        x = CyclotomicNumber(4, (2, 4), -6)
        assert (x.nums, x.den) == ((-1, -2), 3)
        z = CyclotomicNumber(5, (0, 0, 0, 0), 7)
        assert (z.nums, z.den) == ((0, 0, 0, 0), 1)
        assert x == make(4, [(Fraction(-1, 3), 0), (Fraction(-2, 3), 1)])
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber(1, (1,), 0)

    def test_zero_is_canonical(self):
        for n in (1, 2, 12, 60):
            assert zero(n).nums == (0,) * euler_phi(n) and zero(n).den == 1
            a = make(n, [(Fraction(3, 7), 1)])
            assert ((a - a).nums, (a - a).den) == (zero(n).nums, 1)

    def test_rationals_at_any_conductor(self):
        for r in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(1, 2)):
            for n in (1, 2, 3, 12):
                x = make(1, [(r, 0)]).lift(n)
                assert x == r and x == make(n, [(r, 0)])
        rational_sum = make(5, [(1, 1), (1, 2), (1, 3), (1, 4), (Fraction(1, 2), 0)])
        assert rational_sum == Fraction(-1, 2)
        assert make(3, [(4, 0)]) == 4


class TestInverseFromConjugates:
    """The inverse is the product of the other Galois conjugates over the
    norm: an empty product at conductors 1 and 2, then a prime, a prime power
    and twice a prime."""

    same = staticmethod(TestAgainstFractionReference.same)
    assert_normal = staticmethod(TestNormalForm.assert_normal)

    @staticmethod
    def spec(rng, n, terms):
        return [(Fraction(rng.choice([-9, -4, -1, 1, 2, 7]), rng.randint(1, 6)), rng.randrange(2 * n))
                for _ in range(terms)]

    def test_empty_product(self):
        rng = random.Random(70301)
        for n in (1, 2):
            for terms in (1, 2, 3):
                spec = self.spec(rng, n, terms)
                a = make(n, spec)
                if a.is_zero():
                    continue
                x = a.inverse()
                assert self.same(x, fraction_make(n, spec).inverse())
                self.assert_normal(x)
                assert a * x == 1
        assert make(2, [(3, 1), (Fraction(1, 2), 0)]).inverse() == Fraction(-2, 5)

    def test_against_reference(self):
        # The Fraction Euclid is affordable on binomials at these conductors
        # and on trinomials at the prime.
        rng = random.Random(70302)
        for n, terms in ((97, 2), (97, 3), (125, 2), (202, 2)):
            for _ in range(3):
                spec = self.spec(rng, n, terms)
                a = make(n, spec)
                if a.is_zero():
                    continue
                x = a.inverse()
                assert self.same(x, fraction_make(n, spec).inverse())
                self.assert_normal(x)

    def test_dense_values(self):
        rng = random.Random(70303)
        for n in (97, 125, 202):
            for terms in (4, 8):
                a = make(n, self.spec(rng, n, terms))
                if a.is_zero():
                    continue
                x = a.inverse()
                self.assert_normal(x)
                assert a * x == 1 and x * a == 1

    def test_norm_check(self, monkeypatch):
        # With every conjugate replaced by the value itself, the product is
        # (z + 2)^4, which is not rational.
        monkeypatch.setattr(CyclotomicNumber, "galois", lambda self, k: self)
        with pytest.raises(InternalInconsistency, match="norm"):
            (zeta(5) + 2).inverse()
