"""Divisibility and uniqueness rules for singularities of exact orbifold fillings.

Each supported boundary carries a conjunctive list of divisors D, meaning
every isotropy order must divide D; the effective bound is the gcd of the
list. Rules whose hypotheses fail yield an explicitly inapplicable set, so
silence is never mistaken for permission.
"""

from __future__ import annotations

import math

from .cyclotomic import factorize
from .errors import InputError, NotApplicable, excerpt, integer
from .groups import FiniteUnitaryGroup
from .record import Record

LENS = "lens"
BRIESKORN = "brieskorn"
SUBCRITICAL = "subcritical"
DILATION = "dilation"

# The parameters each boundary kind is written with, after its colon.
FORMS = {LENS: "k,n", BRIESKORN: "k,n", SUBCRITICAL: "n", DILATION: "n"}

# Python's default limit on the digits of an int converted to text: a
# divisor past it could be neither printed nor reported.
MAX_DIVISOR_DIGITS = 4300


class BoundaryDescriptor(Record):
    def __init__(self, variant: str, n: int, k: int | None = None):
        self.__dict__.update(variant=variant, n=n, k=k)
        if variant in (LENS, BRIESKORN):
            if k is None or k < 2:
                raise InputError("k must be at least 2")
            if n < 2:
                raise InputError("n must be at least 2")
        elif n < 1:  # subcritical or dilation: parse refuses any other kind
            raise InputError("n must be positive")

    @property
    def dimension(self) -> int:
        return 2 * self.n - 1

    def describe(self) -> str:
        if self.variant in (LENS, BRIESKORN):
            return f"{self.variant}:{self.k},{self.n}"
        return f"{self.variant}:{self.n}"

    @staticmethod
    def parse(text: str) -> "BoundaryDescriptor":
        head, _, rest = text.partition(":")
        head = head.strip().lower()
        parts = [p.strip() for p in rest.split(",") if p.strip()]
        if head not in FORMS:
            raise InputError(f"unknown boundary kind {excerpt(head)}")
        try:
            if len(parts) != len(FORMS[head].split(",")):
                raise InputError(f"expected the form {head}:{FORMS[head]}")
            *k, n = (integer(p) for p in parts)
            return BoundaryDescriptor(head, n, *k)
        except InputError as e:
            raise InputError(f"bad boundary descriptor {excerpt(text)}: {e}")


class ConstraintSet(Record):
    def __init__(self, divisors: tuple[int, ...], rules: tuple[str, ...], applicable: bool,
                 reason: str | None = None, uniqueness: dict | None = None):
        self.__dict__.update(divisors=divisors, rules=rules, applicable=applicable,
                             reason=reason, uniqueness=uniqueness)

    @property
    def effective_bound(self) -> int:
        """The gcd of the divisors: ``describe`` reads it for an applicable
        set only, and every applicable set has a divisor."""
        return math.gcd(*self.divisors)

    def describe(self) -> dict:
        out = {
            "applicable": self.applicable,
            "divisors": [
                {"divides": d, "rule": r} for d, r in zip(self.divisors, self.rules)
            ],
        }
        if self.applicable:
            out["effective_bound"] = self.effective_bound
        if self.reason:
            out["reason"] = self.reason
        if self.uniqueness:
            out["uniqueness"] = self.uniqueness
        return out


def is_squarefree(k: int) -> bool:
    """No repeated prime factor of k >= 1."""
    return all(e == 1 for e in factorize(k).values())


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _rp_uniqueness(n: int) -> dict:
    return {"count": 1, "model": f"C^{n}/(Z/2)"}


def _require_printable(b: BoundaryDescriptor, divisor: str, log10):
    """Refuse a divisor whose decimal digits, floor(log10()) + 1, exceed
    MAX_DIVISOR_DIGITS, before it is built. A k or n past a float's range
    overflows the estimate, and its divisor is past the limit as well."""
    try:
        printable = log10() < MAX_DIVISOR_DIGITS
    except OverflowError:
        printable = False
    if not printable:
        raise InputError(f"boundary {b.variant}:{excerpt(b.k)},{excerpt(b.n)}: its divisor "
                         f"{divisor} has more than {MAX_DIVISOR_DIGITS} digits")


def constraint_for_boundary(b: BoundaryDescriptor) -> ConstraintSet:
    if b.variant == SUBCRITICAL:
        return ConstraintSet((1,), ("subcritical-smooth",), True)
    if b.variant == DILATION:
        return ConstraintSet((1,), ("dilation-smooth",), True)
    if b.variant == BRIESKORN:
        if b.k >= b.n:
            return ConstraintSet(
                (), (), False, reason=f"requires k < n, got k={excerpt(b.k)}, n={excerpt(b.n)}"
            )
        _require_printable(b, f"{excerpt(b.k)}!", lambda: math.lgamma(b.k + 1) / math.log(10))
        divisors = [math.factorial(b.k)]
        rules = ["brieskorn-factorial"]
        if 2 * b.k < b.n + 1 or (2 * b.k == b.n + 1 and is_squarefree(b.k)):
            divisors.append(math.factorial(b.k - 1))
            rules.append("brieskorn-refined-factorial")
        return ConstraintSet(tuple(divisors), tuple(rules), True)
    # lens space L(k; 1, ..., 1)
    _require_printable(b, f"{excerpt(b.k)}!", lambda: math.lgamma(b.k + 1) / math.log(10))
    if b.k < b.n:
        _require_printable(b, f"{excerpt(b.k)}^{excerpt(b.n)}", lambda: b.n * math.log10(b.k))
    divisors = [math.factorial(b.k)]
    rules = ["lens-factorial"]
    if b.k < b.n:
        divisors.append(b.k**b.n)
        rules.append("lens-power")
    uniqueness = None
    if b.k == 2 and not is_power_of_two(b.n):
        uniqueness = _rp_uniqueness(b.n)
    return ConstraintSet(tuple(divisors), tuple(rules), True, uniqueness=uniqueness)


def admissible(group: FiniteUnitaryGroup, b: BoundaryDescriptor) -> tuple[bool, str]:
    """Whether the group order satisfies every divisor constraint."""
    cs = constraint_for_boundary(b)
    if not cs.applicable:
        raise NotApplicable(cs.reason)
    order = group.order
    for d, rule in zip(cs.divisors, cs.rules):
        if d % order:
            return False, f"|G| = {order} does not divide {d} ({rule})"
    return True, f"|G| = {order} divides every constraint divisor"


def rp_report(n: int) -> dict:
    """The uniqueness statement for real projective boundaries of dimension 2n-1."""
    if n < 2:
        raise InputError("n must be at least 2")
    if is_power_of_two(n):
        return {
            "n": n,
            "conclusion": None,
            "note": f"no conclusion: n = {n} is a power of two",
        }
    return {
        "n": n,
        "conclusion": (
            f"every exact orbifold filling of RP^{2 * n - 1} has exactly one "
            f"singularity C^{n}/(Z/2)"
        ),
        "uniqueness": _rp_uniqueness(n),
    }
