"""Shared group documents and builders for the test suite."""

import cmath
import math
from functools import lru_cache

from orbifill import FiniteUnitaryGroup, cyclotomic_polynomial, enumerate_group, parse_group
from orbifill.cyclotomic import parse_literal
from orbifill.tables import orbits


@lru_cache(maxsize=None)
def power_mod_phi(n, e):
    """x^e mod Phi_n for e >= 0 as a dense tuple of phi(n) ints, by long
    division against cyclotomic_polynomial(n): the exact reference for the
    reduction table, so it reads neither the table nor x^n = 1."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
    rem = [0] * max(e + 1, d)
    rem[e] = 1
    for top in range(e, d - 1, -1):
        c = rem[top]
        if c:
            for j, pj in terms:
                rem[top - d + j] -= c * pj
    return tuple(rem[:d])


def approx(x):
    """A cyclotomic value as a complex float, for the numerical oracles."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(c * z**e for e, c in enumerate(x.nums)) / x.den


def scalar_cyclic(k, n=2):
    """mu_k acting by the scalar zeta_k on C^n; isolated for every k."""
    gen = [[("z" if i == j else "0") for j in range(n)] for i in range(n)]
    return {"name": f"mu{k}", "dimension": n, "conductor": k, "generators": [gen]}


def a_type(k):
    """The A_(k-1) surface singularity group diag(zeta_k, zeta_k^(k-1))."""
    second = f"1*z^{k - 1}" if k > 1 else "1"
    return {
        "name": f"A{k - 1}",
        "dimension": 2,
        "conductor": k,
        "generators": [[["z", "0"], ["0", second]]],
    }


def antipodal(n):
    gen = [[("-1" if i == j else "0") for j in range(n)] for i in range(n)]
    return {"name": f"antipodal{n}", "dimension": n, "conductor": 2, "generators": [gen]}


def quaternion():
    return {
        "name": "Q8",
        "dimension": 2,
        "conductor": 4,
        "generators": [[["z", "0"], ["0", "-1*z^1"]], [["0", "1"], ["-1", "0"]]],
    }


def binary_dihedral(m):
    """Order 4m subgroup of SU(2) generated by diag(z, z^-1) and the j-twist."""
    return {
        "name": f"BD{4 * m}",
        "dimension": 2,
        "conductor": 2 * m,
        "generators": [[["z", "0"], ["0", f"1*z^{2 * m - 1}"]], [["0", "1"], ["-1", "0"]]],
    }


def binary_tetrahedral():
    """2T, order 24 in SU(2): Q8 and -(1 + i + j + k)/2, whose entries have
    denominator 2; its elements of order 3 and 6 have eigenvalues outside
    Q(zeta_4)."""
    q8 = quaternion()["generators"]
    omega = [["-1/2 - 1/2*z", "-1/2 - 1/2*z"], ["1/2 - 1/2*z", "-1/2 + 1/2*z"]]
    return {"name": "2T", "dimension": 2, "conductor": 4, "generators": q8 + [omega]}


def times_scalars(doc, k):
    """Wolf-type free action G x mu_k: the generators of doc lifted to the
    conductor lcm(N, k), plus the scalar zeta_k."""
    base = doc["conductor"]
    conductor = math.lcm(base, k)
    n = doc["dimension"]
    gens = [
        [[parse_literal(e, base).lift(conductor).to_literal() for e in row] for row in g]
        for g in doc["generators"]
    ]
    scalar = [[f"1*z^{conductor // k}" if i == j else "0" for j in range(n)] for i in range(n)]
    return {
        "name": f"{doc['name']}xmu{k}",
        "dimension": n,
        "conductor": conductor,
        "generators": gens + [scalar],
    }


def z7_semidirect_z9():
    """Z7 x| Z9 in U(3), order 63 with 15 classes and isolated: A =
    diag(z^9, z^18, z^36) has order 7, and B, the cyclic shift with corner
    z^21, has B^3 = zeta_3 I and B A B^-1 = A^2. Non-abelian, outside
    SU(3), with twisted sectors that multiply; both cup conventions are
    associative on it, yet their constants differ."""
    shift = [["0", "1", "0"], ["0", "0", "1"], ["1*z^21", "0", "0"]]
    diagonal = [["1*z^9", "0", "0"], ["0", "1*z^18", "0"], ["0", "0", "1*z^36"]]
    return {"name": "Z7xZ9", "dimension": 3, "conductor": 63, "generators": [diagonal, shift]}


def trivial(n=2):
    return {"name": "trivial", "dimension": n, "conductor": 1, "generators": []}


def build(doc, max_order=20000):
    return enumerate_group(parse_group(doc), max_order)


def table_of(group):
    """The full multiplication table, row i being x -> i*x, read from the
    rows of the group's table (a unitary group's ``table``): the tests'
    reference table for either group class."""
    rows = group.table if isinstance(group, FiniteUnitaryGroup) else group
    return tuple(tuple(rows.row(i)) for i in range(group.order))


def check_table_structure(group):
    """A FiniteGroupTable's inverses, conjugation maps x -> g^-1*x*g and
    conjugation orbits equal those read from its full multiplication table:
    inverses where a row holds 0, and the orbits {y^-1*x*y : y in G}."""
    table = table_of(group)
    n = group.order
    inv = [row.index(0) for row in table]
    assert group.inverses == inv, group.name
    generators = [col[0] for col in group.columns]
    conj = [[table[table[inv[g]][x]][g] for x in range(n)] for g in generators]
    assert group.conjugation_maps() == conj, group.name
    classes = {tuple(sorted({table[table[inv[y]][x]][y] for y in range(n)})) for x in range(n)}
    assert orbits(conj, n) == sorted(classes), group.name


def battery_48():
    """Isolated test groups of order <= 48: cyclic families, quaternion,
    binary dihedral samples."""
    docs = (
        [scalar_cyclic(k) for k in (2, 3, 4, 5, 7, 8, 12, 48)]
        + [a_type(k) for k in (2, 3, 4, 5, 6, 7, 8, 24)]
        + [antipodal(n) for n in (2, 3, 4)]
        + [quaternion()]
        + [binary_dihedral(m) for m in (2, 3, 4, 6, 12)]
    )
    return [build(d) for d in docs]


def battery_24():
    """Isolated test groups of order <= 24."""
    docs = (
        [scalar_cyclic(k) for k in range(2, 13)]
        + [a_type(k) for k in (2, 3, 4, 5, 6, 7, 8)]
        + [antipodal(n) for n in (2, 3)]
        + [quaternion()]
        + [binary_dihedral(m) for m in (2, 3, 4, 6)]
        # Q8 x mu3: full-pairs is not associative here, orbit-reps is.
        + [times_scalars(quaternion(), 3)]
    )
    return [build(d) for d in docs]
