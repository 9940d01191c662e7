"""Shared test groups, references, the in-process CLI runner, and the
seams through which tests reach the group core's reduction.

Every monomial test group is a ``GroupSpec`` built by ``bench/corpus.py``,
which defines each monomial family once, with its closed-form order and
class count, and an independent monomial model that shares no code with
orbifill. ``corpus`` below is that module, loaded once. A new monomial
family goes into ``bench/corpus.py``, together with a benchmark change.
Only the non-monomial 2T, whose entries have denominator 2, is written
here, until the binary polyhedral groups get an exact model of their own.
"""

import cmath
import contextlib
import importlib.util
import io
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from orbifill import groups
from orbifill.cli import main
from orbifill.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, euler_phi, make
from orbifill.groups import FiniteUnitaryGroup, GroupDocument, enumerate_group, parse_group
from orbifill.tables import FiniteGroupTable, orbits


def _load_corpus():
    """bench/corpus.py, loaded by path: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus()


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


def lift(x, conductor):
    """x at a multiple of its conductor: zeta_N^e is zeta_M^(e M/N)."""
    step = conductor // x.conductor
    return make(conductor, [(Fraction(c, x.den), e * step) for e, c in x.terms])


def dense(x):
    """x's phi(N) power-basis coefficients as Fractions."""
    return tuple(Fraction(dict(x.terms).get(e, 0), x.den) for e in range(euler_phi(x.conductor)))


def approx(x):
    """A cyclotomic value as a complex float, for the numerical oracles."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(c * z**e for e, c in x.terms) / x.den


def binary_tetrahedral(k=1, conductor=4):
    """2T x mu_k in U(2), written at the conductor lcm(conductor, k). 2T,
    of order 24 in SU(2), is generated by Q8 and -(1 + i + j + ij)/2 with
    i = zeta_4, whose entries have denominator 2; its elements of order 3
    and 6 have eigenvalues outside Q(zeta_4). For k > 1 the scalar zeta_k
    is added, a Wolf-type free action when k is prime to 6."""
    n = math.lcm(conductor, k)
    i = f"z^{n // 4}"
    generators = [
        [[i, "0"], ["0", f"-{i}"]],
        [["0", "1"], ["-1", "0"]],
        [[f"-1/2 - 1/2*{i}", f"-1/2 - 1/2*{i}"], [f"1/2 - 1/2*{i}", f"-1/2 + 1/2*{i}"]],
    ]
    if k > 1:
        generators.append([[f"z^{n // k}", "0"], ["0", f"z^{n // k}"]])
    return {"name": "2T" if k == 1 else f"2Txmu{k}", "dimension": 2, "conductor": n,
            "generators": generators}


# Z7 x| Z9 in U(3), order 63 with 15 classes and isolated: A = diag(z^9,
# z^18, z^36) has order 7, and B, the cyclic shift with corner z^21, has
# B^3 = zeta_3 I and B A B^-1 = A^2. Non-abelian, outside SU(3), with
# twisted sectors that multiply; both cup conventions are associative on
# it, yet their constants differ.
Z7_SEMIDIRECT_Z9 = corpus.GroupSpec(
    "Z7xZ9", 3, 63,
    (((0, 1, 2), ((1, 9), (1, 18), (1, 36))), ((1, 2, 0), ((1, 0), (1, 0), (1, 21)))),
    63, 15)


def trivial(n=2):
    return corpus.GroupSpec("trivial", n, 1, (), 1, 1)


# Wolf-type free actions G x mu_k in U(2) (J. A. Wolf, Spaces of Constant
# Curvature, ch. 5-7), whose twisted sectors multiply.
Q8_MU3 = corpus.times_scalars(corpus.quaternion(), 3)
Q8_MU5 = corpus.times_scalars(corpus.quaternion(), 5)
BD12_MU5 = corpus.times_scalars(corpus.binary_dihedral(3), 5)


def document(group):
    """The document of a corpus GroupSpec; a document is returned as it is."""
    return group.document() if isinstance(group, corpus.GroupSpec) else group


def parsed(group):
    """The GroupDocument that parse_group reads from the group's JSON text."""
    return parse_group(json.dumps(document(group)))


def build(group, max_order=20000):
    return enumerate_group(parsed(group), max_order)


def class_of(group, x):
    """The conjugacy class of element x, which carries x's spectrum and age."""
    return group.classes[group.class_position(x)]


def run_cli(argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in process; the
    code is 0 when it returns."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    return code, out.getvalue(), err.getvalue()


# The group core's reduction, reached only through the seams below, so that
# its reduced layout is written in groups.py alone. test_groups.py fails if
# another test module names one of these.
REDUCTION_NAMES = ("_Reduction", "_eigen_reduction", "_split_prime",
                   "_CERTIFICATE_PRIME_FLOOR", "_identity_mod", "_denominator")


def eigen_prime(group):
    """The eigen prime p: a group's eigen data are read from its elements mod p."""
    return groups._eigen_reduction(group)[0].modulus


def eigen_root(group, o):
    """w_o, the primitive o-th root of unity mod the eigen prime as which the
    eigen data label zeta_o, for o dividing lcm(N, |G|)."""
    red, lcm, root = groups._eigen_reduction(group)
    return pow(root, lcm // o, red.modulus)


def reduced_elements(group, targets):
    """(i, element i mod the eigen prime) for each target i, in ascending i,
    built along the table's tree from the reduced generators."""
    identity = groups._identity_mod(group.dimension)
    return group.table.elements(targets, identity, groups._eigen_reduction(group)[0].times)


def corrupt_generator(monkeypatch, wrong, at="eigen", generator=0):
    """Reduce one generator wrongly, at the eigen prime (``at="eigen"``) or
    at the certificate modulus (``at="certificate"``), and return the list
    of moduli at which it was, in order. ``wrong`` is the int matrix, as
    rows, that the generator reduces to there, or a function of its right
    reduction and the modulus that gives it. The wrong columns are those of
    a one-generator document reduced by the group core itself."""
    assert at in ("eigen", "certificate"), at
    reduction, corrupted = groups._Reduction, []

    def corrupt(red, dimension):
        m = red.modulus
        matrix = wrong(red.times(groups._identity_mod(dimension), generator), m) \
            if callable(wrong) else wrong
        exact = tuple(tuple(CyclotomicNumber(1, ((0, x),)) for x in row) for row in matrix)
        columns = list(red.columns)
        columns[generator] = reduction(GroupDocument("", dimension, 1, (exact,)), m, 1).columns[0]
        red.columns = tuple(columns)
        corrupted.append(m)

    if at == "eigen":
        eigen_reduction = groups._eigen_reduction

        def corrupted_eigen(group):
            red, lcm, root = eigen_reduction(group)
            corrupt(red, group.dimension)
            return red, lcm, root

        monkeypatch.setattr(groups, "_eigen_reduction", corrupted_eigen)
    else:
        class Corrupted(reduction):
            __slots__ = ()

            def __init__(self, document, m, root):
                super().__init__(document, m, root)
                if m > groups._CERTIFICATE_PRIME_FLOOR:
                    corrupt(self, document.dimension)

        monkeypatch.setattr(groups, "_Reduction", Corrupted)
    return corrupted


def record_prime_searches(monkeypatch):
    """The list of (prime, root) pairs that the group core's prime search
    returns, filled in call order."""
    found, split = [], groups._split_prime
    monkeypatch.setattr(groups, "_split_prime", lambda *a: found.append(split(*a)) or found[-1])
    return found


def record_reduced_products(monkeypatch):
    """Two lists, filled as the group core runs: one entry per product of a
    reduced element by a reduced generator, and the targets of each walk
    whose step is such a product, the elements built mod a prime."""
    products, read = [], []
    times, elements = groups._Reduction.times, FiniteGroupTable.elements

    def recording(table, targets, identity, step):
        targets = list(targets)
        if isinstance(getattr(step, "__self__", None), groups._Reduction):
            read.extend(targets)
        return elements(table, targets, identity, step)

    monkeypatch.setattr(groups._Reduction, "times", lambda *a: products.append(1) or times(*a))
    monkeypatch.setattr(FiniteGroupTable, "elements", recording)
    return products, read


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


# Isolated test groups of order <= 24; on Q8 x mu3 full-pairs is not
# associative, orbit-reps is.
BATTERY_24 = corpus.small_groups() + [Q8_MU3]
# Isolated test groups of order <= 48: cyclic families, quaternion, binary
# dihedral samples.
BATTERY_48 = (
    [corpus.scalar_cyclic(k) for k in (2, 3, 4, 5, 7, 8, 12, 48)]
    + [corpus.a_type(k) for k in (2, 3, 4, 5, 6, 7, 8, 24)]
    + [corpus.antipodal(n) for n in (2, 3, 4)]
    + [corpus.quaternion()]
    + [corpus.binary_dihedral(m) for m in (2, 3, 4, 6, 12)]
)


def battery_24():
    return [build(s) for s in BATTERY_24]


def battery_48():
    return [build(s) for s in BATTERY_48]
