"""orbifill: exact invariants of isolated quotient singularities C^n/G.

Cyclotomic arithmetic, finite unitary group enumeration, twisted sectors and
the Chen-Ruan ring, Reeb orbit families with Conley-Zehnder indices, the
pullback-pushforward span calculus, Floer generator ledgers, and divisibility
constraints on exact orbifold fillings.
"""

__version__ = "0.1.0"

from .chen_ruan import (
    CRRing,
    CupConvention,
    FillingCRProfile,
    associativity_sweep,
    build_ring,
    choose_ring,
    commutativity_check,
    cr_of_filling,
    cr_pairing_check,
    twisted_sectors,
)
from .coefficients import CoefficientRing
from .constraints import (
    BoundaryDescriptor,
    ConstraintSet,
    admissible,
    constraint_for_boundary,
    is_squarefree,
    rp_report,
)
from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    make,
    one,
    parse_literal,
    zero,
    zeta,
)
from .errors import (
    GroupTooLarge,
    IncompatibleConductor,
    InputError,
    InternalInconsistency,
    InvariantViolation,
    MiddleMismatch,
    NonIsolated,
    NotApplicable,
    NotUnitary,
    ParseError,
    SlopeOnSpectrum,
)
from .groups import (
    ConjugacyClass,
    EigenData,
    FiniteUnitaryGroup,
    GroupDocument,
    age,
    canonical_document,
    document_digest,
    enumerate_group,
    parse_group,
)
from .ledger import (
    DifferentialEntry,
    FloerGenerator,
    GeneratorLedger,
    build_ledger,
    check_ledger,
    known_differentials,
    sh_vanishing,
)
from .reeb import (
    MorseCell,
    OrbitFamily,
    cz_family,
    cz_generator,
    families_below,
    loop_components,
    mclean_discrepancy,
    orbit_family,
)
from .spans import (
    Homomorphism,
    PointOrbifoldSpan,
    composition_check,
    cyclic,
    dihedral,
    direct_product,
    pushpull,
    quaternion8,
    random_composition_battery,
    span,
)
from .tables import FiniteGroupTable
