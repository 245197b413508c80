"""Multivariate semisimple codes over finite chain rings.

Exact construction, CRT decomposition, enumeration, duality and minimum
distance of the ideals of R[X_1,...,X_r]/<t_1(X_1),...,t_r(X_r)> for finite
chain rings R, with brute-force oracles validating every structural claim
at desk scale.
"""

from .codes import (
    CanonicalGenerators,
    SemisimpleCode,
    code_from_exponents,
    code_from_generators,
    enumerate_codes,
)
from .decompose import (
    ClassData,
    Decomposition,
    decompose,
)
from .distance import (
    DistanceCheck,
    distance_bound,
    hensel_lift_distance_check,
    min_distance,
)
from .duality import (
    build_nontrivial_selfdual,
    dual,
    dual_cardinality,
    inverse_class_map,
    is_selfdual,
    nontrivial_selfdual_exists,
    selfdual_group_code_exists,
    trivial_selfdual,
)
from .errors import BudgetExceeded, DomainError, InternalError
from .factor import (
    CyclotomicClass,
    SplittingData,
    cyclotomic_classes,
    factor_squarefree,
    splitting_data,
)
from .hensel import LiftedFactorization, lift_factorization, lift_idempotent
from .kerdock import (
    KerdockInstance,
    base_linear_code,
    kerdock_demo,
    kerdock_instance,
    kerdock_project,
    polycyclic_embed,
    teichmuller_decompose,
)
from .oracle import (
    ModuleSpan,
    annihilator_bruteforce,
    distance_bruteforce,
    dual_bruteforce,
    ideal_census,
    ideal_span,
    module_span,
    span_of_code,
)
from .polys import Ambient, MPoly, Poly, is_squarefree, parse_univariate, poly_to_text
from .rings import (
    ExtensionRing,
    FiniteField,
    IntegerModRing,
    RingElem,
    TruncatedRing,
    frobenius_lift,
    ring_construct,
    ring_from_json,
    ring_to_json,
    ring_trace,
)

__version__ = "0.1.0"
