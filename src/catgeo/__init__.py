"""catgeo: finite categories as discrete geometric spaces.

Builds finite categories from presentations (explicit tables, order
closures, free path categories), treats their non-identity arrows as a
vector space with partial noncommutative addition, computes minimal
factorization norms, and evaluates inner, outer, and geometric products
together with the Clifford-style law checks.  A separate backend covers
the order category of the rationals with exact interval norms.
"""

from .category import (
    Arrow,
    FiniteCategory,
    Violation,
    build_explicit,
    build_free,
    build_thin,
    compose,
    validate_axioms,
)
from .documents import (
    CategoryDocument,
    builtin_category,
    builtin_document,
    builtin_names,
    load_category,
    parse_document,
)
from .errors import (
    AxiomViolation,
    CatGeoError,
    CompositeIsIdentity,
    CyclicGraph,
    NoDifference,
    NontrivialCycle,
    NotComposable,
    NotGenerated,
    ParseError,
    UndefinedSum,
    UnknownArrow,
)
from .geometry import (
    Blade2,
    CliffordReport,
    Multivector,
    anticommutator,
    anticommutator_table,
    blade_area,
    clifford_report,
    format_terms,
    geometric,
    inner,
    is_orthogonal,
    is_parallel,
    outer,
)
from .realline import (
    IntervalArrow,
    interval,
    interval_add,
    interval_geometric,
    interval_inner,
    interval_norm,
    interval_outer,
    interval_products,
    parse_endpoint,
    split,
)
from .render import Embedding, export_dot, export_embedding
from .vectors import (
    ZERO,
    Basis,
    NormTable,
    Vector,
    atomic_basis,
    compute_norms,
    distance,
    is_zero,
    vec_add,
)

__version__ = "0.1.0"
