"""Exact correction-term invariants of surgeries on sums of torus knots.

V-invariants come from numerical semigroup counting for positive torus
knots and from sublevel homology of staircase chain complexes over F_2[U]
for everything else; the two are compared on positive torus knots of genus
at most 12, and README lists the other checks.  On top of those sit the
d-invariants of positive surgeries, the twisted correction terms of
0-surgeries and circle bundles, and the lower-bound combinators for the
geometric winding number and the 0-shake genus.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    EssentialInput,
    TrailEntry,
    correction_rhs,
    essential_report,
    multi_sphere_bound,
    reproduce_kn,
    reproduce_whitehead,
    shake_bound,
    winding_bound_via_zero_surgery,
)
from .cache import CACHE_ENV, cache_load, cache_store
from .complexes import (
    BifilteredComplex,
    TruncatedComplex,
    complex_of,
    dualize,
    staircase,
    tensor,
    v_at,
    v_invariant,
    v_memo,
    v_route,
    v_sequence,
)
from .errors import (
    InternalCheckError,
    KnotwindError,
    TruncationInstabilityError,
    ValidationError,
)
from .knots import KnotExpression, TorusKnot, as_expression, parse_knot_expr
from .semigroup import (
    MultiplicitySequence,
    NumericalSemigroup,
    VSequence,
    diamond_reduce,
    multiplicity_sequence,
    semigroup_from_pair,
    v0_closed_form,
    v0_family_knot,
    v_sequence_torus,
)
from .surgery import (
    CorrectionTable,
    SeifertPresentation,
    SpincLabel,
    combined_invariant,
    correction_table,
    d_circle_bundle_twisted,
    d_positive_surgery,
    d_zero_twisted,
    kn_seifert,
    ncf_eval,
    ncf_expand,
)

__all__ = [name for name in dir() if not name.startswith("_")]
