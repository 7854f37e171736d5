"""Exact certificates for invariant effective cones on spaces of pointed
rational curves, effectivity thresholds, and binary-form orbit counting."""

from .cone import (
    Certificate,
    ConeError,
    ConeH,
    DimensionMismatch,
    Infeasible,
    LpResult,
    MinusInfinity,
    NotAttainable,
    Unbounded,
    dual_contained_in_orthant,
    kodaira_energy,
    lp_min,
    verify_lp_minimum,
)
from .counting import (
    CountSeries,
    CountingError,
    FitResult,
    InsufficientData,
    NonGenericForm,
    count_series,
    enumerate_unimodular,
    fit_exponent,
)
from .fiber import (
    AClass,
    BadIndex,
    BadName,
    FiberClass,
    NotInSpan,
    fiber_class,
    kodaira_fiber,
    pair_R,
    to_A_basis,
)
from .forms import (
    BinaryForm,
    DegreeTooSmall,
    InconsistentRatio,
    UnimodularMatrix,
    act,
    compare_disc_conventions,
    disc,
    disc_cubic_reference,
    form_from_roots,
    height,
)
from .picard import (
    CurveClass,
    DivisorClass,
    InvalidSubset,
    SubsetCurve,
    cone_certificate,
    derive_l_relation,
    derive_self_pairing,
    format_divisor,
    kodaira_full,
    pair,
    pair_L,
    pair_averaged,
    pair_subset,
    pairing_matrix,
    reduce_to_B,
    representative,
    standard_class,
)

__version__ = "0.1.0"
