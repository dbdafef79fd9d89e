"""Finite-cutoff singular-trace estimators for compact-operator spectra.

The package works with non-increasing positive eigenvalue sequences and
provides, at desk scale: eccentricity classification through the
S_2n/S_n trajectory, Dixmier- and Varga-type trace estimates with
convergence diagnostics, the block-averaging and k-dilation constructions
with their eigenvalue estimates, finite-window invariant states over
structured subsets of N, and the closed-form Cesaro benchmark for the
block-constant aq family.
"""

from .eccentric import (
    DominationReport,
    EccentricityReport,
    PkWitness,
    analyze_eccentricity,
    concavity_interpolation_check,
    domination_test,
    doubling_inequality_check,
    extract_pk,
)
from .eigs import eig_sym_small
from .errors import (
    DegenerateRatioError,
    IndexRangeError,
    InvariantViolationError,
    MonotonicityError,
    NotEccentricError,
    ParameterError,
    PartitionError,
    SequenceSpecError,
    SingtraceError,
    UndeterminedSummabilityError,
)
from .example4 import (
    Example4Report,
    aq_sigma_pow2,
    aq_sigma_pow2_exact,
    cesaro_block,
    cesaro_direct,
    reference_curve,
    reference_dyadic,
    reproduce,
    reproduce_from_p,
)
from .seqcore import (
    AqParams,
    S_walk,
    SpectralSequence,
    SummabilityInfo,
    from_values,
    harmonic_number,
    load_sequence_file,
    make_family,
    mu,
    pointwise_sum,
    scale,
    sigma_and_S,
    trace_value,
)
from .states import (
    ErgodicityRecord,
    IndicatorAccessor,
    SetSpec,
    StateEstimate,
    WindowState,
    ergodicity_probe,
    eta,
    eta_inv,
    eta_pullback,
    interval_split_check,
    structured_set,
    window_equivalence_defect,
    window_mean,
)
from .traces import (
    DilationCheckReport,
    DilationDefect,
    DilationPair,
    TraceEstimate,
    additivity_defect,
    averaged_operator,
    dilation_invariance_defect,
    dixmier_estimate,
    k_dilation_with_checks,
    varga_estimate,
)

__version__ = "0.1.0"
