"""Numerics for truncated Hankel/commutator operators on the circle.

Fourier symbols and lacunary generators, Littlewood-Paley norm estimators,
truncated operator matrices, singular value asymptotics, log-averaged
diagonal (residue) sequences with a measurability classifier, closed-form
trace sequences with kernel quadrature cross-checks, and Clifford trace sums
on twisted tori.
"""

from .errors import (
    BasisMismatchError,
    ParameterError,
    ResourceLimitError,
    SpectralError,
)
from .fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    circle_grid,
    constant_symbol,
    hardy_split,
    mode_symbol,
    sample_to_symbol,
    symbol_eval,
    symbol_from_json_obj,
    weierstrass_symbol,
)
from .littlewood_paley import INF, besov_norm, hat_weights, holder_norm_star
from .operators import (
    BasisIndexMap,
    OrderingRule,
    TruncatedOperator,
    commutator_matrix,
    compress,
    full_basis,
    hankel_matrix,
    hardy_basis,
    hardy_compress,
    operator_product,
    operator_to_json_obj,
    szego_projection,
)
from .spectral import (
    SingularSpectrum,
    decay_slope,
    lacunary_hankel_spectrum,
    singular_values,
    weak_quasinorm,
)
from .dixmier import (
    ClassifyPolicy,
    MeasurabilityVerdict,
    ResidueSequence,
    VerdictKind,
    cesaro_mean,
    classify_limit,
    log_extrapolate,
    residue_sequence,
)
from .closed_forms import (
    KernelParams,
    TraceSequence,
    WindingReport,
    fourier_side_trace,
    integral_trace,
    invert_symbol,
    sphere_kernel,
    sphere_kernel_derivative,
    symmetric_fourier_trace,
    weierstrass_trace,
    winding_report,
    winding_trace,
)
from .nc_torus import (
    AntisymmetricForm,
    CliffordRep,
    LatticeSymbol,
    ModeTuple,
    clifford_rep,
    dirac_phase,
    graded_trace_2d,
    phase_product_matrix,
    torus_trace_partial,
    twist_phase,
)

__version__ = "0.1.0"
