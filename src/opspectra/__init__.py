"""Operator-valued spectral analysis of vector-valued stationary time series.

The library works at finite dimension with finite atomic frequency
measures, so every identity of the underlying operator calculus is a
finite sum that can be checked exactly:

* dense complex-operator algebra (:mod:`opspectra.operators`),
* atomic trace-class operator measures and their Gramian calculus
  (:mod:`opspectra.povm`),
* the autocovariance / spectral-measure correspondence with exact grid
  inversion (:mod:`opspectra.bochner`),
* Gaussian simulation of orthogonally scattered random measures and
  process synthesis (:mod:`opspectra.random_measure`),
* operator-valued filtering with composition and inversion
  (:mod:`opspectra.filtering`),
* Cramer-Karhunen-Loeve decomposition and harmonic functional PCA
  (:mod:`opspectra.decomposition`).
"""

from .bochner import (
    AutocovarianceSequence,
    autocov_from_povm,
    empirical_autocov,
    grid_frequencies,
    hermitian_nnd_check,
    positive_type_check,
    povm_from_autocov_grid,
)
from .decomposition import (
    CklSystem,
    ckl_completeness_residual,
    ckl_component,
    ckl_decompose,
    ckl_scalar_component,
    component_transfer,
    hfpca_error,
    hfpca_optimal_error,
    hfpca_projector,
    hfpca_report,
    scalar_component_transfer,
)
from .errors import (
    AbsoluteContinuityError,
    AlignmentError,
    CoverageError,
    DimensionError,
    FormatError,
    IntegrabilityError,
    NonInvertibleError,
    NotPositiveTypeError,
    OpSpectraError,
    PositivityError,
    SampleSizeError,
)
from .filtering import (
    apply_filter,
    apply_fir_time,
    compose_transfer,
    fir_to_transfer,
    invert_transfer,
    modulate_transfer,
    pushforward_povm,
)
from .operators import outer, psd_check
from .povm import (
    AtomicTracePovm,
    PovmDensity,
    gramian_inner,
    gramian_norm,
    radon_nikodym,
    scalar_integral,
    square_integrability_check,
    variation_measure,
    wrap_frequencies,
)
from .random_measure import (
    IncrementPath,
    ProcessSample,
    RandomMeasure,
    empirical_gramian,
    from_increment_path,
    sample_gaussian_measure,
    sample_real_gaussian_measure,
    spectral_integral,
    synthesize_process,
    to_increment_path,
)
from .transfer import FirFilter, TransferFunction

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityError",
    "AlignmentError",
    "AtomicTracePovm",
    "AutocovarianceSequence",
    "CklSystem",
    "CoverageError",
    "DimensionError",
    "FirFilter",
    "FormatError",
    "IncrementPath",
    "IntegrabilityError",
    "NonInvertibleError",
    "NotPositiveTypeError",
    "OpSpectraError",
    "PositivityError",
    "PovmDensity",
    "ProcessSample",
    "RandomMeasure",
    "SampleSizeError",
    "TransferFunction",
    "apply_filter",
    "apply_fir_time",
    "autocov_from_povm",
    "ckl_completeness_residual",
    "ckl_component",
    "ckl_decompose",
    "ckl_scalar_component",
    "component_transfer",
    "compose_transfer",
    "empirical_autocov",
    "empirical_gramian",
    "fir_to_transfer",
    "from_increment_path",
    "gramian_inner",
    "gramian_norm",
    "grid_frequencies",
    "hermitian_nnd_check",
    "hfpca_error",
    "hfpca_optimal_error",
    "hfpca_projector",
    "hfpca_report",
    "invert_transfer",
    "modulate_transfer",
    "outer",
    "positive_type_check",
    "povm_from_autocov_grid",
    "psd_check",
    "pushforward_povm",
    "radon_nikodym",
    "sample_gaussian_measure",
    "sample_real_gaussian_measure",
    "scalar_component_transfer",
    "scalar_integral",
    "spectral_integral",
    "square_integrability_check",
    "synthesize_process",
    "to_increment_path",
    "variation_measure",
    "wrap_frequencies",
]
