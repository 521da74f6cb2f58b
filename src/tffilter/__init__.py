"""Schmidt-mode analysis of time-frequency filters.

Model a spectral window and a temporal gate (applied in either order) as a
linear integral operator on pulse waveforms, compute its singular value
decomposition, and turn the spectrum into the quantities experiments care
about: target-mode efficiency, mode discriminativity, filtered-noise
statistics, and entanglement-based key rates.
"""

import os as _os


def _thread_cap() -> int | None:
    """TF_FILTER_THREADS as an integer: None if it is unset, 0 unless it is a
    positive integer written in ASCII digits."""
    cap = _os.environ.get("TF_FILTER_THREADS")
    if cap is None:
        return None
    return int(cap) if cap.isascii() and cap.isdigit() else 0


def cap_threads() -> bool:
    """Copy TF_FILTER_THREADS into unset BLAS/OpenMP pool sizes; False if it is invalid.

    The pools size themselves when numpy loads, so this runs before any numeric import.
    """
    cap = _thread_cap()
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            _os.environ.setdefault(var, str(cap))
    return cap != 0


cap_threads()

from .core import (
    ConvergenceError,
    Domain,
    DomainMismatchError,
    OperatorMatrix,
    QuadratureAxis,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    Sif,
    SpectralWindowProfile,
    StageOrder,
    TemporalGateProfile,
    TruncationError,
    TruncationWarning,
    apply_filter,
    build_operator,
    centered_axis,
    fourier_forward,
    fourier_inverse,
    frequency_axis_for,
    inner_product,
    recommended_axes,
)
from .gaussian import (
    GaussianSif,
    GaussianSpectralWindow,
    GaussianTemporalGate,
    gaussian_sif,
    gaussian_singular_values,
    gaussian_tradeoff,
    hermite_gaussian_mode_set,
    mehler_u,
)
from .metrics import FilterFigures, analytic_snr, bt_from_profiles, figures_from_singulars
from .noisesim import (
    RNG_ALGORITHM,
    CorrelationSurface,
    EnergyReport,
    NoiseEnsembleConfig,
    filtered_noise_correlation,
    run_ensemble,
    sample_white_noise,
    snr_setup,
    trial_generator,
)
from .qkd import (
    ETA_GRID,
    QBER_THRESHOLD,
    QPG_REFERENCE_POINTS,
    CharacteristicKind,
    FilterCharacteristic,
    OptimizationResult,
    QkdScenario,
    binary_entropy,
    normalized_key_rate,
    optimize_over_efficiency,
    qber,
)
from .schmidt import (
    GridReport,
    SchmidtResult,
    decompose_filter,
    project_onto_input_mode,
    reconstruct_kernel,
    schmidt_decompose,
)
from .slepian import (
    PswfSolution,
    RectangularSif,
    RectangularSpectralWindow,
    RectangularTemporalGate,
    concentration_complement,
    full_line_gram,
    ground_concentration,
    interval_gram,
    pswf_solve_legendre,
    rectangular_filter_modes,
    rectangular_sif,
    slepian_filter_modes,
    slepian_singular_values,
    slepian_tradeoff,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Domain",
    "StageOrder",
    "SampledAxis",
    "QuadratureAxis",
    "SampledSignal",
    "SpectralWindowProfile",
    "TemporalGateProfile",
    "Sif",
    "OperatorMatrix",
    "DomainMismatchError",
    "ResolutionError",
    "TruncationError",
    "TruncationWarning",
    "ConvergenceError",
    "centered_axis",
    "frequency_axis_for",
    "inner_product",
    "fourier_forward",
    "fourier_inverse",
    "apply_filter",
    "build_operator",
    "recommended_axes",
    # schmidt
    "GridReport",
    "SchmidtResult",
    "schmidt_decompose",
    "decompose_filter",
    "project_onto_input_mode",
    "reconstruct_kernel",
    # gaussian
    "GaussianSpectralWindow",
    "GaussianTemporalGate",
    "GaussianSif",
    "gaussian_sif",
    "mehler_u",
    "gaussian_singular_values",
    "hermite_gaussian_mode_set",
    "gaussian_tradeoff",
    # slepian
    "RectangularSpectralWindow",
    "RectangularTemporalGate",
    "RectangularSif",
    "rectangular_sif",
    "PswfSolution",
    "pswf_solve_legendre",
    "interval_gram",
    "full_line_gram",
    "slepian_singular_values",
    "slepian_filter_modes",
    "rectangular_filter_modes",
    "slepian_tradeoff",
    "concentration_complement",
    "ground_concentration",
    # metrics
    "FilterFigures",
    "figures_from_singulars",
    "bt_from_profiles",
    "analytic_snr",
    # noisesim
    "RNG_ALGORITHM",
    "NoiseEnsembleConfig",
    "EnergyReport",
    "trial_generator",
    "sample_white_noise",
    "run_ensemble",
    "snr_setup",
    "CorrelationSurface",
    "filtered_noise_correlation",
    # qkd
    "QBER_THRESHOLD",
    "ETA_GRID",
    "QPG_REFERENCE_POINTS",
    "binary_entropy",
    "qber",
    "normalized_key_rate",
    "CharacteristicKind",
    "FilterCharacteristic",
    "OptimizationResult",
    "optimize_over_efficiency",
    "QkdScenario",
]