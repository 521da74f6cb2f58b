"""Schmidt-mode analysis of time-frequency filters.

Model a spectral window and a temporal gate (applied in either order) as a
linear integral operator on pulse waveforms, compute its singular value
decomposition, and turn the spectrum into the quantities experiments care
about: target-mode efficiency, mode discriminativity, filtered-noise
statistics, and entanglement-based key rates.
"""

__version__ = "0.1.0"

# submodule -> its public names: the one list of them, which each submodule
# reads as its ``__all__`` (this module imports no submodule, so the table is
# complete before any of them loads).  A name or submodule is imported on
# first access (PEP 562), so ``import tffilter`` loads no NumPy and each
# command loads only the modules it runs.
_EXPORTS = {
    "core": (
        "Domain",
        "StageOrder",
        "SampledAxis",
        "QuadratureAxis",
        "SampledSignal",
        "StageProfile",
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
        "filter_samples",
        "build_operator",
        "ParityBlocks",
        "parity_blocks",
        "recommended_axes",
    ),
    "schmidt": (
        "GridReport",
        "SchmidtResult",
        "schmidt_decompose",
        "decompose_filter",
        "project_onto_input_mode",
    ),
    "gaussian": (
        "GaussianProfile",
        "GaussianSif",
        "gaussian_sif",
        "mehler_u",
        "gaussian_singular_values",
        "hermite_gaussian_mode_set",
        "gaussian_tradeoff",
    ),
    "slepian": (
        "RectangularProfile",
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
        "ground_range",
        "ground_parameter",
    ),
    "metrics": (
        "Ladder",
        "figures_from_singulars",
        "bt_from_profiles",
        "analytic_snr",
        "QPG_REFERENCE_POINTS",
    ),
    "noisesim": (
        "RNG_ALGORITHM",
        "NoiseEnsembleConfig",
        "EnergyReport",
        "trial_generator",
        "sample_white_noise",
        "run_ensemble",
        "snr_setup",
        "CorrelationSurface",
        "filtered_noise_correlation",
    ),
    "qkd": (
        "QBER_THRESHOLD",
        "ETA_GRID",
        "binary_entropy",
        "qber",
        "normalized_key_rate",
        "FilterCharacteristic",
        "OptimizationResult",
        "optimize_over_efficiency",
        "QkdScenario",
    ),
}
_SUBMODULES = ("cli", *_EXPORTS)
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines the public ``name``, once."""
    owner = _OWNER.get(name)
    if owner is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{owner or name}")
    value = module if owner is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
