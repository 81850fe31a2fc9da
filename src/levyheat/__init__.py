"""Spectral simulator and analysis toolkit for the stochastic heat equation
on the torus, driven by space-time white noise, with the generator of a Levy
process prescribed through its Fourier multiplier."""

__version__ = "0.1.0"

from .kernels import (
    ExponentCheck,
    ExponentRangeError,
    GeneratorDomainError,
    KernelCoefficients,
    LevyExponent,
    SpectralField,
    apply_generator,
    apply_semigroup,
    check_exponent_condition,
    field_from_function,
    in_generator_domain,
    kernel_coefficients,
    kernel_l2_laplace,
    kernel_l2_norm_sq,
    kernel_l2_time_integral,
    limit_constant_probe,
    make_power_exponent,
    verify_kernel_bounds,
    wrapped_gaussian_kernel,
)
from .noise import RNG_SCHEME, GridSpec, NoiseField, noise_row, sample_noise
from .solver import (
    BlowUpError,
    FieldState,
    PicardReport,
    RunConfig,
    SIGMA_REGISTRY,
    SigmaSpec,
    additive_variance_exact,
    get_sigma,
    noise_density_scale,
    picard_sequence,
    rfft_multiplier,
    solve_path,
    solve_path_values,
    walsh_variance,
    weighted_norm,
)
from .malliavin import (
    HNormReport,
    MalliavinField,
    MalliavinState,
    NegativeMomentReport,
    OracleResult,
    SmallBallReport,
    hnorm_samples,
    hnorm_sq,
    negative_moment_estimate,
    noise_gradient_oracle,
    propagate_all,
    propagate_derivative,
    smallball_lower_mass,
    smallball_probability,
)
from .mcstats import (
    DegenerateSamplesError,
    DensityEstimate,
    SampleSet,
    SmoothnessReport,
    emit,
    fit_slope,
    kde,
    load_rows,
    run_ensemble,
    silverman_bandwidth,
    smoothness_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
