"""Spectral simulator and analysis toolkit for the stochastic heat equation
on the torus, driven by space-time white noise, with the generator of a Levy
process prescribed through its Fourier multiplier."""

__version__ = "0.1.0"

from .kernels import (
    ExponentCheck,
    ExponentRangeError,
    KernelCoefficients,
    LevyExponent,
    check_exponent_condition,
    field_from_function,
    fit_slope,
    kernel_coefficients,
    kernel_l2_laplace,
    kernel_l2_norm_sq,
    kernel_l2_time_integral,
    limit_constant_probe,
    make_power_exponent,
    verify_kernel_bounds,
    wrapped_gaussian_kernel,
)
from .noise import RNG_SCHEME, GridSpec, sample_noise
from .solver import (
    BlowUpError,
    PicardReport,
    RunConfig,
    SIGMA_REGISTRY,
    SampleSet,
    SigmaSpec,
    additive_variance_exact,
    adjoint_gradient,
    get_sigma,
    noise_density_scale,
    picard_sequence,
    rfft_multiplier,
    solve_path,
)
from .malliavin import (
    NegativeMomentReport,
    OracleResult,
    certified_floor,
    hnorm_samples,
    hnorm_sq,
    negative_moment_estimate,
    noise_gradient_oracle,
    propagate_derivative,
)
from .mcstats import (
    DegenerateSamplesError,
    DensityEstimate,
    SmoothnessReport,
    emit,
    kde,
    load_rows,
    run_ensemble,
    silverman_bandwidth,
    smoothness_report,
)
