"""Sampling from unnormalized densities by integrating a Schrodinger-Follmer
diffusion with temperatures over the unit time interval, with exact and Monte
Carlo drifts, Langevin baselines, and convergence diagnostics."""

from .drift import (
    GmmExactDrift,
    NoisePool,
    QuadratureDrift,
    SteinMcDrift,
    make_drift,
    make_noise_pool,
)
from .errors import (
    ConfigError,
    DivergenceError,
    GradientUnavailable,
    NumericalError,
    ZeroMassError,
)
from .metrics import (
    ConvergenceReport,
    ModeReport,
    fit_loglog_slope,
    gaussian_w2_analytic,
    mode_weights,
    moment_stats,
    sliced_w2,
    strong_error_curve,
    w2_1d,
    w2_exact_smalln,
)
from .numerics import SpdMatrix, gauss_hermite, gauss_hermite_normal, log_sum_exp
from .rng import BrownianLadder, RngStream, aggregate, brownian_ladder_make
from .samplers import (
    LangevinConfig,
    SampleBatch,
    SfsConfig,
    baoab_run,
    run_ensemble,
    sfs_run,
    ula_run,
    uld_euler_run,
)
from .targets import (
    GaussianMixture,
    TargetSpec,
    grad_potential,
    log_g_and_grad,
    log_g_beta,
    make_builtin,
    make_custom,
    make_gaussian_mixture,
    make_two_mode_gmm,
    target_from_dict,
    target_to_dict,
)

__version__ = "0.1.0"
