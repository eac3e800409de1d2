"""Noise budgets and secure-key rates for QKD over shared DWDM fiber."""

from .bb84 import Bb84Params, Bb84Point, background_rate, bb84_point, binary_entropy, optimize_mu
from .config import Config, ConfigError, default_config, parse_config, serialize_config
from .gmcs import GmcsParams, GmcsPoint, PhysicalityError, gmcs_point, secure_distance, theta, total_excess_noise
from .noise import (
    ComponentParams,
    DomainError,
    LinkParams,
    NoiseBudget,
    NoiseModel,
    UnfittableError,
    channel_transmittance,
    compute_noise_budget,
    fit_raman_coefficient,
)
from .output import emit, sweep_to_csv, sweep_to_json
from .scenarios import Evaluation, Scenario, SweepResult, builtin_scenarios, evaluate, noise_crossover_km, run_sweep, scenario_by_name

__version__ = "0.1.0"
