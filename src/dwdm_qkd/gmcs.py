"""Gaussian-modulated coherent-state (homodyne) key rate, realistic model.

Reverse-reconciliation rate dI = gamma * I_AB - chi_BE where Eve's Holevo
information chi_BE comes from the symplectic spectrum of the channel and
conditional covariance matrices. Excess noise from multiplexed classical
channels enters through the matched-mode term; unmatched-mode noise is
reported and only added to epsilon in strict mode.
"""

import warnings
from collections import namedtuple
from collections.abc import Callable, Sequence
from math import isfinite, log2, sqrt

from .noise import DomainError, FrozenRecord, Record, frozen_params

DISCRIMINANT_RTOL = 1e-9
# gmcs_point extracts the symplectic eigenvalues without cancellation, so
# rounding leaves one that should be 1 only a few ulp below it; the clamp
# stays at the scale of DISCRIMINANT_RTOL
THETA_TOL = 1e-9
TOLERANCE_KM = 0.05  # the width at which secure_distance's bisection stops
# gmcs_point's rate is 0 where gamma * I_AB - chi_BE is at most SIGN_MARGIN
# times the magnitudes that cancel in it, the four theta terms and
# gamma * I_AB. Against a decimal oracle its rounding reached 5,710 units of
# 2**-53 of them for T in [1e-40, 0.01] and v_a in [1e-3, 1e4], 5.7 times
# below the margin, and grows as v_a or 1 / v_a outside; built-in rates lie 2e9 units from 0.
SIGN_MARGIN = 2.0**15 * 2.0**-53


class PhysicalityError(ValueError):
    """A covariance discriminant came out negative beyond tolerance."""


@frozen_params
class GmcsParams(FrozenRecord):
    """Homodyne GMCS source, detector, reconciliation and excess-noise parameters."""

    v_a: float = 10.0  # modulation variance, shot-noise units
    eta_bob: float = 0.6
    eps0: float = 0.01  # intrinsic excess noise, input-referred
    v_el: float = 0.01  # electronic noise of the homodyne detector
    gamma: float = 0.9  # reconciliation efficiency
    n_lo: float = 1e8  # LO photons per pulse
    detector_bandwidth_hz: float = 1e6
    sigma_meas: float = 0.024  # excess-noise measurement uncertainty
    conservative: bool = False  # add sigma_meas to the excess-noise estimate

    def __post_init__(self):
        if self.v_a <= 0:
            raise DomainError("v_a must be positive")
        if not 0 < self.eta_bob <= 1:
            raise DomainError("eta_bob must be in (0, 1]")
        for name, value in (("eps0", self.eps0), ("v_el", self.v_el), ("sigma_meas", self.sigma_meas)):
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")
        if not 0 < self.gamma <= 1:
            raise DomainError("gamma must be in (0, 1]")
        for name, value in (("n_lo", self.n_lo), ("detector_bandwidth_hz", self.detector_bandwidth_hz)):
            if value <= 0:
                raise DomainError(f"{name} must be positive, got {value}")


class GmcsPoint(Record, namedtuple("GmcsPoint", "eps i_ab chi_be rate sigma")):
    """eps is the total input-referred excess noise and sigma the four
    symplectic eigenvalues."""

    __slots__ = ()


def theta(x: float) -> float:
    """Bosonic entropy function (x+1)log2(x+1) - x log2 x, Theta(0) = 0.
    gmcs_point writes this function out for each of its four arguments."""
    if x < -THETA_TOL:
        raise DomainError(f"theta argument {x} must be >= 0")
    if x <= 0:
        return 0.0
    return (x + 1.0) * log2(x + 1.0) - x * log2(x)


def total_excess_noise(
    eps0: float,
    eps_in: float,
    eta_ch: float,
    eta_dmu: float,
    eta_bob: float,
    sigma_meas: float = 0.0,
    conservative: bool = False,
) -> float:
    """Input-referred excess noise: intrinsic plus multiplexing, optionally
    padded by the homodyne measurement uncertainty (conservative estimate)."""
    eta = eta_ch * eta_dmu * eta_bob
    if eta <= 0:
        raise DomainError("total transmittance must be positive")
    eps = eps0 + eps_in / eta
    if conservative:
        eps += sigma_meas / eta
    return eps


def _out_of_range(eta_ch: float, eps: float) -> DomainError:
    return DomainError(
        f"eta_ch = {eta_ch} with excess noise {eps} takes the covariance "
        "matrix out of floating-point range"
    )


def gmcs_point(eta_ch: float, params: GmcsParams, eps: float, eta_dmu: float) -> GmcsPoint:
    """Secure key rate per signal at one channel transmittance, behind a
    DEMUX of transmittance eta_dmu (ComponentParams.eta_dmu)."""
    if not 0 < eta_ch <= 1:
        raise DomainError("eta_ch must be in (0, 1]")
    if eps < 0:
        raise DomainError("excess noise must be >= 0")
    if not 0 < eta_dmu <= 1:
        raise DomainError(f"eta_dmu must be in (0, 1], got {eta_dmu}")

    v_a = params.v_a
    v = v_a + 1.0
    eta_prime = eta_dmu * params.eta_bob
    chi_line = 1.0 / eta_ch - 1.0 + eps
    chi_hom = (1.0 + params.v_el) / eta_prime - 1.0
    chi_tot = chi_line + chi_hom / eta_ch

    i_ab = 0.5 * log2((v + chi_tot) / (1.0 + chi_tot))

    denom = eta_ch * (v + chi_tot)
    if not isfinite(denom):
        raise _out_of_range(eta_ch, eps)
    # Closed forms in 1 - T and T*eps, from T*chi_line = 1 - T + T*eps. Near a
    # pure state (T -> 1, eps -> 0) both eigenvalue pairs tend to (1, 1), and
    # the textbook forms of a, of the gaps and of sqrt(b) cancel to rounding
    # there: chi_line = 1/T - 1 + eps has already lost the digits of 1 - T.
    one_minus_t = 1.0 - eta_ch
    t_eps = eta_ch * eps
    channel_gap = v_a * one_minus_t - t_eps  # +-(sigma_1 - sigma_2)
    # sqrt(b) for b = T^2 (V chi_line + 1)^2, formed without squaring: the
    # square of V chi_line + 1 overflows past ~7,300 km while sqrt(b) ~ V
    sqrt_b_minus_1 = v_a * one_minus_t + v * t_eps
    sqrt_b = 1.0 + sqrt_b_minus_1
    a = channel_gap * channel_gap + 2.0 * sqrt_b
    c = (v * sqrt_b + eta_ch * (v + chi_line) + a * chi_hom) / denom
    d = sqrt_b * (v + sqrt_b * chi_hom) / denom
    if not isfinite(a + c + d):
        raise _out_of_range(eta_ch, eps)

    # c - 2*sqrt(d) = (sqrt(d) - 1)^2 - chi_hom * impurity / denom, where
    # impurity = (sigma_1^2 - 1) * (sigma_2^2 - 1) = b + 1 - a. V^2 - 1 is
    # formed from v_a: v = v_a + 1 has already dropped the digits of a tiny
    # v_a, and v*v - 1 would then cancel to rounding
    v_sq_minus_1 = v_a * (v_a + 2.0)
    impurity = v_sq_minus_1 * t_eps * (2.0 * one_minus_t + t_eps)
    d_minus_1 = (
        v_sq_minus_1 * (one_minus_t + t_eps) + chi_hom * sqrt_b_minus_1 * (sqrt_b + 1.0)
    ) / denom
    sqrt_d = sqrt(d)
    sqrt_d_minus_1 = d_minus_1 / (sqrt_d + 1.0)
    pure_part = sqrt_d_minus_1 * sqrt_d_minus_1
    conditional_gap_sq = pure_part - chi_hom * impurity / denom
    if conditional_gap_sq < 0:
        # both terms are accurate to a few ulp, so only rounding makes this negative
        if conditional_gap_sq < -DISCRIMINANT_RTOL * pure_part:
            raise PhysicalityError(
                f"negative discriminant for conditional spectrum: {conditional_gap_sq}"
            )
        conditional_gap_sq = 0.0

    # Each pair of squared symplectic eigenvalues is the roots of
    # x^2 - total*x + product^2: (a, sqrt_b) for the channel pair and
    # (c, sqrt_d) for the conditional one. The discriminant is
    # gap_sq * (total + 2*product), with gap_sq = total - 2*product the square
    # of the eigenvalues' difference. Formed as total^2 - 4*product^2 it
    # cancels to rounding near a degenerate pair, and its square root turns
    # that rounding into an error of about sqrt(ulp), 1e-8, in the
    # eigenvalues. The smaller root is product^2 over the larger, since total
    # minus the root cancels when the pair is far apart.
    s1sq = 0.5 * (a + sqrt(channel_gap * channel_gap * (a + 2.0 * sqrt_b)))
    s2sq = sqrt_b / s1sq * sqrt_b
    s3sq = 0.5 * (c + sqrt(conditional_gap_sq * (c + 2.0 * sqrt_d)))
    s4sq = sqrt_d / s3sq * sqrt_d
    sigma_1 = sqrt(s1sq)
    sigma_2 = sqrt(s2sq)
    sigma_3 = sqrt(s3sq)
    sigma_4 = sqrt(s4sq)

    # chi_BE = theta(x1) + theta(x2) - theta(x3) - theta(x4) at
    # x_i = (sigma_i - 1) / 2, each theta written out; an argument in
    # [-THETA_TOL, 0], an eigenvalue that rounded to or below 1, gives 0
    x1 = (sigma_1 - 1.0) / 2.0
    x2 = (sigma_2 - 1.0) / 2.0
    x3 = (sigma_3 - 1.0) / 2.0
    x4 = (sigma_4 - 1.0) / 2.0
    if x1 < -THETA_TOL or x2 < -THETA_TOL or x3 < -THETA_TOL or x4 < -THETA_TOL:
        bad = next(x for x in (x1, x2, x3, x4) if x < -THETA_TOL)
        raise DomainError(f"theta argument {bad} must be >= 0")
    theta_1 = 0.0 if x1 <= 0 else (x1 + 1.0) * log2(x1 + 1.0) - x1 * log2(x1)
    theta_2 = 0.0 if x2 <= 0 else (x2 + 1.0) * log2(x2 + 1.0) - x2 * log2(x2)
    theta_3 = 0.0 if x3 <= 0 else (x3 + 1.0) * log2(x3 + 1.0) - x3 * log2(x3)
    theta_4 = 0.0 if x4 <= 0 else (x4 + 1.0) * log2(x4 + 1.0) - x4 * log2(x4)
    chi_be = theta_1 + theta_2 - theta_3 - theta_4
    if not isfinite(i_ab + chi_be):
        raise _out_of_range(eta_ch, eps)
    gamma_i_ab = params.gamma * i_ab
    rate = gamma_i_ab - chi_be
    # a rate within SIGN_MARGIN of what cancels in it has no certain sign. A
    # chi_be that cancelled below 0 is clamped at 0, where the rate is
    # gamma * i_ab: no state allows more. max(0.0, v) is written v if v > 0.0
    # else 0.0, which agrees with it on every finite v
    if rate <= 0.0 or rate <= SIGN_MARGIN * (theta_1 + theta_2 + theta_3 + theta_4 + gamma_i_ab):
        rate = 0.0
    elif chi_be < 0.0:
        rate = gamma_i_ab
    chi_be = chi_be if chi_be > 0.0 else 0.0
    # tuple.__new__ builds the record that the namedtuple's Python __new__ would
    return tuple.__new__(GmcsPoint, (eps, i_ab, chi_be, rate, (sigma_1, sigma_2, sigma_3, sigma_4)))


def secure_distance(z_grid: Sequence[float], rates: Sequence[float], rate_fn: Callable[[float], float]) -> float:
    """Largest distance with strictly positive rate, from the signs of a
    sweep's rates at its z_grid rows, then rate_fn once per bisection step
    between the last positive row and the next, to TOLERANCE_KM. The grid
    sets the resolution: key between two rows is not seen. Returns 0 when no
    rate is positive, and z_grid[-1] (with a warning) when the last one is;
    when the rates cross zero more than once it warns and keeps the largest
    root."""
    if not z_grid or len(rates) != len(z_grid):
        raise DomainError(f"z_grid ({len(z_grid)}) and rates ({len(rates)}) must be nonempty and of one length")
    signs = [rate > 0 for rate in rates]
    if not any(signs):
        return 0.0
    if signs[-1]:
        warnings.warn(f"rate still positive at z_max = {z_grid[-1]} km")
        return z_grid[-1]
    if sum(a != b for a, b in zip(signs, signs[1:])) > 1:
        warnings.warn("key rate crosses zero more than once; using largest root")
    last = max(i for i, positive in enumerate(signs) if positive)
    lo, hi = z_grid[last], z_grid[last + 1]
    while hi - lo > TOLERANCE_KM:
        mid = 0.5 * (lo + hi)
        if rate_fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
