"""Gaussian-modulated coherent-state (homodyne) key rate, realistic model.

Reverse-reconciliation rate dI = gamma * I_AB - chi_BE where Eve's Holevo
information chi_BE comes from the symplectic spectrum of the channel and
conditional covariance matrices. Excess noise from multiplexed classical
channels enters through the matched-mode term; unmatched-mode noise is
reported and only added to epsilon in strict mode.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .noise import DomainError, FrozenRecord, check_finite_fields

DISCRIMINANT_RTOL = 1e-9
# gmcs_point extracts the symplectic eigenvalues without cancellation, so
# rounding leaves one that should be 1 only a few ulp below it; the clamp
# stays at the scale of DISCRIMINANT_RTOL
THETA_TOL = 1e-9


class PhysicalityError(ValueError):
    """A covariance discriminant came out negative beyond tolerance."""


@dataclass(frozen=True)
class GmcsParams:
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
        check_finite_fields(self)
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


class GmcsPoint(FrozenRecord):
    _fields = ("eps", "i_ab", "chi_be", "rate", "sigma")

    def __init__(
        self,
        eps: float,  # total input-referred excess noise
        i_ab: float,
        chi_be: float,
        rate: float,
        sigma: Tuple[float, float, float, float],
    ):
        d = self.__dict__
        d["eps"] = eps
        d["i_ab"] = i_ab
        d["chi_be"] = chi_be
        d["rate"] = rate
        d["sigma"] = sigma


def theta(x: float) -> float:
    """Bosonic entropy function (x+1)log2(x+1) - x log2 x, Theta(0) = 0."""
    if x < -THETA_TOL:
        raise DomainError(f"theta argument {x} must be >= 0")
    if x <= 0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


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


def _split_roots(total: float, product: float, gap_sq: float) -> Tuple[float, float]:
    """The squared symplectic eigenvalues of one pair, the roots of
    x^2 - total*x + product^2, given gap_sq = total - 2*product, the square
    of the eigenvalues' difference.

    The discriminant is gap_sq * (total + 2*product). Formed as
    total^2 - 4*product^2 it cancels to rounding near a degenerate pair, and
    its square root turns that rounding into an error of about sqrt(ulp),
    1e-8, in the eigenvalues. The smaller root is product^2 over the larger,
    since total minus the root cancels when the pair is far apart.
    """
    high = 0.5 * (total + math.sqrt(gap_sq * (total + 2.0 * product)))
    return high, product / high * product


def _out_of_range(eta_ch: float, eps: float) -> DomainError:
    return DomainError(
        f"eta_ch = {eta_ch} with excess noise {eps} takes the covariance "
        "matrix out of floating-point range"
    )


def gmcs_point(
    eta_ch: float,
    params: GmcsParams,
    eps: float,
    eta_dmu: float = 0.71,
) -> GmcsPoint:
    """Secure key rate per signal at one channel transmittance."""
    if not 0 < eta_ch <= 1:
        raise DomainError("eta_ch must be in (0, 1]")
    if eps < 0:
        raise DomainError("excess noise must be >= 0")

    v = params.v_a + 1.0
    eta_prime = eta_dmu * params.eta_bob
    chi_line = 1.0 / eta_ch - 1.0 + eps
    chi_hom = (1.0 + params.v_el) / eta_prime - 1.0
    chi_tot = chi_line + chi_hom / eta_ch

    i_ab = 0.5 * math.log2((v + chi_tot) / (1.0 + chi_tot))

    # sqrt(b) for b = T^2 (V chi_line + 1)^2, formed without squaring: the
    # square of V chi_line + 1 overflows past ~7,300 km while sqrt(b) ~ V
    sqrt_b = eta_ch * (v * chi_line + 1.0)
    denom = eta_ch * (v + chi_tot)
    if not math.isfinite(denom):
        raise _out_of_range(eta_ch, eps)
    # Closed forms in 1 - T and T*eps, from T*chi_line = 1 - T + T*eps. Near a
    # pure state (T -> 1, eps -> 0) both eigenvalue pairs tend to (1, 1), and
    # the textbook forms of a and of the gaps cancel to rounding there.
    one_minus_t = 1.0 - eta_ch
    t_eps = eta_ch * eps
    channel_gap = params.v_a * one_minus_t - t_eps  # +-(sigma_1 - sigma_2)
    a = channel_gap * channel_gap + 2.0 * sqrt_b
    c = (v * sqrt_b + eta_ch * (v + chi_line) + a * chi_hom) / denom
    d = sqrt_b * (v + sqrt_b * chi_hom) / denom
    if not math.isfinite(a + c + d):
        raise _out_of_range(eta_ch, eps)

    # c - 2*sqrt(d) = (sqrt(d) - 1)^2 - chi_hom * impurity / denom, where
    # impurity = (sigma_1^2 - 1) * (sigma_2^2 - 1) = b + 1 - a
    v_sq_minus_1 = v * v - 1.0
    impurity = v_sq_minus_1 * t_eps * (2.0 * one_minus_t + t_eps)
    sqrt_b_minus_1 = params.v_a * one_minus_t + v * t_eps
    d_minus_1 = (
        v_sq_minus_1 * (one_minus_t + t_eps) + chi_hom * sqrt_b_minus_1 * (sqrt_b + 1.0)
    ) / denom
    sqrt_d = math.sqrt(d)
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

    s1sq, s2sq = _split_roots(a, sqrt_b, channel_gap * channel_gap)
    s3sq, s4sq = _split_roots(c, sqrt_d, conditional_gap_sq)
    # a tuple display, sized once (see noise.check_finite_fields)
    sigma = (math.sqrt(s1sq), math.sqrt(s2sq), math.sqrt(s3sq), math.sqrt(s4sq))

    chi_be = (
        theta((sigma[0] - 1.0) / 2.0)
        + theta((sigma[1] - 1.0) / 2.0)
        - theta((sigma[2] - 1.0) / 2.0)
        - theta((sigma[3] - 1.0) / 2.0)
    )
    if not math.isfinite(i_ab + chi_be):
        raise _out_of_range(eta_ch, eps)
    rate = max(0.0, params.gamma * i_ab - chi_be)
    return GmcsPoint(eps, i_ab, max(0.0, chi_be), rate, sigma)


def secure_distance(
    rate_fn: Callable[[float], float],
    z_max_km: float,
    tolerance_km: float = 0.05,
    scan_step_km: float = 1.0,
) -> float:
    """Largest distance with strictly positive rate, by scan then bisection.

    rate_fn is called once at each point of a scan_step_km grid from 0 to
    z_max_km, then once per bisection step between the last positive grid
    point and the next one, until the bracket is at most tolerance_km wide.
    Returns 0 when the rate is never positive on the grid; returns z_max_km
    (with a warning) when it is still positive at z_max_km. When the rate
    crosses zero more than once on the grid it warns and keeps the largest
    root.
    """
    grid = [i * scan_step_km for i in range(int(z_max_km / scan_step_km) + 1)]
    if grid[-1] < z_max_km:
        grid.append(z_max_km)
    signs = [rate_fn(z) > 0 for z in grid]
    if not any(signs):
        return 0.0
    if signs[-1]:
        warnings.warn(f"rate still positive at z_max = {z_max_km} km")
        return z_max_km

    changes = sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])
    if changes > 1:
        warnings.warn("key rate crosses zero more than once; using largest root")

    last = max(i for i, positive in enumerate(signs) if positive)
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > tolerance_km:
        mid = 0.5 * (lo + hi)
        if rate_fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
