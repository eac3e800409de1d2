"""Asymptotic infinite-decoy BB84 key rate with multiplexing background noise.

Noise photons reaching the gated single-photon detector raise the background
count rate, which feeds the standard gain/QBER estimates and the GLLP-style
rate R = 1/2 [Q1 - f Qmu H2(Emu) - Q1 H2(e1)], clamped at zero.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from math import exp, log2

from .noise import (
    ComponentParams,
    DomainError,
    FrozenRecord,
    LinkParams,
    NoiseBudget,
    NoiseModel,
    Record,
    frozen_params,
)

DEFAULT_MU_GRID = tuple(round(0.05 + 0.01 * i, 2) for i in range(96))  # 0.05..1.0


@frozen_params
class Bb84Params(FrozenRecord):
    """Decoy-BB84 source, detector and post-processing parameters."""

    mu: float = 0.5  # signal mean photon number
    y0_base: float = 5e-6  # intrinsic background rate per gate
    e_det: float = 0.003  # misalignment error probability
    e0: float = 0.5  # background error rate
    eta_bob: float = 0.038
    f_ec: float = 1.22  # error-correction inefficiency
    delta_t_s: float = 1e-9  # SPD gating window

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError("mu must be positive")
        if not 0 <= self.e_det <= 0.5:
            raise DomainError("e_det must be in [0, 0.5]")
        if not 0 <= self.e0 <= 1:
            raise DomainError("e0 must be in [0, 1]")
        if self.f_ec < 1:
            raise DomainError("f_ec must be >= 1")
        if not 0 < self.eta_bob <= 1:
            raise DomainError("eta_bob must be in (0, 1]")
        if self.y0_base < 0:
            raise DomainError("y0_base must be >= 0")
        if self.delta_t_s <= 0:
            raise DomainError(f"delta_t_s must be positive, got {self.delta_t_s}")


class Bb84Point(Record, namedtuple("Bb84Point", "y0 q_mu e_mu q1 e1 rate")):
    __slots__ = ()


def background_rate(y0_base: float, eta_bob: float, n_spd_window: float) -> float:
    """Total background rate per gate, capped at 1. Every comparison with a
    NaN is false, so a NaN input fails the check as a negative one does."""
    if not (y0_base >= 0 and eta_bob >= 0 and n_spd_window >= 0):
        raise DomainError("background inputs must be >= 0")
    return min(1.0, y0_base + eta_bob * n_spd_window)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a binary variable, in bits. H2(0) = H2(1) = 0."""
    if not 0 <= p <= 1:
        raise DomainError(f"probability {p} outside [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bb84_point_from_rates(eta: float, y0: float, params: Bb84Params, mu: float) -> Bb84Point:
    """Gains, QBERs and rate from the overall efficiency and background rate."""
    q_mu = y0 + 1.0 - math.exp(-eta * mu)
    q1 = (y0 + eta) * mu * math.exp(-mu)
    if q_mu <= 0 or q1 <= 0:
        return Bb84Point(y0, q_mu, 0.0, q1, 0.0, 0.0)
    e_mu = (params.e0 * y0 + params.e_det * (1.0 - math.exp(-eta * mu))) / q_mu
    e1 = (params.e0 * y0 + params.e_det * eta) * mu * math.exp(-mu) / q1

    rate = 0.5 * (
        q1
        - params.f_ec * q_mu * binary_entropy(min(e_mu, 0.5))
        - q1 * binary_entropy(min(e1, 0.5))
    )
    return Bb84Point(y0, q_mu, e_mu, q1, e1, max(0.0, rate))


# consecutive grid points per block bound
MU_BLOCK = 12


def _extremes(mus: Sequence[float]) -> tuple[float, float, float, float]:
    """(a, b, m, exp(-m)) of a run of finite mus: its least and largest mu,
    and m = clamp(1, a, b), where mu*exp(-mu) peaks over [a, b]."""
    a, b = min(mus), max(mus)
    m = min(max(1.0, a), b)
    return a, b, m, math.exp(-m)


class _MuGrid:
    """The distance-independent terms of a mu grid, formed once per grid:
    exp(-mu) of each mu, and the sets that _row_bound bounds over: the
    extremes (see _extremes) of the whole grid, then of each block of
    MU_BLOCK consecutive mus, in grid order. Every mu must be finite and > 0.

    A plain slotted class: the dataclass decorator generates its methods when
    the module is imported, which costs import time.
    """

    __slots__ = ("exp_neg", "sets")

    def __init__(self, mu_grid: Sequence[float]):
        mus = tuple(mu_grid)
        for mu in mus:
            if not (math.isfinite(mu) and mu > 0):
                raise DomainError(f"mu_grid: mu must be finite and > 0, got {mu}")
        self.exp_neg = tuple([math.exp(-mu) for mu in mus])
        self.sets = (_extremes(mus), *(_extremes(mus[i : i + MU_BLOCK]) for i in range(0, len(mus), MU_BLOCK)))


def _row_bound(
    eta: float, y0: float, params: Bb84Params, sets: Sequence[tuple[float, float, float, float]]
) -> tuple[float, float, float]:
    """(bound, q_a, e_a) of one row over a sequence of mu sets, each given by
    its extremes (a, b, m, exp(-m)) as _extremes forms them: the whole grid
    first, then its blocks in grid order. bound is <= 0 exactly when the sets
    prove that no mu of the grid has a positive rate: it is the first set's
    bound when that is <= 0, else the first later set's bound that is not
    <= 0, else the last set's. q_a and e_a are q_mu and E_mu at the first
    set's least mu, as bb84_point_from_rates computes them (e_a is 0.0 when
    q_a is not > 0). One call forms the mu-independent terms of the row once
    and bounds the sets in one loop, stopping where bound is decided.

    A set's bound is an upper bound on the unclamped rate
    0.5*(q1 - f_ec*q_mu*h(min(E_mu, 1/2)) - q1*h(min(e1, 1/2))) over every mu
    of a set of grid points with least a and largest b, padded for rounding,
    or inf when it cannot be formed. m = clamp(1, a, b), exp_m = exp(-m).

    In exact arithmetic, with x = 1 - exp(-eta*mu): q1 = (y0 + eta)*mu*exp(-mu)
    is at most its value at m, where mu*exp(-mu) peaks; q_mu = y0 + x grows
    with mu, so q_mu >= q_a; E_mu = (e0*y0 + e_det*x)/(y0 + x) is monotone in
    x (dE/dx has the sign of y0*(e_det - e0)), and h(min(E, 1/2)) is
    nondecreasing in E, so h >= min(h_a, h_b). mu*exp(-mu) cancels between
    e1's numerator and q1, so e1 = e_bar = (e0*y0 + e_det*eta)/(y0 + eta) at
    every mu, and q1*(1 - h(min(e1, 1/2))) <= q1_max*(1 - h_bar). Hence each
    mu's rate is at most 0.5*(q1_max*(1 - h_bar) - f_ec*q_a*h_min), and is 0
    when that is <= 0. Nothing else of the set is used, so the bound holds
    for the whole grid and for any block of it.

    In floats, a and b are grid points whose q, E and h use the scan's own
    expressions, so they are its values bit for bit; h(min(p, 1/2)) is
    written out as the scan writes it. With w = exp(-eta*mu) monotone in mu,
    q_mu = fl(fl(y0 + 1) - w) >= q_a exactly, and E_mu is a fixed monotone
    function of w times (1 + a few ulps). The scan's e1 is e_bar times
    (1 + a few ulps), and p*log2((1 - p)/p) < 1 on (0, 1/2), so its
    h(min(e1, 1/2)) is within a few ulps of 1 of h_bar. The pad covers the
    rest: 1e-9*(q1_max + f_ec*q_a*h_min) for the few-ulp errors of q1, E and
    the products, and for h_1's (q1 <= q1_max), and 2**-40*f_ec*q_b for the
    entropy formula's absolute error of a few ulps of 1 in h_mu
    (q_mu <= q_b). q_a <= 0 or a NaN gives inf or NaN, so the scan runs; a
    negative E or e_bar raises DomainError through binary_entropy, as in the
    scan. h_bar is formed at the first set whose q_a is > 0, after its h_a
    and h_b, so the first such set raises as a lone set would.
    """
    neg_eta = -eta
    y0_plus_1 = y0 + 1.0
    y0_plus_eta = y0 + eta
    e0_y0, e_det, f_ec = params.e0 * y0, params.e_det, params.f_ec
    pad_b = 2**-40 * f_ec
    one_minus_h_bar = q_whole = e_whole = None
    for a, b, m, exp_m in sets:
        exp_a = exp(neg_eta * a)
        q_a = y0_plus_1 - exp_a
        if not q_a > 0:
            bound, e_a = math.inf, 0.0
        else:
            exp_b = exp(neg_eta * b)
            q_b = y0_plus_1 - exp_b
            e_a = (e0_y0 + e_det * (1.0 - exp_a)) / q_a
            e_b = (e0_y0 + e_det * (1.0 - exp_b)) / q_b
            if e_a >= 0.5:
                h_a = 1.0
            elif e_a > 0:
                h_a = -e_a * log2(e_a) - (1 - e_a) * log2(1 - e_a)
            else:
                h_a = binary_entropy(e_a)
            if e_b >= 0.5:
                h_b = 1.0
            elif e_b > 0:
                h_b = -e_b * log2(e_b) - (1 - e_b) * log2(1 - e_b)
            else:
                h_b = binary_entropy(e_b)
            if one_minus_h_bar is None:
                e_bar = (e0_y0 + e_det * eta) / y0_plus_eta
                if e_bar >= 0.5:
                    h_bar = 1.0
                elif e_bar > 0:
                    h_bar = -e_bar * log2(e_bar) - (1 - e_bar) * log2(1 - e_bar)
                else:
                    h_bar = binary_entropy(e_bar)
                one_minus_h_bar = 1.0 - h_bar
            q1_max = y0_plus_eta * m * exp_m
            neg = f_ec * q_a * (h_a if h_a < h_b else h_b)
            bound = 0.5 * (q1_max * one_minus_h_bar - neg) + 1e-9 * (q1_max + neg) + pad_b * q_b
        if q_whole is None:
            q_whole, e_whole = q_a, e_a
            if bound <= 0.0:
                break
        elif not bound <= 0.0:
            break
    return bound, q_whole, e_whole


_DEFAULT_GRID = _MuGrid(DEFAULT_MU_GRID)


def bb84_point(
    link: LinkParams,
    comp: ComponentParams,
    params: Bb84Params,
    z_km: float,
    mu: float | None = None,
) -> Bb84Point:
    """Evaluate gains, QBERs and secure key rate at z_km of fiber, at mu
    (params.mu when it is None): optimize_mu over the one-point grid (mu,)
    with the budget of NoiseModel(link, comp, params.delta_t_s) at z_km."""
    if mu is not None and not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and > 0, got {mu}")
    eta_ch, budget = NoiseModel(link, comp, params.delta_t_s).at(z_km)
    return optimize_mu(eta_ch, comp, params, budget, (params.mu if mu is None else mu,))[1]


def optimize_mu(
    eta_ch: float,
    comp: ComponentParams,
    params: Bb84Params,
    budget: NoiseBudget,
    mu_grid: Sequence[float] = DEFAULT_MU_GRID,
) -> tuple[float, Bb84Point]:
    """Grid argmax (mu, point) of the key rate over mu at one distance,
    given its channel transmittance eta_ch and noise budget, as
    NoiseModel.at returns them; ties go to the smaller mu. Each mu of
    mu_grid must be finite and > 0.

    The scan computes only the rate at each mu and builds the Bb84Point for
    the winner. Its expressions are those of bb84_point_from_rates with the
    same operand order and grouping, the mu-independent ones taken out of the
    loop, and binary_entropy(min(p, 0.5)) written out: 1.0 for p >= 0.5,
    binary_entropy's own formula for 0 < p < 0.5, and binary_entropy(p)
    itself otherwise, which gives 0.0 at 0 and raises DomainError for a
    negative or NaN p. So every rate is bit-identical to that function's.

    Rates are clamped at 0, so the scan starts from (mu_grid[0], 0.0) and
    takes a mu only on a strictly larger rate: ties, and the all-zero case,
    go to the earlier mu. A mu whose head = q1 - f_ec*q_mu*h(E_mu) has
    0.5*head <= best_rate is skipped without computing e1 or its entropy.
    The skip is exact: q1*h(e1) >= 0 and rounding is monotone, so
    fl(head - q1*h(e1)) <= head, and the mu's rate is at most
    max(0, 0.5*head) <= best_rate, which cannot win.

    One _row_bound pass bounds the row over the whole grid, then over each
    block. A grid whose whole-grid bound is <= 0 has no mu of positive rate,
    and returns without a scan what the scan returns when every rate is 0.
    So does one whose block bounds are all <= 0, checked in grid order; the
    first block whose bound is not <= 0 ends the checks, and the whole grid
    is scanned. When mu_grid[0] is the grid's least mu, as on the default
    grid, that settled record takes q_mu and E_mu from the whole-grid bound,
    which computes them at that mu with bb84_point_from_rates' expressions,
    and exp(-mu) from the grid's table; any other grid calls
    bb84_point_from_rates. The default grid's terms are formed once, when
    the module is imported, and any other grid forms its own on each call.
    """
    if not mu_grid:
        raise ValueError("mu grid must be nonempty")
    grid = _DEFAULT_GRID if mu_grid is DEFAULT_MU_GRID else _MuGrid(mu_grid)
    eta = eta_ch * comp.eta_dmu * params.eta_bob
    y0 = background_rate(params.y0_base, params.eta_bob, budget.n_spd_window)
    bound, q_a, e_a = _row_bound(eta, y0, params, grid.sets)
    if bound <= 0.0:
        mu = mu_grid[0]
        if mu != grid.sets[0][0]:
            return mu, bb84_point_from_rates(eta, y0, params, mu)
        # bb84_point_from_rates at mu, whose q_mu = q_a > 0 and rate is 0;
        # tuple.__new__ builds the record that the namedtuple's Python
        # __new__ would
        exp_mu = grid.exp_neg[0]
        q1 = (y0 + eta) * mu * exp_mu
        if q1 <= 0:
            return mu, tuple.__new__(Bb84Point, (y0, q_a, 0.0, q1, 0.0, 0.0))
        e1 = (params.e0 * y0 + params.e_det * eta) * mu * exp_mu / q1
        return mu, tuple.__new__(Bb84Point, (y0, q_a, e_a, q1, e1, 0.0))
    e_det, f_ec = params.e_det, params.f_ec
    neg_eta = -eta
    y0_plus_1 = y0 + 1.0
    y0_plus_eta = y0 + eta
    e0_y0 = params.e0 * y0
    e1_numerator = e0_y0 + e_det * eta
    best_mu, best_rate = mu_grid[0], 0.0
    for mu, exp_mu in zip(mu_grid, grid.exp_neg):
        exp_eta_mu = exp(neg_eta * mu)
        q_mu = y0_plus_1 - exp_eta_mu
        q1 = y0_plus_eta * mu * exp_mu
        if q_mu <= 0 or q1 <= 0:
            continue
        e_mu = (e0_y0 + e_det * (1.0 - exp_eta_mu)) / q_mu
        if e_mu >= 0.5:
            h_mu = 1.0
        elif e_mu > 0:
            h_mu = -e_mu * log2(e_mu) - (1 - e_mu) * log2(1 - e_mu)
        else:
            h_mu = binary_entropy(e_mu)
        head = q1 - f_ec * q_mu * h_mu
        if 0.5 * head <= best_rate:
            continue
        e1 = e1_numerator * mu * exp_mu / q1
        if e1 >= 0.5:
            h_1 = 1.0
        elif e1 > 0:
            h_1 = -e1 * log2(e1) - (1 - e1) * log2(1 - e1)
        else:
            h_1 = binary_entropy(e1)
        rate = 0.5 * (head - q1 * h_1)
        if rate > best_rate:
            best_mu, best_rate = mu, rate
    return best_mu, bb84_point_from_rates(eta, y0, params, best_mu)
