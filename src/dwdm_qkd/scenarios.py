"""Declarative sweep scenarios: distance grids, gain scheduling, derived metrics.

The built-in scenarios cover the single-channel noise sweep, the multiplexed
decoy-BB84 case and the five homodyne-detection conditions (no classical
channel, one non-adjacent, one adjacent, 38 channels, and the 100 MHz
detector with the conservative excess-noise estimate).
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .bb84 import DEFAULT_MU_GRID, Bb84Params, optimize_mu
from .gmcs import GmcsParams, gmcs_point, secure_distance, total_excess_noise
from .noise import ComponentParams, DomainError, LinkParams, NoiseModel, Record

ADJACENT_ISOLATION = 1e-4  # -40 dB

# reference window of the homodyne budget: the SPD window against which the
# unmatched-mode noise is scaled, the single-photon budget's convention
HOMODYNE_REFERENCE_WINDOW_S = 1e-9


def _check_z_grid(zs: tuple[float, ...]) -> None:
    if not zs or not all(math.isfinite(z) and z >= 0 for z in zs) or any(b <= a for a, b in zip(zs, zs[1:])):
        raise DomainError("z_grid must be nonempty, finite, nonnegative and strictly increasing")


# 0..80 km step 0.5, built and checked once and shared by every Scenario
# that keeps the default
DEFAULT_Z_GRID: tuple[float, ...] = tuple(0.5 * i for i in range(161))
_check_z_grid(DEFAULT_Z_GRID)


class Scenario(Record, namedtuple("Scenario", "name link comp detector z_grid", defaults=(DEFAULT_Z_GRID,))):
    """A named sweep: a link, its components and a detector on a distance
    grid. The detector's class names the protocol."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        link: LinkParams,
        comp: ComponentParams,
        detector: Bb84Params | GmcsParams,
        z_grid: tuple[float, ...] = DEFAULT_Z_GRID,
    ):
        if not isinstance(detector, (Bb84Params, GmcsParams)):
            raise DomainError(f"a scenario needs a Bb84Params or GmcsParams detector, got {type(detector).__name__}")
        if z_grid is not DEFAULT_Z_GRID:
            z_grid = tuple(z_grid)
            _check_z_grid(z_grid)
        return super().__new__(cls, name, link, comp, detector, z_grid)

    @property
    def protocol(self) -> str:
        """"BB84" for a Bb84Params detector, "GMCS" for a GmcsParams one."""
        return "BB84" if isinstance(self.detector, Bb84Params) else "GMCS"


class Evaluation(Record, namedtuple("Evaluation", "z_km budget eta_ch point mu", defaults=(None,))):
    """Everything evaluated at one distance: the noise budget, the channel
    transmittance and the key-rate point (a Bb84Point or a GmcsPoint); mu
    is the BB84 grid optimum, None for GMCS."""

    __slots__ = ()

    @property
    def rate(self) -> float:
        return self.point.rate


class SweepResult(Record, namedtuple("SweepResult", "scenario rows secure_distance_km noise_crossover_km")):
    """A sweep's rows (Evaluations) under the scenario's name, with its
    secure distance and noise_crossover_km (None where there is none)."""

    __slots__ = ()


def evaluate(
    scenario: Scenario, z_km: float, strict_eps_out: bool = False, mu_grid: Sequence[float] = DEFAULT_MU_GRID
) -> Evaluation:
    """Noise budget and key rate of a scenario at one distance.

    BB84 takes the rate at the optimal mu of mu_grid, and the grid (mu,)
    gives the rate at mu. GMCS ignores mu_grid, budgets its noise against
    HOMODYNE_REFERENCE_WINDOW_S and adds the unmatched-mode excess noise
    eps_out to eps_in only when strict_eps_out is set.
    """
    return _model_and_row(scenario, strict_eps_out, mu_grid)[1](z_km)


def _model_and_row(
    scenario: Scenario, strict_eps_out: bool, mu_grid: Sequence[float] = DEFAULT_MU_GRID
) -> tuple[NoiseModel, Callable[[float], Evaluation]]:
    """The noise model that budgets a scenario's rows, and the function that
    evaluates its row at one distance. The protocol is decided here, once,
    and not on each row."""
    link, comp, det = scenario.link, scenario.comp, scenario.detector
    if scenario.protocol == "BB84":
        model = NoiseModel(link, comp, det.delta_t_s)
        at = model.at

        def bb84_row(z_km: float) -> Evaluation:
            eta_ch, budget = at(z_km)
            # optimize_mu is looked up in this module on each row, so that a
            # wrapper set here sees every call; tuple.__new__ builds the
            # record that the namedtuple's Python __new__ would
            mu, point = optimize_mu(eta_ch, comp, det, budget, mu_grid)
            return tuple.__new__(Evaluation, (z_km, budget, eta_ch, point, mu))

        return model, bb84_row

    model = NoiseModel(
        link,
        comp,
        HOMODYNE_REFERENCE_WINDOW_S,
        eta_bob=det.eta_bob,
        detector_bandwidth_hz=det.detector_bandwidth_hz,
        n_lo=det.n_lo,
    )
    at, eta_dmu = model.at, comp.eta_dmu
    eps0, eta_bob, sigma_meas, conservative = det.eps0, det.eta_bob, det.sigma_meas, det.conservative

    def gmcs_row(z_km: float) -> Evaluation:
        eta_ch, budget = at(z_km)
        eps_in = (budget.eps_in + budget.eps_out) if strict_eps_out else budget.eps_in
        # total_excess_noise and gmcs_point are looked up in this module on
        # each row, so that a wrapper set here sees every call
        eps = total_excess_noise(eps0, eps_in, eta_ch, eta_dmu, eta_bob, sigma_meas, conservative)
        # tuple.__new__ builds the record that the namedtuple's Python __new__ would
        return tuple.__new__(Evaluation, (z_km, budget, eta_ch, gmcs_point(eta_ch, det, eps, eta_dmu), None))

    return model, gmcs_row


def run_sweep(scenario: Scenario, strict_eps_out: bool = False) -> SweepResult:
    """Evaluate noise budget and key rate at every grid distance."""
    model, row_at = _model_and_row(scenario, strict_eps_out)
    rows = tuple([row_at(z) for z in scenario.z_grid])

    # secure_distance's 1 km scan and bisection revisit distances the sweep
    # has evaluated; evaluate is deterministic, so reuse those rates
    rate_by_z = {row.z_km: row.rate for row in rows}

    def rate_fn(z: float) -> float:
        rate = rate_by_z.get(z)
        return row_at(z).rate if rate is None else rate

    dist = secure_distance(rate_fn, scenario.z_grid[-1])
    return SweepResult(
        scenario=scenario.name,
        rows=rows,
        secure_distance_km=dist,
        noise_crossover_km=_crossover_km(model),
    )


def noise_crossover_km(scenario: Scenario) -> float | None:
    """Distance where the leakage and SASRS window terms are equal.

    The leakage term is constant in z while SASRS grows linearly, so the
    crossover follows from the terms at any reference distance. None when
    either term vanishes identically.
    """
    return _crossover_km(_model_and_row(scenario, False)[0])


def _crossover_km(model: NoiseModel) -> float | None:
    budget = model.at(1.0)[1]
    if budget.leak_window <= 0 or budget.sasrs_window <= 0:
        return None
    return budget.leak_window / budget.sasrs_window  # slope is per km at z=1


def builtin_scenarios() -> list[Scenario]:
    """The seven canonical scenarios used throughout the documentation, in
    a new list on each call."""
    return list(_builtin_scenarios())


@functools.cache
def _builtin_scenarios() -> tuple[Scenario, ...]:
    # built once per process; every Scenario and its parameters are frozen
    table2 = ComponentParams()
    table2_adj = table2.replace(xi1=ADJACENT_ISOLATION, xi2=ADJACENT_ISOLATION)
    one_ch = LinkParams(classical_channel_count=1, p_out_dbm=0.0)
    no_ch = one_ch.replace(classical_channel_count=0)
    many_ch = one_ch.replace(classical_channel_count=38)
    bb84 = Bb84Params()
    gmcs = GmcsParams()
    gmcs_100mhz = gmcs.replace(v_el=0.1, detector_bandwidth_hz=100e6, conservative=True)

    return (
        Scenario("fig3-noise", one_ch, table2, bb84),
        Scenario("bb84-0dBm", one_ch, table2, bb84),
        Scenario("gmcs-none", no_ch, table2, gmcs),
        Scenario("gmcs-1ch-nonadj", one_ch, table2, gmcs),
        Scenario("gmcs-1ch-adj", one_ch, table2_adj, gmcs),
        Scenario("gmcs-38ch", many_ch, table2, gmcs),
        Scenario("gmcs-1ch-100MHz-detector", one_ch, table2, gmcs_100mhz),
    )


class UnknownScenarioError(KeyError):
    """No built-in scenario has the name asked for. Its str is the message
    itself, where KeyError's is the message's repr, quotes included."""

    def __str__(self) -> str:
        return str(self.args[0])


def scenario_by_name(name: str) -> Scenario:
    scenarios = _builtin_scenarios()
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in scenarios)
    raise UnknownScenarioError(f"unknown scenario {name!r}; known scenarios: {known}")
