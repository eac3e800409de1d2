"""Declarative sweep scenarios: distance grids, gain scheduling, derived metrics.

The built-in scenarios cover the single-channel noise sweep, the multiplexed
decoy-BB84 case and the five homodyne-detection conditions (no classical
channel, one non-adjacent, one adjacent, 38 channels, and the 100 MHz
detector with the conservative excess-noise estimate).
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple, Union

from .bb84 import Bb84Params, Bb84Point, _optimize_mu_with_budget
from .gmcs import GmcsParams, GmcsPoint, gmcs_point, secure_distance, total_excess_noise
from .noise import ComponentParams, DomainError, FrozenRecord, LinkParams, NoiseBudget, NoiseModel

ADJACENT_ISOLATION = 1e-4  # -40 dB

# reference window of the homodyne budget: the SPD window against which the
# unmatched-mode noise is scaled, the single-photon budget's convention
HOMODYNE_REFERENCE_WINDOW_S = 1e-9


def _check_z_grid(z_grid) -> None:
    zs = list(z_grid)
    if not zs or any(z < 0 for z in zs) or any(b <= a for a, b in zip(zs, zs[1:])):
        raise DomainError("z_grid must be nonempty, nonnegative, strictly increasing")


# 0..80 km step 0.5, built and checked once and shared by every Scenario
# that keeps the default
DEFAULT_Z_GRID: Tuple[float, ...] = tuple(0.5 * i for i in range(161))
_check_z_grid(DEFAULT_Z_GRID)


class Scenario(FrozenRecord):
    _fields = ("name", "protocol", "link", "comp", "detector", "z_grid")

    def __init__(
        self,
        name: str,
        protocol: str,  # "BB84" | "GMCS"
        link: LinkParams,
        comp: ComponentParams,
        detector: Union[Bb84Params, GmcsParams],
        z_grid: Tuple[float, ...] = DEFAULT_Z_GRID,
    ):
        if protocol not in ("BB84", "GMCS"):
            raise DomainError(f"unknown protocol {protocol!r}")
        if z_grid is not DEFAULT_Z_GRID:
            _check_z_grid(z_grid)
        d = self.__dict__
        d["name"] = name
        d["protocol"] = protocol
        d["link"] = link
        d["comp"] = comp
        d["detector"] = detector
        d["z_grid"] = z_grid


class Evaluation(FrozenRecord):
    """Everything evaluated at one distance: the noise budget, the channel
    transmittance and the key-rate point; mu is the BB84 grid optimum."""

    _fields = ("z_km", "budget", "eta_ch", "point", "mu")

    def __init__(
        self,
        z_km: float,
        budget: NoiseBudget,
        eta_ch: float,
        point: Union[Bb84Point, GmcsPoint],
        mu: Optional[float] = None,
    ):
        d = self.__dict__
        d["z_km"] = z_km
        d["budget"] = budget
        d["eta_ch"] = eta_ch
        d["point"] = point
        d["mu"] = mu

    @property
    def rate(self) -> float:
        return self.point.rate


class SweepResult(FrozenRecord):
    _fields = ("scenario", "rows", "secure_distance_km", "noise_crossover_km")

    def __init__(
        self,
        scenario: str,
        rows: Tuple[Evaluation, ...],
        secure_distance_km: float,
        noise_crossover_km: Optional[float],
    ):
        d = self.__dict__
        d["scenario"] = scenario
        d["rows"] = rows
        d["secure_distance_km"] = secure_distance_km
        d["noise_crossover_km"] = noise_crossover_km


def evaluate(scenario: Scenario, z_km: float, strict_eps_out: bool = False) -> Evaluation:
    """Noise budget and key rate of a scenario at one distance.

    BB84 takes the rate at the optimal mu of the default grid. GMCS budgets
    its noise against HOMODYNE_REFERENCE_WINDOW_S and adds the unmatched-mode
    excess noise eps_out to eps_in only when strict_eps_out is set.
    """
    return _evaluate(scenario, _noise_model(scenario), z_km, strict_eps_out)


def _noise_model(scenario: Scenario) -> NoiseModel:
    """The noise model that evaluate budgets a scenario's rows with."""
    link, comp, det = scenario.link, scenario.comp, scenario.detector
    if scenario.protocol == "BB84":
        return NoiseModel(link, comp, det.delta_t_s)
    return NoiseModel(
        link,
        comp,
        HOMODYNE_REFERENCE_WINDOW_S,
        eta_bob=det.eta_bob,
        detector_bandwidth_hz=det.detector_bandwidth_hz,
        n_lo=det.n_lo,
    )


def _evaluate(scenario: Scenario, model: NoiseModel, z_km: float, strict_eps_out: bool) -> Evaluation:
    """evaluate, given the scenario's noise model."""
    comp, det = scenario.comp, scenario.detector
    eta_ch, budget = model.at(z_km)
    if scenario.protocol == "BB84":
        mu, point = _optimize_mu_with_budget(eta_ch, comp, det, budget)
        return Evaluation(z_km, budget, eta_ch, point, mu)

    eps_in = budget.eps_in + (budget.eps_out if strict_eps_out else 0.0)
    eps = total_excess_noise(
        det.eps0,
        eps_in,
        eta_ch,
        comp.eta_dmu,
        det.eta_bob,
        sigma_meas=det.sigma_meas,
        conservative=det.conservative,
    )
    point = gmcs_point(eta_ch, det, eps, eta_dmu=comp.eta_dmu)
    return Evaluation(z_km, budget, eta_ch, point)


def run_sweep(scenario: Scenario, strict_eps_out: bool = False) -> SweepResult:
    """Evaluate noise budget and key rate at every grid distance."""
    model = _noise_model(scenario)
    rows = tuple([_evaluate(scenario, model, z, strict_eps_out) for z in scenario.z_grid])

    # secure_distance's 1 km scan and bisection revisit distances the sweep
    # has evaluated; evaluate is deterministic, so reuse those rates
    rate_by_z = {row.z_km: row.rate for row in rows}

    def rate_fn(z: float) -> float:
        rate = rate_by_z.get(z)
        return _evaluate(scenario, model, z, strict_eps_out).rate if rate is None else rate

    dist = secure_distance(rate_fn, scenario.z_grid[-1])
    return SweepResult(
        scenario=scenario.name,
        rows=rows,
        secure_distance_km=dist,
        noise_crossover_km=_crossover_km(model),
    )


def noise_crossover_km(scenario: Scenario) -> Optional[float]:
    """Distance where the leakage and SASRS window terms are equal.

    The leakage term is constant in z while SASRS grows linearly, so the
    crossover follows from the terms at any reference distance. None when
    either term vanishes identically.
    """
    return _crossover_km(_noise_model(scenario))


def _crossover_km(model: NoiseModel) -> Optional[float]:
    budget = model.at(1.0)[1]
    if budget.leak_window <= 0 or budget.sasrs_window <= 0:
        return None
    return budget.leak_window / budget.sasrs_window  # slope is per km at z=1


def builtin_scenarios() -> List[Scenario]:
    """The seven canonical scenarios used throughout the documentation."""
    table2 = ComponentParams()
    table2_adj = dataclasses.replace(
        table2, xi1=ADJACENT_ISOLATION, xi2=ADJACENT_ISOLATION
    )
    one_ch = LinkParams(classical_channel_count=1, p_out_dbm=0.0)
    no_ch = dataclasses.replace(one_ch, classical_channel_count=0)
    many_ch = dataclasses.replace(one_ch, classical_channel_count=38)
    bb84 = Bb84Params()
    gmcs = GmcsParams()
    gmcs_100mhz = dataclasses.replace(
        gmcs, v_el=0.1, detector_bandwidth_hz=100e6, conservative=True
    )

    return [
        Scenario("fig3-noise", "BB84", one_ch, table2, bb84),
        Scenario("bb84-0dBm", "BB84", one_ch, table2, bb84),
        Scenario("gmcs-none", "GMCS", no_ch, table2, gmcs),
        Scenario("gmcs-1ch-nonadj", "GMCS", one_ch, table2, gmcs),
        Scenario("gmcs-1ch-adj", "GMCS", one_ch, table2_adj, gmcs),
        Scenario("gmcs-38ch", "GMCS", many_ch, table2, gmcs),
        Scenario("gmcs-1ch-100MHz-detector", "GMCS", one_ch, table2, gmcs_100mhz),
    ]


class UnknownScenarioError(KeyError):
    """No built-in scenario has the name asked for. Its str is the message
    itself, where KeyError's is the message's repr, quotes included."""

    def __str__(self) -> str:
        return str(self.args[0])


def scenario_by_name(name: str) -> Scenario:
    scenarios = builtin_scenarios()
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in scenarios)
    raise UnknownScenarioError(f"unknown scenario {name!r}; known scenarios: {known}")
