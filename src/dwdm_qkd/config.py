"""Sectioned key-value configuration with strict key validation.

dB- and dBm-suffixed keys are converted to linear values exactly once at
parse time; everything downstream is linear SI. Missing keys fall back to
the standard simulation defaults baked into the parameter dataclasses.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .bb84 import Bb84Params
from .gmcs import GmcsParams
from .noise import ComponentParams, DomainError, LinkParams, db_field_to_linear

# the [scenario] grid is checked against this before it is built
MAX_GRID_POINTS = 100_000


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the key."""


@dataclass(frozen=True)
class Config:
    link: LinkParams
    comp: ComponentParams
    bb84: Bb84Params
    gmcs: GmcsParams
    z_grid: Tuple[float, ...]

    def __iter__(self):
        return iter((self.link, self.comp, self.bb84, self.gmcs))


_LINK_KEYS = {
    "fiber_length_km",
    "alpha_db_per_km",
    "beta_raman",
    "classical_channel_count",
    "p_out_dbm",
    "lambda_quantum_nm",
    "lambda_classical_nm",
}
_COMP_KEYS = {
    "nf_db",
    "gain_g0",
    "gain_fixed",
    "xi1_db",
    "xi2_db",
    "eta_mux",
    "eta_dmu",
    "delta_nu_hz",
    "nsp_convention",
}
_BB84_KEYS = {"mu", "y0_base", "e_det", "e0", "eta_bob", "f_ec", "delta_t_ns"}
_GMCS_KEYS = {
    "v_a",
    "eta_bob",
    "eps0",
    "v_el",
    "gamma",
    "n_lo",
    "detector_bandwidth_hz",
    "sigma_meas",
    "conservative",
}
_SCENARIO_KEYS = {"z_min_km", "z_max_km", "z_step_km"}

_SECTIONS = {
    "link": _LINK_KEYS,
    "components": _COMP_KEYS,
    "bb84": _BB84_KEYS,
    "gmcs": _GMCS_KEYS,
    "scenario": _SCENARIO_KEYS,
}


def _get(sec: Dict[str, str], section: str, key: str, cast, default):
    raw = sec.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: malformed value {raw!r}") from exc


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def parse_config(text: str) -> Config:
    """Parse and validate a configuration document.

    Unknown sections or keys are rejected; out-of-range values raise a
    ConfigError naming the offending key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    def sec(name: str) -> Dict[str, str]:
        return dict(parser[name]) if parser.has_section(name) else {}

    link_s, comp_s, bb84_s, gmcs_s, scen_s = (
        sec("link"),
        sec("components"),
        sec("bb84"),
        sec("gmcs"),
        sec("scenario"),
    )

    try:
        link = LinkParams(
            fiber_length_km=_get(link_s, "link", "fiber_length_km", float, 20.0),
            alpha_db_per_km=_get(link_s, "link", "alpha_db_per_km", float, 0.21),
            beta_raman=_get(link_s, "link", "beta_raman", float, 4e-9),
            classical_channel_count=_get(
                link_s, "link", "classical_channel_count", int, 1
            ),
            p_out_dbm=_get(link_s, "link", "p_out_dbm", float, 0.0),
            lambda_quantum_nm=_get(link_s, "link", "lambda_quantum_nm", float, 1550.0),
            lambda_classical_nm=_get(
                link_s, "link", "lambda_classical_nm", float, 1550.8
            ),
        )
        gain_fixed_raw = comp_s.get("gain_fixed", "").strip()
        comp = ComponentParams(
            nf_db=_get(comp_s, "components", "nf_db", float, 10 * math.log10(4.0)),
            gain_g0=_get(comp_s, "components", "gain_g0", float, 100.0),
            gain_fixed=float(gain_fixed_raw) if gain_fixed_raw else None,
            xi1=db_field_to_linear(
                "xi1_db", _get(comp_s, "components", "xi1_db", float, -80.0)
            ),
            xi2=db_field_to_linear(
                "xi2_db", _get(comp_s, "components", "xi2_db", float, -80.0)
            ),
            eta_mux=_get(comp_s, "components", "eta_mux", float, 0.71),
            eta_dmu=_get(comp_s, "components", "eta_dmu", float, 0.71),
            delta_nu_hz=_get(comp_s, "components", "delta_nu_hz", float, 75e9),
            nsp_exact=_parse_nsp(comp_s.get("nsp_convention", "highgain")),
        )
        bb84 = Bb84Params(
            mu=_get(bb84_s, "bb84", "mu", float, 0.5),
            y0_base=_get(bb84_s, "bb84", "y0_base", float, 5e-6),
            e_det=_get(bb84_s, "bb84", "e_det", float, 0.003),
            e0=_get(bb84_s, "bb84", "e0", float, 0.5),
            eta_bob=_get(bb84_s, "bb84", "eta_bob", float, 0.038),
            f_ec=_get(bb84_s, "bb84", "f_ec", float, 1.22),
            delta_t_s=_get(bb84_s, "bb84", "delta_t_ns", float, 1.0) * 1e-9,
        )
        gmcs = GmcsParams(
            v_a=_get(gmcs_s, "gmcs", "v_a", float, 10.0),
            eta_bob=_get(gmcs_s, "gmcs", "eta_bob", float, 0.6),
            eps0=_get(gmcs_s, "gmcs", "eps0", float, 0.01),
            v_el=_get(gmcs_s, "gmcs", "v_el", float, 0.01),
            gamma=_get(gmcs_s, "gmcs", "gamma", float, 0.9),
            n_lo=_get(gmcs_s, "gmcs", "n_lo", float, 1e8),
            detector_bandwidth_hz=_get(
                gmcs_s, "gmcs", "detector_bandwidth_hz", float, 1e6
            ),
            sigma_meas=_get(gmcs_s, "gmcs", "sigma_meas", float, 0.024),
            conservative=_get(gmcs_s, "gmcs", "conservative", _bool, False),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    z_min = _get(scen_s, "scenario", "z_min_km", float, 0.0)
    z_max = _get(scen_s, "scenario", "z_max_km", float, 80.0)
    z_step = _get(scen_s, "scenario", "z_step_km", float, 0.5)
    for key, value in (("z_min_km", z_min), ("z_max_km", z_max), ("z_step_km", z_step)):
        if not math.isfinite(value):
            raise ConfigError(f"scenario.{key}: must be finite, got {value}")
    if z_step <= 0 or z_max < z_min or z_min < 0:
        raise ConfigError("scenario.z_min_km/z_max_km/z_step_km: invalid grid")
    steps = (z_max - z_min) / z_step
    if not steps <= MAX_GRID_POINTS - 1:
        raise ConfigError(
            f"scenario.z_step_km: a {z_step} km step from {z_min} to {z_max} km "
            f"gives more than {MAX_GRID_POINTS} grid points"
        )
    n = int(round(steps))
    z_grid = tuple(z_min + i * z_step for i in range(n + 1))

    return Config(link=link, comp=comp, bb84=bb84, gmcs=gmcs, z_grid=z_grid)


def _parse_nsp(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("highgain", "high-gain", "high_gain"):
        return False
    if lowered == "exact":
        return True
    raise ConfigError(f"components.nsp_convention: expected highgain|exact, got {raw!r}")


def serialize_config(config: Config) -> str:
    """Render a Config back to parseable text that round-trips exactly."""

    def g(x: float) -> str:
        return repr(float(x))

    def g_db(x: float) -> str:
        # a zero isolation is -inf dB, which parse_config maps back to 0
        return g(10 * math.log10(x)) if x > 0 else "-inf"

    link, comp, bb84, gmcs = config.link, config.comp, config.bb84, config.gmcs
    lines = [
        "[link]",
        f"fiber_length_km = {g(link.fiber_length_km)}",
        f"alpha_db_per_km = {g(link.alpha_db_per_km)}",
        f"beta_raman = {g(link.beta_raman)}",
        f"classical_channel_count = {link.classical_channel_count}",
        f"p_out_dbm = {g(link.p_out_dbm)}",
        f"lambda_quantum_nm = {g(link.lambda_quantum_nm)}",
        f"lambda_classical_nm = {g(link.lambda_classical_nm)}",
        "",
        "[components]",
        f"nf_db = {g(comp.nf_db)}",
        f"gain_g0 = {g(comp.gain_g0)}",
        f"xi1_db = {g_db(comp.xi1)}",
        f"xi2_db = {g_db(comp.xi2)}",
        f"eta_mux = {g(comp.eta_mux)}",
        f"eta_dmu = {g(comp.eta_dmu)}",
        f"delta_nu_hz = {g(comp.delta_nu_hz)}",
        f"nsp_convention = {'exact' if comp.nsp_exact else 'highgain'}",
    ]
    if comp.gain_fixed is not None:
        lines.append(f"gain_fixed = {g(comp.gain_fixed)}")
    lines += [
        "",
        "[bb84]",
        f"mu = {g(bb84.mu)}",
        f"y0_base = {g(bb84.y0_base)}",
        f"e_det = {g(bb84.e_det)}",
        f"e0 = {g(bb84.e0)}",
        f"eta_bob = {g(bb84.eta_bob)}",
        f"f_ec = {g(bb84.f_ec)}",
        f"delta_t_ns = {g(bb84.delta_t_s * 1e9)}",
        "",
        "[gmcs]",
        f"v_a = {g(gmcs.v_a)}",
        f"eta_bob = {g(gmcs.eta_bob)}",
        f"eps0 = {g(gmcs.eps0)}",
        f"v_el = {g(gmcs.v_el)}",
        f"gamma = {g(gmcs.gamma)}",
        f"n_lo = {g(gmcs.n_lo)}",
        f"detector_bandwidth_hz = {g(gmcs.detector_bandwidth_hz)}",
        f"sigma_meas = {g(gmcs.sigma_meas)}",
        f"conservative = {'true' if gmcs.conservative else 'false'}",
        "",
        "[scenario]",
        f"z_min_km = {g(config.z_grid[0])}",
        f"z_max_km = {g(config.z_grid[-1])}",
        f"z_step_km = {g(config.z_grid[1] - config.z_grid[0]) if len(config.z_grid) > 1 else '0.5'}",
        "",
    ]
    return "\n".join(lines)


def default_config() -> Config:
    return parse_config("")
