"""Sectioned key-value configuration with strict key validation.

The [link], [components], [bb84] and [gmcs] sections hold the fields of
LinkParams, ComponentParams, Bb84Params and GmcsParams: each key is the
field's name and a missing key takes the field's default. The four keys in
_CONVERTED differ from their field in name or unit and are converted to
linear SI values exactly once, at parse time. [link] fiber_length_km is
Config.z_km, the distance of the point commands when --z is not given.
[scenario] z_min_km, z_max_km and z_step_km describe a distance grid. They
are checked and kept in Config as given, and no grid is built from them: no
command reads them, and each sweep runs on its built-in scenario's grid.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Callable

from .bb84 import Bb84Params
from .gmcs import GmcsParams
from .noise import ComponentParams, DomainError, LinkParams, Record, channel_transmittance, db_field_to_linear
from .scenarios import DEFAULT_Z_GRID

# the most points a [scenario] grid may describe
MAX_GRID_POINTS = 100_000
# the distance of the point commands when neither --z nor fiber_length_km is given
DEFAULT_Z_KM = 20.0


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the key."""


class Config(
    Record,
    namedtuple("Config", "link comp bb84 gmcs z_min_km z_max_km z_step_km z_km", defaults=(DEFAULT_Z_KM,)),
):
    __slots__ = ()


# section -> (Config attribute, parameter dataclass)
_SECTIONS = {
    "link": ("link", LinkParams),
    "components": ("comp", ComponentParams),
    "bb84": ("bb84", Bb84Params),
    "gmcs": ("gmcs", GmcsParams),
}
# the [scenario] defaults describe the built-in scenarios' grid
_SCENARIO_DEFAULTS = {
    "z_min_km": DEFAULT_Z_GRID[0],
    "z_max_km": DEFAULT_Z_GRID[-1],
    "z_step_km": DEFAULT_Z_GRID[1] - DEFAULT_Z_GRID[0],
}


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _optional_float(raw: str) -> float | None:
    return float(raw) if raw.strip() else None


def _nsp_exact(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("highgain", "high-gain", "high_gain"):
        return False
    if lowered == "exact":
        return True
    raise ValueError(raw)


def _exact_repr(build: Callable[[float], float], target: float, guess: float) -> str:
    """The repr of a float x with build(x) == target, for a build that does
    not decrease with x: guess when it does, else the first hit of a
    bisection within abs(guess) of guess (guess when there is none)."""
    lo, hi, x = guess - abs(guess), guess + abs(guess), guess
    while True:
        got = build(x)
        if got == target or not lo < x < hi:
            return repr(x if got == target else guess)
        lo, hi = (x, hi) if got < target else (lo, x)
        x = 0.5 * (lo + hi)


def _scaled(field: str, to_field: Callable[[float], float], guess: Callable[[float], float]):
    # a key in other units than its field: the conversion need not invert
    # exactly, so the text is the float that to_field maps back to the value
    return (
        field,
        lambda raw: to_field(float(raw)),
        lambda value: _exact_repr(to_field, value, guess(value)),
    )


def _field_to_db(x: float) -> float:
    # a zero isolation is -inf dB, which parses back to 0
    return 10 * math.log10(x) if x > 0 else -math.inf


def _plain_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


# config key -> (field, text -> field value, field value -> text) for the
# keys whose name or unit differs from their field; the others parse by the
# type of the field's default
_CONVERTED = {
    "xi1_db": _scaled("xi1", lambda db: db_field_to_linear("xi1_db", db), _field_to_db),
    "xi2_db": _scaled("xi2", lambda db: db_field_to_linear("xi2_db", db), _field_to_db),
    "nsp_convention": ("nsp_exact", _nsp_exact, lambda exact: "exact" if exact else "highgain"),
    "delta_t_ns": _scaled("delta_t_s", lambda ns: ns * 1e-9, lambda s: s * 1e9),
}


def _parser_of(default) -> Callable[[str], object]:
    # bool before int: a bool is an int. The one field whose default is
    # None, gain_fixed, is an optional float.
    if default is None:
        return _optional_float
    if isinstance(default, bool):
        return _bool
    return int if isinstance(default, int) else float


def _keys(cls) -> dict[str, tuple]:
    converted = {entry[0]: (key, entry) for key, entry in _CONVERTED.items()}
    keys = {}
    for name, default in cls._defaults.items():
        plain = (name, (name, _parser_of(default), _plain_text))
        key, entry = converted.get(name, plain)
        keys[key] = entry
    return keys


_KEYS = {section: _keys(cls) for section, (_, cls) in _SECTIONS.items()}
_KEYS["link"]["fiber_length_km"] = ("z_km", float, _plain_text)
_KEYS["scenario"] = {key: (key, float, _plain_text) for key in _SCENARIO_DEFAULTS}


def _read_ini(text: str) -> list[tuple[str, str, str]]:
    """The (section, key, raw value) of each option line, in document order.

    Lines split at "\\n" only and are stripped; blank lines and lines that
    start with # or ; are skipped. A header is a whole line [name] of a
    known section, read once. An option line splits at its first = or :
    into a lowercased key, unique within its section, and its value. A line
    indented deeper than the option line above it would continue that value
    in configparser, and is rejected.
    """
    options = []
    sections = set()
    keys = set()  # the keys of the current section: a section is read once
    section = key = None
    indent = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            continue
        first = stripped[0]
        if first in "#;":
            continue
        # first is not whitespace, so its first place in line is past the indent
        depth = line.find(first)
        if key is not None and depth > indent:
            raise ConfigError(f"malformed config: line {lineno}: {section}.{key} continues on an indented line")
        indent = depth
        if first == "[":
            if stripped[-1] != "]":
                raise ConfigError(f"malformed config: line {lineno}: {stripped!r} is not a [section] header")
            section, key = stripped[1:-1], None
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]")
            if section in sections:
                raise ConfigError(f"malformed config: line {lineno}: section [{section}] repeated")
            sections.add(section)
            keys = set()
            continue
        key, delimiter, raw = stripped.partition("=")
        if ":" in key:
            key, delimiter, raw = stripped.partition(":")
        if not delimiter:
            raise ConfigError(f"malformed config: line {lineno}: no '=' or ':' in {stripped!r}")
        key = key.rstrip().lower()
        if not key:
            raise ConfigError(f"malformed config: line {lineno}: no key before {delimiter!r}")
        if section is None:
            raise ConfigError(f"malformed config: line {lineno}: key {key!r} before any [section] header")
        if key in keys:
            raise ConfigError(f"malformed config: line {lineno}: key {section}.{key} repeated")
        keys.add(key)
        options.append((section, key, raw.lstrip()))
    return options


def _check_grid(z_min: float, z_max: float, z_step: float) -> None:
    """Reject a [scenario] grid that is not finite, has no positive step,
    starts below 0 or ends before it starts, or has more than
    MAX_GRID_POINTS points."""
    for key, value in (("z_min_km", z_min), ("z_max_km", z_max), ("z_step_km", z_step)):
        if not math.isfinite(value):
            raise ConfigError(f"scenario.{key}: must be finite, got {value}")
    if z_step <= 0:
        raise ConfigError(f"scenario.z_step_km: must be > 0, got {z_step}")
    if z_min < 0:
        raise ConfigError(f"scenario.z_min_km: must be >= 0, got {z_min}")
    if z_max < z_min:
        raise ConfigError(f"scenario.z_max_km: must be >= z_min_km ({z_min}), got {z_max}")
    if not (z_max - z_min) / z_step <= MAX_GRID_POINTS - 1:
        raise ConfigError(
            f"scenario.z_step_km: a {z_step} km step from {z_min} to {z_max} km "
            f"gives more than {MAX_GRID_POINTS} grid points"
        )


def parse_config(text: str) -> Config:
    """Parse and validate a configuration document.

    A grammar error raises a ConfigError that names its line, and unknown
    sections or keys are rejected; out-of-range values raise a ConfigError
    naming the offending key.
    """
    values = {section: {} for section in _KEYS}
    for section, key, raw in _read_ini(text):
        entry = _KEYS[section].get(key)
        if entry is None:
            raise ConfigError(f"unknown key {section}.{key}")
        field, parse, _ = entry
        try:
            values[section][field] = parse(raw)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: malformed value {raw!r}") from exc

    z_km = values["link"].pop("z_km", DEFAULT_Z_KM)
    params = {}
    try:
        for section, (attr, cls) in _SECTIONS.items():
            params[attr] = cls(**values[section])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        channel_transmittance(z_km, params["link"].alpha_db_per_km)
    except DomainError as exc:
        raise ConfigError(f"link.fiber_length_km: {exc}") from exc
    grid = {**_SCENARIO_DEFAULTS, **values["scenario"]}
    _check_grid(grid["z_min_km"], grid["z_max_km"], grid["z_step_km"])
    return Config(**params, **grid, z_km=z_km)


def serialize_config(config: Config) -> str:
    """Render a Config that parse_config returned back to text that parses
    to an equal Config. A key whose value is None is left out."""
    lines = []
    for section, (attr, _) in _SECTIONS.items():
        params = getattr(config, attr)
        lines.append(f"[{section}]")
        for key, (field, _, text) in _KEYS[section].items():
            value = getattr(config if field == "z_km" else params, field)
            if value is not None:
                lines.append(f"{key} = {text(value)}")
        lines.append("")
    lines.append("[scenario]")
    lines += [f"{key} = {getattr(config, key)!r}" for key in _SCENARIO_DEFAULTS]
    lines.append("")
    return "\n".join(lines)


@functools.cache
def default_config() -> Config:
    """The parsed empty document, built once; Config and its parts are frozen."""
    return parse_config("")
