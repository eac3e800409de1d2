import argparse
import configparser
import functools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import typing
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dwdm_qkd import cli, config, scenarios
from dwdm_qkd.bb84 import DEFAULT_MU_GRID, Bb84Params, background_rate, bb84_point_from_rates
from dwdm_qkd.cli import main
from dwdm_qkd.config import (
    MAX_GRID_POINTS,
    ConfigError,
    default_config,
    parse_config,
    serialize_config,
)
from dwdm_qkd.gmcs import GmcsParams, GmcsPoint, PhysicalityError
from dwdm_qkd.noise import ComponentParams, DomainError, LinkParams, NoiseBudget, NoiseModel
from dwdm_qkd.output import CSV_HEADER, emit, point_to_json, round9, sweep_to_csv, sweep_to_json
from dwdm_qkd.scenarios import Evaluation, SweepResult, builtin_scenarios, run_sweep, scenario_by_name

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# every key a config accepts, by section
CONFIG_KEYS = {
    "link": {
        "fiber_length_km",
        "alpha_db_per_km",
        "beta_raman",
        "classical_channel_count",
        "p_out_dbm",
        "lambda_quantum_nm",
        "lambda_classical_nm",
    },
    "components": {
        "nf_db",
        "gain_g0",
        "gain_fixed",
        "xi1_db",
        "xi2_db",
        "eta_mux",
        "eta_dmu",
        "delta_nu_hz",
        "nsp_convention",
    },
    "bb84": {"mu", "y0_base", "e_det", "e0", "eta_bob", "f_ec", "delta_t_ns"},
    "gmcs": {
        "v_a",
        "eta_bob",
        "eps0",
        "v_el",
        "gamma",
        "n_lo",
        "detector_bandwidth_hz",
        "sigma_meas",
        "conservative",
    },
    "scenario": {"z_min_km", "z_max_km", "z_step_km"},
}


def unit_interval(min_value=0.0, exclude_min=True):
    return st.floats(min_value=min_value, max_value=1.0, exclude_min=exclude_min)


DB_ISOLATION = st.one_of(st.just(-math.inf), st.floats(min_value=-300.0, max_value=0.0))


@st.composite
def config_documents(draw):
    """A valid config document that sets every key, as {section: {key: value}}."""
    lambda_q = draw(st.floats(min_value=1500.0, max_value=1600.0))
    z_min = draw(st.floats(min_value=0.0, max_value=100.0))
    z_step = draw(st.floats(min_value=0.01, max_value=10.0))
    gain_fixed = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)))
    return {
        "link": {
            "fiber_length_km": draw(st.floats(min_value=0.0, max_value=500.0)),
            "alpha_db_per_km": draw(st.floats(min_value=0.0, max_value=1.0)),
            "beta_raman": draw(st.floats(min_value=0.0, max_value=1e-8)),
            "classical_channel_count": draw(st.integers(min_value=0, max_value=100)),
            "p_out_dbm": draw(st.floats(min_value=-30.0, max_value=30.0)),
            "lambda_quantum_nm": lambda_q,
            "lambda_classical_nm": lambda_q + draw(st.floats(min_value=0.1, max_value=50.0)),
        },
        "components": {
            "nf_db": draw(st.floats(min_value=0.0, max_value=20.0)),
            "gain_g0": draw(st.floats(min_value=1.0, max_value=1e4)),
            "gain_fixed": "" if gain_fixed is None else gain_fixed,
            "xi1_db": draw(DB_ISOLATION),
            "xi2_db": draw(DB_ISOLATION),
            "eta_mux": draw(unit_interval()),
            "eta_dmu": draw(unit_interval()),
            "delta_nu_hz": draw(st.floats(min_value=1e6, max_value=1e12)),
            "nsp_convention": draw(st.sampled_from(["highgain", "exact"])),
        },
        "bb84": {
            "mu": draw(st.floats(min_value=0.0, max_value=10.0, exclude_min=True)),
            "y0_base": draw(st.floats(min_value=0.0, max_value=1e-3)),
            "e_det": draw(st.floats(min_value=0.0, max_value=0.5)),
            "e0": draw(unit_interval(exclude_min=False)),
            "eta_bob": draw(unit_interval()),
            "f_ec": draw(st.floats(min_value=1.0, max_value=2.0)),
            "delta_t_ns": draw(st.floats(min_value=0.01, max_value=100.0)),
        },
        "gmcs": {
            "v_a": draw(st.floats(min_value=0.0, max_value=100.0, exclude_min=True)),
            "eta_bob": draw(unit_interval()),
            "eps0": draw(st.floats(min_value=0.0, max_value=1.0)),
            "v_el": draw(st.floats(min_value=0.0, max_value=1.0)),
            "gamma": draw(unit_interval()),
            "n_lo": draw(st.floats(min_value=1.0, max_value=1e10)),
            "detector_bandwidth_hz": draw(st.floats(min_value=1.0, max_value=1e10)),
            "sigma_meas": draw(st.floats(min_value=0.0, max_value=1.0)),
            "conservative": draw(st.booleans()),
        },
        "scenario": {
            "z_min_km": z_min,
            "z_max_km": z_min + draw(st.integers(min_value=0, max_value=200)) * z_step,
            "z_step_km": z_step,
        },
    }


def render(doc):
    def text(value):
        return str(value).lower() if isinstance(value, bool) else str(value)

    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in keys.items())
        for section, keys in doc.items()
    )


def configparser_read(text):
    """The option lines of a document as parse_config read them through
    configparser.ConfigParser(interpolation=None), [DEFAULT] merge included:
    the oracle for config._read_ini."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    options = []
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        options += [(section, key, raw) for key, raw in parser[section].items()]
    return options


def parse_through_configparser(text):
    """(parse_config's result with configparser reading the document, and
    whether a value spans lines), or (None, False) where either rejects it."""
    try:
        options = configparser_read(text)
        with mock.patch.object(config, "_read_ini", lambda _: options):
            return parse_config(text), any("\n" in raw for _, _, raw in options)
    except ConfigError:
        return None, False


SPACES = ["", " ", "  ", "\t", " \t "]


@functools.cache
def value_texts():
    """{section: {key: texts}}: the text of each key in the defaults and in
    a config that changes a key of each section, plus bool spellings and an
    unset gain_fixed."""
    texts = {section: {key: set() for key in keys} for section, keys in CONFIG_KEYS.items()}
    varied = (
        "[link]\nfiber_length_km = 35\np_out_dbm = 3.4\nclassical_channel_count = 2\n"
        "[components]\nxi1_db = -40\nxi2_db = -inf\nnsp_convention = exact\ngain_fixed = 200\n"
        "[bb84]\nmu = 0.3\ndelta_t_ns = 0.5\n[gmcs]\nconservative = true\nv_el = 0.1\n"
        "[scenario]\nz_min_km = 2\nz_max_km = 9\nz_step_km = 0.25\n"
    )
    for config in (default_config(), parse_config(varied)):
        for section, key, raw in configparser_read(serialize_config(config)):
            texts[section][key].add(raw)
    texts["gmcs"]["conservative"] |= {"yes", "Off", "1"}
    texts["components"]["gain_fixed"].add("")
    return {section: {key: sorted(values) for key, values in keys.items()} for section, keys in texts.items()}


@st.composite
def ini_documents(draw):
    """Documents in the layouts configparser's default grammar allows: keys
    in mixed case, = or : padded with spaces or tabs, comments, blank lines,
    uniform indentation and CRLF line ends; then up to three edits that
    configparser may reject or read differently: a repeated key or section,
    an indented line below an option, a value moved onto such a line, an
    option before any header, an empty unknown section, an unknown key, and
    lines with no delimiter or no key. No [DEFAULT] section and no text after
    a header's closing ]."""
    rnd = draw(st.randoms(use_true_random=True))
    texts = value_texts()
    indent = rnd.choice(["", " ", "   ", "\t"])

    def option(key, value):
        cased = "".join(c.upper() if rnd.random() < 0.3 else c for c in key)
        return f"{cased}{rnd.choice(SPACES)}{rnd.choice('=:')}{rnd.choice(SPACES)}{value}"

    lines = []
    for section in rnd.sample(list(texts), rnd.randint(0, len(texts))):
        lines.append(f"[{section}]")
        keys = texts[section]
        for key in rnd.sample(list(keys), rnd.randint(0, len(keys))):
            lines.append(option(key, rnd.choice(keys[key])))
    for _ in range(rnd.randint(0, 4)):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(["", "  ", "# [gmcs] v_a = 1", "; mu: 2"]))
    lines = [indent + line if line else line for line in lines]
    for _ in range(rnd.choice([0, 0, 0, 1, 1, 2, 3])):
        at = rnd.randint(0, len(lines))
        options = [i for i, line in enumerate(lines) if re.match(r"\s*[^\s#;\[].*[=:]", line)]
        edit = rnd.randrange(9)
        if edit == 0 and options:  # a repeated key, in any case
            key = re.split("[=:]", lines[rnd.choice(options)], maxsplit=1)[0].strip()
            lines.insert(at, indent + option(key, "1"))
        elif edit == 1:
            lines.insert(at, indent + f"[{rnd.choice(list(CONFIG_KEYS))}]")
        elif edit == 2:  # an indented line: continues the option above, if any
            lines.insert(at, indent + rnd.choice([" ", "\t", "    "]) + rnd.choice(["0.3", "x = 1", "[gmcs]"]))
        elif edit == 3 and options:  # an option's value moved onto the line below
            i = rnd.choice(options)
            delimiter = re.search("[=:]", lines[i])
            lines[i : i + 1] = [lines[i][: delimiter.end()], indent + "  " + lines[i][delimiter.end() :].strip()]
        elif edit == 4:
            lines.insert(0, option("mu", "0.3"))
        elif edit == 5:
            lines.insert(at, indent + rnd.choice(["[turbo]", "[BB84]", "[ gmcs ]", "[]"]))
        elif edit == 6:
            lines.insert(at, indent + option("warp_factor", "9"))
        elif edit == 7:
            lines.insert(at, indent + rnd.choice(["mu 0.3", "[bb84", "conservative"]))
        elif edit == 8:
            lines.insert(at, indent + rnd.choice(["= 1", ": 0.3", " =x"]))
    newline = rnd.choice(["\n", "\n", "\r\n"])
    return newline.join(lines) + rnd.choice(["", newline])


def small_sweep():
    scenario = scenario_by_name("gmcs-38ch")
    scenario = scenario.replace(z_grid=tuple(float(z) for z in range(0, 21, 2)))
    return run_sweep(scenario)


def indent_encoder_json(result):
    """The sweep document as json.dumps(doc, indent=2) writes it: the
    reference that sweep_to_json must match byte for byte."""

    def r9(x):
        return float(format(x, ".9g"))

    doc = {
        "scenario": result.scenario,
        "rows": [
            {
                "z_km": r9(row.z_km),
                "ase_window": r9(row.budget.ase_window),
                "leak_window": r9(row.budget.leak_window),
                "sasrs_window": r9(row.budget.sasrs_window),
                "total_window": r9(row.budget.n_spd_window),
                "eps_in": r9(row.budget.eps_in),
                "eps_out": r9(row.budget.eps_out),
                "rate": r9(row.rate),
            }
            for row in result.rows
        ],
        "secure_distance_km": r9(result.secure_distance_km),
        "noise_crossover_km": (
            None if result.noise_crossover_km is None else r9(result.noise_crossover_km)
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def hand_sweep(rows, scenario="gmcs-38ch", secure_distance_km=9.890625, noise_crossover_km=None):
    """A SweepResult whose rows carry the given eight emitted values, in
    CSV_HEADER order."""
    evaluations = []
    for z, ase, leak, sasrs, total, eps_in, eps_out, rate in rows:
        budget = NoiseBudget(0.0, 0.0, 0.0, ase, leak, sasrs, total, 0.0, 0.0, eps_in, eps_out)
        point = GmcsPoint(eps_in, 0.0, 0.0, rate, (1.0, 1.0, 1.0, 1.0))
        evaluations.append(Evaluation(z, budget, 1.0, point))
    return SweepResult(scenario, tuple(evaluations), secure_distance_km, noise_crossover_km)


# values whose text needs care: a negative zero, exponents both ways, the
# smallest subnormal, more digits than are kept, and integral floats; the
# last row sits on the edges of the exponent layouts, where rounding to 9
# digits moves a value across one
AWKWARD_ROWS = [
    (0.0, -0.0, 1e-05, 1e16, 1e16 + 1e-05, 5e-324, 1e22, 0.1 + 0.2),
    (0.5, 123456789012.0, 123456789.0, 2.0, 1.0000000005, 9.9999999995e-5, 1e-7, -1e-300),
    (1.0, 1e-99, 9.999999995e-100, 2.2250738585072014e-308, 1e9, 999999999.5, 9.9999999995e15, -7.0),
]



def ordinary_rows(*cells):
    """Rows whose values are written by {:.9} as repr writes them, with each
    (row, column, value) of cells put in."""
    rows = [[float(z), 0.00123456789, 2.5e-5, 3.0, 0.1 + 0.2, 1e-7, 0.0, 42.5 - z] for z in range(4)]
    for row, column, value in cells:
        rows[row][column] = value
    return rows


class TestConfig:
    def test_empty_file_gives_table_defaults(self):
        config = parse_config("")
        assert config.link.alpha_db_per_km == 0.21
        assert config.link.beta_raman == 4e-9
        assert config.comp.xi1 == pytest.approx(1e-8)
        assert config.comp.eta_dmu == 0.71
        assert config.comp.delta_nu_hz == 75e9
        assert config.bb84.delta_t_s == pytest.approx(1e-9)
        assert config.bb84.eta_bob == 0.038
        assert config.bb84.f_ec == 1.22
        assert config.gmcs.v_a == 10.0
        assert config.gmcs.gamma == 0.9
        assert config.gmcs.eps0 == 0.01

    def test_extreme_but_valid_isolation(self):
        config = parse_config("[components]\nxi1_db = -200\n")
        assert config.comp.xi1 == pytest.approx(1e-20)

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("link", "fiber_length_km", "-1", "link.fiber_length_km"),
            ("link", "alpha_db_per_km", "-0.1", "alpha_db_per_km"),
            ("link", "beta_raman", "-1e-9", "beta_raman"),
            ("link", "classical_channel_count", "-1", "classical_channel_count"),
            ("link", "p_out_dbm", "4000", "p_out_dbm"),
            ("link", "lambda_quantum_nm", "0", "lambda_quantum_nm"),
            ("link", "lambda_classical_nm", "1000", "lambda_classical_nm"),
            ("link", "lambda_classical_nm", "1550", "lambda_classical_nm"),
            ("components", "nf_db", "-1", "nf_db"),
            ("components", "gain_g0", "0.5", "gain_g0"),
            ("components", "gain_fixed", "0.5", "gain_fixed"),
            ("components", "xi1_db", "10", "xi1"),
            ("components", "xi2_db", "10", "xi2"),
            ("components", "eta_mux", "0", "eta_mux"),
            ("components", "eta_dmu", "1.5", "eta_dmu"),
            ("components", "delta_nu_hz", "0", "delta_nu_hz"),
            ("bb84", "mu", "0", "mu"),
            ("bb84", "y0_base", "-1", "y0_base"),
            ("bb84", "e_det", "0.6", "e_det"),
            ("bb84", "e0", "1.5", "e0"),
            ("bb84", "eta_bob", "1.5", "eta_bob"),
            ("bb84", "eta_bob", "0", "eta_bob"),
            ("bb84", "f_ec", "0.5", "f_ec"),
            ("bb84", "delta_t_ns", "0", "delta_t_s"),
            ("gmcs", "v_a", "0", "v_a"),
            ("gmcs", "eta_bob", "1.5", "eta_bob"),
            ("gmcs", "eta_bob", "0", "eta_bob"),
            ("gmcs", "eps0", "-0.1", "eps0"),
            ("gmcs", "v_el", "-0.1", "v_el"),
            ("gmcs", "gamma", "0", "gamma"),
            ("gmcs", "n_lo", "0", "n_lo"),
            ("gmcs", "detector_bandwidth_hz", "0", "detector_bandwidth_hz"),
            ("gmcs", "sigma_meas", "-0.1", "sigma_meas"),
        ],
    )
    def test_range_error_names_key(self, section, key, value, field):
        # the message opens with the one field at fault
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}\b"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[link]\nfiber_kilometres = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[turbo]\nx = 1\n")

    def test_malformed_number_names_key(self):
        with pytest.raises(ConfigError, match="bb84.mu"):
            parse_config("[bb84]\nmu = fast\n")

    def test_round_trip(self):
        config = parse_config(
            "[link]\nfiber_length_km = 35\np_out_dbm = 3.4\n"
            "[components]\nxi1_db = -40\nnsp_convention = exact\n"
            "[gmcs]\nconservative = true\nv_el = 0.1\n"
        )
        again = parse_config(serialize_config(config))
        assert again == config

    # the examples pin -inf dB isolation, gain_fixed unset and set, both n_sp
    # conventions, a non-unit window and a step that is no binary fraction
    @settings(max_examples=200, deadline=None)
    @given(config_documents())
    @example(
        {
            "components": {"xi1_db": -math.inf, "gain_fixed": "", "nsp_convention": "highgain"},
            "bb84": {"delta_t_ns": 0.3},
            "scenario": {"z_min_km": 16.0, "z_max_km": 16.1, "z_step_km": 0.01},
        }
    )
    @example({"components": {"xi2_db": -63.7, "gain_fixed": 250.5, "nsp_convention": "exact"}})
    def test_round_trip_over_valid_configs(self, doc):
        config = parse_config(render(doc))
        assert parse_config(serialize_config(config)) == config

    def test_default_config_is_the_dataclass_defaults(self):
        config = default_config()
        assert config.link == LinkParams()
        assert config.comp == ComponentParams()
        assert config.bb84 == Bb84Params()
        assert config.gmcs == GmcsParams()

    def test_accepted_keys_are_pinned(self):
        # serialize_config writes every key (gain_fixed only when it is set)
        # and parse_config takes each of them back
        config = parse_config("[components]\ngain_fixed = 200\n")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(serialize_config(config))
        written = {section: set(parser[section]) for section in parser.sections()}
        assert written == CONFIG_KEYS
        assert sum(len(keys) for keys in CONFIG_KEYS.values()) == 35

    def test_each_plain_key_parses_by_its_field_annotation(self):
        # the key table takes each parser from the type of the field's
        # default; a key named as its field parses as its annotation says
        by_hint = {float: float, int: int, bool: config._bool, typing.Optional[float]: config._optional_float}
        plain = 0
        for section, (_, cls) in config._SECTIONS.items():
            hints = typing.get_type_hints(cls)
            for key, (field, parse, _) in config._KEYS[section].items():
                if key == field:
                    assert parse is by_hint[hints[field]], (section, key)
                    plain += 1
        assert plain == 27

    def test_malformed_gain_fixed_names_key(self):
        with pytest.raises(ConfigError, match="components.gain_fixed"):
            parse_config("[components]\ngain_fixed = fast\n")

    def test_readme_example_parses(self):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        parse_config(blocks[0])

    def test_readme_library_example_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        package_root = pathlib.Path(config.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        result = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_round_trip_zero_isolation(self):
        config = parse_config("[components]\nxi1_db = -inf\nxi2_db = -inf\n")
        assert config.comp.xi1 == config.comp.xi2 == 0.0
        assert parse_config(serialize_config(config)) == config

    def test_non_finite_value_names_key(self):
        with pytest.raises(ConfigError, match="fiber_length_km"):
            parse_config("[link]\nfiber_length_km = nan\n")
        with pytest.raises(ConfigError, match="v_a"):
            parse_config("[gmcs]\nv_a = inf\n")

    @pytest.mark.parametrize(
        "text", ["fiber_length_km = -1", "fiber_length_km = 1e308", "alpha_db_per_km = 1e300"]
    )
    def test_unusable_distance_names_key(self, text):
        # the config's distance passes the one distance check at parse time
        with pytest.raises(ConfigError, match="fiber_length_km"):
            parse_config(f"[link]\n{text}\n")

    @pytest.mark.parametrize("value", ["-1", "-1e-9", "1.5"])
    def test_e0_outside_unit_interval_names_key(self, value):
        with pytest.raises(ConfigError, match="e0"):
            parse_config(f"[bb84]\ne0 = {value}\n")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_window_names_key(self, value):
        with pytest.raises(ConfigError, match="delta_t_s"):
            parse_config(f"[bb84]\ndelta_t_ns = {value}\n")

    @pytest.mark.parametrize(
        "section, key",
        [
            ("components", "xi1_db"),
            ("components", "xi2_db"),
            ("components", "nf_db"),
            ("link", "p_out_dbm"),
        ],
    )
    def test_overflowing_db_value_names_key(self, section, key):
        # 10 ** (4000 / 10) is beyond the largest float
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[{section}]\n{key} = 4000\n")

    @pytest.mark.parametrize("key", ["z_min_km", "z_max_km", "z_step_km"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_grid_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[scenario]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("z_step_km = 0", r"^scenario\.z_step_km: must be > 0, got 0\.0$"),
            ("z_min_km = -1", r"^scenario\.z_min_km: must be >= 0, got -1\.0$"),
            ("z_min_km = 90", r"^scenario\.z_max_km: must be >= z_min_km \(90\.0\), got 80\.0$"),
            ("z_max_km = -5", r"^scenario\.z_max_km: must be >= z_min_km \(0\.0\), got -5\.0$"),
        ],
    )
    def test_invalid_grid_names_its_key_and_value(self, line, message):
        # each bad key, against the defaults of the other two, has its own
        # message rather than one shared by all three keys
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[scenario]\n{line}\n")

    def test_grid_size_cap_checked_before_the_grid_is_built(self):
        # 0.5 km steps: (MAX_GRID_POINTS - 1) of them give exactly the cap,
        # one more step is over it; the grid is kept as its three values
        at_cap = (MAX_GRID_POINTS - 1) * 0.5
        config = parse_config(f"[scenario]\nz_max_km = {at_cap}\n")
        assert (config.z_min_km, config.z_max_km, config.z_step_km) == (0.0, at_cap, 0.5)
        with pytest.raises(ConfigError, match="z_step_km"):
            parse_config(f"[scenario]\nz_max_km = {at_cap + 0.5}\n")


class TestConfigGrammar:
    # configparser accepted each of these: [DEFAULT] keys were dropped, or
    # merged into every section, and text after a header's ] was ignored;
    # a value on the line below an empty one was joined to it
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[DEFAULT]\nmu = 0.3\n", r"^unknown section \[DEFAULT\]$"),
            ("[DEFAULT]\nmu = 0.3\n[bb84]\neta_bob = 0.05\n", r"^unknown section \[DEFAULT\]$"),
            ("[bb84] junk\nmu = 0.3\n", r"^malformed config: line 1: '\[bb84\] junk' is not a \[section\] header$"),
            ("[bb84]\nmu =\n  0.3\n", r"^malformed config: line 3: bb84.mu continues on an indented line$"),
        ],
    )
    def test_documents_configparser_read_are_rejected(self, text, message):
        assert parse_through_configparser(text)[0] is not None
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[bb84]\nmu 0.3\n", "line 2: no '=' or ':' in 'mu 0.3'"),
            ("[bb84]\n\n  = 0.3\n", "line 3: no key before '='"),
            ("# head\nmu = 0.3\n[bb84]\n", "line 2: key 'mu' before any [section] header"),
            ("[bb84]\nmu = 0.3\nMU: 0.4\n", "line 3: key bb84.mu repeated"),
            ("[gmcs]\n[bb84]\n[gmcs]\n", "line 3: section [gmcs] repeated"),
            ("[gmcs]\nv_a = 10\n  ; a comment\n\n   v_el = 0.1\n", "line 5: gmcs.v_a continues on an indented line"),
            # the indent is the line's leading whitespace, any Unicode space included
            ("[gmcs]\nv_a = 10\n\xa0v_el = 0.1\n", "line 3: gmcs.v_a continues on an indented line"),
            ("[gmcs]\n \tv_a = 10\n\t\xa0 v_el = 0.1\n", "line 3: gmcs.v_a continues on an indented line"),
        ],
    )
    def test_grammar_errors_name_their_line(self, text, message):
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == f"malformed config: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mu: 0.3=1", "bb84.mu: malformed value '0.3=1'"),
            ("mu = 0.3:1", "bb84.mu: malformed value '0.3:1'"),
            ("m:u = 0.3", "unknown key bb84.m"),
            ("m=u: 0.3", "unknown key bb84.m"),
        ],
    )
    def test_option_splits_at_its_first_delimiter(self, line, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"[bb84]\n{line}\n")

    def test_empty_unknown_section_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown section \[turbo\]$"):
            parse_config("[bb84]\nmu = 0.3\n[turbo]\n")

    def test_layouts_configparser_allows(self):
        text = "\r\n".join(
            ["; note", "  [bb84]", "  MU\t:\t0.3", "  # eta_bob = 1", "", "  Eta_Bob=0.05", "[gmcs]", "conservative: yes"]
        )
        config = parse_config(text)
        assert (config.bb84.mu, config.bb84.eta_bob, config.gmcs.conservative) == (0.3, 0.05, True)

    @settings(max_examples=400, deadline=None)
    @given(ini_documents())
    @example("[bb84]\nmu =\n  0.3\n[gmcs]\n")
    @example("\t[link]\r\n\tp_out_dbm: -3\r\n\r\n\t\t[gmcs]\r\n")
    def test_equals_configparser(self, text):
        # where configparser reads the document, the Config is the same;
        # where it or the checks after it reject the document, so does
        # parse_config. A value that configparser joins across lines is
        # the one reading that differs: it is rejected by name.
        expected, spans_lines = parse_through_configparser(text)
        if expected is None:
            with pytest.raises(ConfigError):
                parse_config(text)
        elif spans_lines:
            with pytest.raises(ConfigError, match="continues on an indented line"):
                parse_config(text)
        else:
            assert parse_config(text) == expected

    def test_cli_import_leaves_out_configparser(self):
        package_root = pathlib.Path(config.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        probe = "import sys, dwdm_qkd.cli; print('configparser' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "False\n"


    def test_cli_import_leaves_out_typing(self):
        # every annotation is a string, written with built-in generics and
        # X | None, so no module of the package imports typing; -S keeps out
        # site, which imports typing on some installs
        package_root = pathlib.Path(config.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        probe = "import sys, dwdm_qkd.cli; print('typing' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "False\n"


class TestOutput:
    def test_csv_shape(self):
        result = small_sweep()
        lines = sweep_to_csv(result).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(result.rows)
        assert lines[1].startswith("0,")

    @pytest.mark.parametrize("rows", [AWKWARD_ROWS, []], ids=["awkward", "empty"])
    def test_csv_matches_per_row_formatting(self, rows):
        # each line formatted on its own, the way the rows read to a person
        expected = [CSV_HEADER] + [",".join("%.9g" % v for v in row) for row in rows]
        assert sweep_to_csv(hand_sweep(rows)) == "\n".join(expected) + "\n"

    def test_csv_json_same_values(self):
        result = small_sweep()
        csv_rows = [
            line.split(",") for line in sweep_to_csv(result).strip().split("\n")[1:]
        ]
        doc = json.loads(sweep_to_json(result))
        keys = CSV_HEADER.split(",")
        for csv_row, json_row in zip(csv_rows, doc["rows"]):
            for key, cell in zip(keys, csv_row):
                assert float(cell) == json_row[key]

    def test_json_derived_scalars(self):
        doc = json.loads(sweep_to_json(small_sweep()))
        assert doc["scenario"] == "gmcs-38ch"
        assert 8 <= doc["secure_distance_km"] <= 12
        assert 4 <= doc["noise_crossover_km"] <= 9

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
    def test_json_matches_the_indent_encoder_on_builtins(self, name, strict):
        result = run_sweep(scenario_by_name(name), strict_eps_out=strict)
        assert sweep_to_json(result) == indent_encoder_json(result)

    @pytest.mark.parametrize(
        "result",
        [
            hand_sweep(AWKWARD_ROWS),
            hand_sweep(AWKWARD_ROWS, 'a "quoted" \\ back\\slash, Zürich λ→∞', -0.0, 1e-05),
            hand_sweep(AWKWARD_ROWS, "tab\tand newline\n", 1e16, 123456789012.0),
            hand_sweep([], "no rows"),
            # one cell among ordinary ones whose {:.9} text is not repr's:
            # 1.23456789e+08 is repr's 123456789.0, 4.94065646e-324 its 5e-324
            hand_sweep(ordinary_rows((1, 3, 123456789.0), (2, 5, 5e-324))),
            hand_sweep(ordinary_rows((1, 3, -1e15))),
            hand_sweep(ordinary_rows((2, 5, -2.5e-320))),
        ],
    )
    def test_json_matches_the_indent_encoder_on_hand_built_sweeps(self, result):
        text = sweep_to_json(result)
        assert text == indent_encoder_json(result)
        assert json.loads(text)["scenario"] == result.scenario

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324)
    @example(-2.225073858507201e-308)
    @example(1.7976931348623157e308)
    @example(999999999.5)
    @example(1e-5)
    @example(9.9999999995e-5)
    @example(1e8)
    @example(123456789.0)
    @example(99999999.95)
    @example(1e15)
    @example(1e16)
    def test_json_number_is_the_repr_of_the_9_digit_value(self, x):
        # every value of a row is written as json.dumps writes the value
        # rounded to 9 significant digits
        text = sweep_to_json(hand_sweep([(x,) * 8]))
        row = text.split('"rows": [\n', 1)[1].split("\n  ],", 1)[0]
        written = [line.split(": ", 1)[1].rstrip(",") for line in row.splitlines() if ": " in line]
        assert written == [repr(float("%.9g" % x))] * 8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", CSV_HEADER.split(","))
    def test_non_finite_row_value_is_named_by_both_writers(self, field, bad):
        values = list(AWKWARD_ROWS[1])
        values[CSV_HEADER.split(",").index(field)] = bad
        result = hand_sweep([AWKWARD_ROWS[0], values, AWKWARD_ROWS[2]])
        # the message names the offending row by its own z_km
        row = re.escape(f"{field} of the row at z_km = {values[0]} = {bad} ")
        for writer in (sweep_to_csv, sweep_to_json):
            with pytest.raises(DomainError, match=rf"^{row}cannot be written"):
                writer(result)

    @pytest.mark.parametrize("field", ["secure_distance_km", "noise_crossover_km"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scalar_is_named(self, field, bad):
        result = hand_sweep(AWKWARD_ROWS, noise_crossover_km=5.0).replace(**{field: bad})
        with pytest.raises(DomainError, match=rf"^{field} = "):
            sweep_to_json(result)

    def test_emit_to_file_and_determinism(self, tmp_path):
        result = small_sweep()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(result, "csv", str(p1))
        emit(result, "csv", str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        with pytest.raises(ValueError):
            emit(result, "xml", str(p1))


# the values of a point document: finite floats, the awkward ones among
# them, and the other scalars json.dumps writes
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 3.0, 123456789.0]
)
JSON_SCALARS = JSON_FLOATS | st.integers() | st.booleans() | st.none() | st.text()
POINT_DOCUMENTS = st.dictionaries(
    st.text(max_size=12), JSON_SCALARS | st.lists(JSON_FLOATS, max_size=5) | st.lists(st.text(), max_size=5), max_size=12
) | st.lists(st.text(), max_size=8)

FIT = ["fit-beta", "--delta-lambda-nm", "0.6"]
POINT_COMMANDS = [
    ["noise", "--z", "20"],
    ["bb84", "--z", "20"],
    ["bb84", "--z", "20", "--mu", "0.5"],
    ["gmcs", "--z", "10"],
    ["--conservative", "--strict-eps-out", "gmcs", "--z", "0"],
    FIT + ["--p-out-dbm", "0", "--point", "20:1e-10", "--point", "40:2.1e-10"],
    ["--format", "json", "scenarios"],
]


class TestPointJson:
    @settings(max_examples=150, deadline=None)
    @given(POINT_DOCUMENTS)
    @example({"z_km": -0.0, "a": 5e-324, "b": 1e16, "c": 1e-7, "d": 2.0, "e": 1e8})
    @example({'a "quoted" \\ key': 'a "quoted" \\ back\\slash, Zürich λ→∞\n', "n": None, "t": True, "f": False, "i": -3})
    @example({"sigma": [], "names": ["x", "y"], "values": [1.0, -0.0, 5e-324]})
    @example({})
    @example([])
    @example(["gmcs-38ch", "bb84-0dBm"])
    def test_equals_the_indent_encoder(self, doc):
        assert point_to_json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "doc, name",
        [
            (lambda bad: {"z_km": 1.0, "rate": bad}, "rate"),
            (lambda bad: {"rate": 0.0, "sigma": [1.0, bad]}, "sigma[1]"),
            (lambda bad: [1.0, bad], "[1]"),
        ],
        ids=["value", "list-item", "top-level-item"],
    )
    def test_non_finite_number_is_named(self, doc, name, bad):
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} = {bad} cannot be written: it must be finite$"):
            point_to_json(doc(bad))

    @pytest.mark.parametrize("argv", POINT_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_point_commands_print_the_indent_encoders_text(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out, parse_constant=pytest.fail)
        assert captured.out == json.dumps(doc, indent=2) + "\n"

    def test_non_finite_point_value_is_an_error_line(self, monkeypatch, capsys):
        # json.dumps would have printed NaN; the writer refuses it and names the key
        monkeypatch.setattr(scenarios, "gmcs_point", lambda *args: GmcsPoint(0.1, 1.0, 0.5, math.nan, (2.0,) * 4))
        assert main(["gmcs", "--z", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rate = nan cannot be written: it must be finite\n"


class TestCli:
    def test_scenarios_lists_builtins(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 7 and "gmcs-38ch" in out

    def test_noise_point(self, capsys):
        assert main(["noise", "--z", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_spd_window"] == pytest.approx(0.345, abs=0.01)

    def test_bb84_multiplexed_zero(self, capsys):
        assert main(["bb84", "--z", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rate"] == 0.0

    @pytest.mark.parametrize("mu_args, mu_grid", [(["--mu", "0.3"], (0.3,)), ([], DEFAULT_MU_GRID)])
    def test_bb84_point_runs_the_mu_scan(self, mu_args, mu_grid, monkeypatch, capsys):
        # with or without --mu, the point comes from evaluate's mu scan, and
        # --mu fixes the scan's grid to (mu,)
        grids = []
        scan = scenarios.optimize_mu

        def recorder(eta_ch, comp, params, budget, mu_grid=DEFAULT_MU_GRID):
            grids.append(mu_grid)
            return scan(eta_ch, comp, params, budget, mu_grid)

        monkeypatch.setattr(scenarios, "optimize_mu", recorder)
        assert main(["bb84", "--z", "20", *mu_args]) == 0
        assert grids == [mu_grid]
        assert json.loads(capsys.readouterr().out)["mu"] == mu_grid[0]

    def test_gmcs_positive_at_zero_distance(self, capsys):
        assert main(["gmcs", "--z", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rate"] > 0

    def test_gmcs_conservative_flag_lowers_rate(self, capsys):
        main(["gmcs", "--z", "10"])
        plain = json.loads(capsys.readouterr().out)
        main(["--conservative", "gmcs", "--z", "10"])
        padded = json.loads(capsys.readouterr().out)
        assert padded["rate"] < plain["rate"]

    def test_sweep_csv_and_json(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["--format", "json", "--out", str(out), "sweep", "--scenario", "gmcs-38ch"]) == 0
        doc = json.loads(out.read_text())
        assert 8 <= doc["secure_distance_km"] <= 12

    def test_sweep_bb84_all_zero_rates(self, capsys):
        assert main(["sweep", "--scenario", "bb84-0dBm"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines)

    def test_unknown_scenario_errors(self, capsys):
        assert main(["sweep", "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_scenario_error_line_is_unquoted(self, capsys):
        assert main(["sweep", "--scenario", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown scenario 'nope'; known scenarios: "
            + ", ".join(s.name for s in builtin_scenarios())
            + "\n"
        )

    @pytest.mark.parametrize("command", ["noise", "bb84", "gmcs"])
    @pytest.mark.parametrize(
        "text, value",
        [
            ("lambda_quantum_nm = -10\nlambda_classical_nm = -5\n", "-10.0"),
            ("lambda_quantum_nm = -10\nlambda_classical_nm = -5\nclassical_channel_count = 0\n", "-10.0"),
            ("lambda_quantum_nm = 0\n", "0.0"),
        ],
    )
    def test_non_positive_wavelength_is_an_error_line(self, command, text, value, tmp_path, capsys):
        cfg = tmp_path / "wavelength.cfg"
        cfg.write_text("[link]\n" + text)
        assert main(["--config", str(cfg), command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lambda_quantum_nm must be positive, got {value}\n"

    @pytest.mark.parametrize("command", ["noise", "bb84", "gmcs"])
    @pytest.mark.parametrize(
        "text, message",
        [
            # cubing 1e291 m in the SASRS prefactor leaves the float range
            ("lambda_quantum_nm = 1e300\nlambda_classical_nm = 2e300\n", "lambda_quantum_nm = 1e+300 overflows"),
            # h*c / 1e299 m rounds to a zero photon energy
            ("lambda_classical_nm = 1e308\n", "lambda_classical_nm = 1e+308 makes the photon energy underflow"),
        ],
    )
    def test_huge_wavelength_is_an_error_line(self, command, text, message, tmp_path, capsys):
        cfg = tmp_path / "wavelength.cfg"
        cfg.write_text("[link]\n" + text)
        assert main(["--config", str(cfg), command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["noise", "bb84", "gmcs"])
    def test_zero_window_is_an_error_line(self, command, tmp_path, capsys):
        # gmcs reads no gating window, but the config that sets one is invalid
        cfg = tmp_path / "window.cfg"
        cfg.write_text("[bb84]\ndelta_t_ns = 0\n")
        assert main(["--config", str(cfg), command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: delta_t_s must be positive, got 0.0\n"

    @pytest.mark.parametrize("command", ["noise", "bb84", "gmcs"])
    @pytest.mark.parametrize(
        "text, message",
        [
            # parses, but n_sp = NF/2 < 1 wherever the amplifier has gain
            (
                "nf_db = 2.0\n",
                "nf_db = 2.0 gives n_sp = 0.792447 < 1 (NF/2, nsp_convention = highgain); "
                "n_sp must be >= 1, the spontaneous-emission limit",
            ),
            ("xi1_db = 10\n", "xi1 must be in [0, 1], got 10.0"),
        ],
    )
    def test_component_error_line_names_its_key(self, command, text, message, tmp_path, capsys):
        cfg = tmp_path / "components.cfg"
        cfg.write_text("[components]\n" + text)
        assert main(["--config", str(cfg), command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("[link]\nclassical_channel_count = 0\n")
        assert main(["--config", str(cfg), "noise", "--z", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_spd_window"] == 0.0

    def test_zero_gain_bb84_point_is_the_point_builders(self, tmp_path, capsys):
        # no classical channel and no intrinsic background: at 800 km
        # exp(-eta*mu) rounds to 1.0, so Q_mu is 0 at every mu, no bound
        # set can be formed and the row scans; the point printed is
        # bb84_point_from_rates' at the reported mu
        cfg = tmp_path / "quiet.cfg"
        cfg.write_text("[link]\nclassical_channel_count = 0\n[bb84]\ny0_base = 0\n")
        assert main(["--config", str(cfg), "bb84", "--z", "800"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        link, comp, params = LinkParams(classical_channel_count=0), ComponentParams(), Bb84Params(y0_base=0.0)
        eta_ch, budget = NoiseModel(link, comp, params.delta_t_s).at(800.0)
        eta = eta_ch * comp.eta_dmu * params.eta_bob
        y0 = background_rate(params.y0_base, params.eta_bob, budget.n_spd_window)
        point = bb84_point_from_rates(eta, y0, params, doc["mu"])
        assert doc == {
            "protocol": "BB84",
            "mu": doc["mu"],
            "z_km": 800.0,
            **{k: round9(v) for k, v in point.as_dict().items()},
        }

    def test_tiny_modulation_variance_gmcs_point(self, tmp_path, capsys):
        # the CI smoke case: V^2 - 1 formed as v*v - 1 with v = v_a + 1
        # loses a v_a of 1e-16, and the conditional discriminant came out
        # negative beyond tolerance; the point is valid and nearly pure
        cfg = tmp_path / "tiny-va.cfg"
        cfg.write_text(
            "[link]\nclassical_channel_count = 0\n"
            "[gmcs]\nv_a = 1.1800387557218664e-16\nv_el = 0\neta_bob = 0.9\neps0 = 1e-27\n"
        )
        assert main(["--config", str(cfg), "gmcs", "--z", "3e-11"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert doc["protocol"] == "GMCS"
        assert doc["sigma"] == [1.0, 1.0, 1.0, 1.0]
        assert doc["rate"] > 0

    def test_bad_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[link]\nwarp_factor = 9\n")
        assert main(["--config", str(cfg), "noise", "--z", "20"]) == 1

    def test_non_utf8_config_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        # the offset counts bytes from the file's start, with its \r\n line ends
        data = b"[link]\r\nalpha_db_per_km = 0.2\xff\r\n"
        cfg.write_bytes(data)
        assert main(["--config", str(cfg), "noise"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert data.index(b"\xff") == 29
        assert captured.err == f"error: {cfg}: not UTF-8: byte 0xff at offset 29\n"

    def test_fit_beta(self, capsys):
        # synthetic powers generated from beta = 2.85e-9 at P_out = 4 dBm
        p_out = 1e-3 * 10 ** 0.4
        pts = [f"{z}:{p_out * 2.85e-9 * z * 0.6}" for z in (20, 40)]
        args = ["fit-beta", "--p-out-dbm", "4", "--delta-lambda-nm", "0.6"]
        for p in pts:
            args += ["--point", p]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta_raman"] == pytest.approx(2.85e-9, rel=1e-6)

    def test_negative_exponent_is_a_flag_value(self, capsys):
        # "--p-out-dbm -1e-1" reads as "--p-out-dbm=-1e-1" and as "-0.1"
        args = FIT + ["--point", "20:1e-10"]
        flags = (["--p-out-dbm", "-1e-1"], ["--p-out-dbm=-1e-1"], ["--p-out-dbm", "-0.1"])
        outs = [run_main(args + flag, capsys) for flag in flags]
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][0] == 0 and json.loads(outs[0][1])["beta_raman"] == 8.5274416e-09

    @pytest.mark.parametrize(
        "argv",
        [
            ["gmcs", "--z", "inf"],
            ["bb84", "--z", "inf"],
            ["noise", "--z", "inf"],
            ["noise", "--z", "nan"],
            ["gmcs", "--z", "1e308"],
            ["noise", "--z", "1e308"],
            ["bb84", "--z", "1e308"],
            ["--config", "{nan_config}", "noise", "--z", "20"],
            FIT + ["--p-out-dbm", "4000", "--point", "20:1e-10"],
            FIT + ["--p-out-dbm", "0", "--insertion-loss-db", "-4000", "--point", "20:1e-10"],
            FIT + ["--p-out-dbm", "0", "--point", "20:nan"],
            ["bb84", "--z", "20", "--mu", "-1"],
            ["bb84", "--z", "20", "--mu", "nan"],
            ["bb84", "--z", "20", "--mu", "inf"],
            ["bb84", "--z", "20", "--mu", "0"],
            # a negative number in exponent form, or -inf, is a flag's value
            ["noise", "--z", "-1e-3"],
            ["gmcs", "--z", "-inf"],
            ["bb84", "--z", "20", "--mu", "-1e-1"],
            # the GMCS-only flags outside gmcs and a GMCS sweep
            ["--conservative", "bb84"],
            ["--strict-eps-out", "noise"],
            ["--conservative", "sweep", "--scenario", "bb84-0dBm"],
            # commands that read no config reject --config, as sweep does
            ["--config", "/nonexistent", "scenarios"],
            ["--config", "/nonexistent"] + FIT + ["--p-out-dbm", "0", "--point", "20:1e-10"],
            # the exact fit, 1e10 / (1e-3 * 0.6 * 1e-300) = 1.7e313, overflows
            FIT + ["--p-out-dbm", "0", "--point", "1e-300:1e10"],
        ],
    )
    def test_bad_input_is_an_error_line(self, argv, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("[link]\nfiber_length_km = nan\n")
        argv = [a.format(nan_config=cfg) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gmcs", "--z", "14700"],
            ["gmcs", "--z", "14800"],
            ["noise", "--z", "14800"],
            ["bb84", "--z", "14800"],
        ],
    )
    def test_long_link_overflow_is_an_error_line(self, argv, capsys):
        # representable transmittances whose noise budget (gain_g0 / eta_ch
        # past ~14,600 km) leaves the float range
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("z", ["7400", "10000", "14500"])
    def test_long_gmcs_link_is_a_zero_rate_point(self, z, capsys):
        # 1 / eta_ch squared leaves the float range past ~7,300 km, but no
        # GMCS term squares it
        assert main(["gmcs", "--z", z]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out, parse_constant=pytest.fail)
        assert doc["z_km"] == float(z) and doc["rate"] == 0.0

    def test_point_commands_echo_the_same_distance(self, capsys):
        # the distance is echoed as given, past round9's 9 digits
        echoed = []
        for command in ("noise", "bb84", "gmcs"):
            assert main([command, "--z", "12.3456789012"]) == 0
            echoed.append(json.loads(capsys.readouterr().out)["z_km"])
        assert echoed == [12.3456789012] * 3

    def test_bb84_rounds_the_mu_it_echoes(self, capsys):
        # --mu is rounded to 9 digits, as every printed number but z_km is
        assert main(["bb84", "--z", "20", "--mu", "0.123456789012"]) == 0
        assert json.loads(capsys.readouterr().out)["mu"] == 0.123456789

    def test_physicality_error_is_an_error_line(self, monkeypatch, capsys):
        def unphysical(*args, **kwargs):
            raise PhysicalityError("negative discriminant for channel spectrum: -1.0")

        monkeypatch.setattr(scenarios, "gmcs_point", unphysical)
        assert main(["gmcs", "--z", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: negative discriminant")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (FIT + ["--p-out-dbm", "4000", "--point", "20:1e-10"], "--p-out-dbm"),
            (FIT + ["--p-out-dbm", "nan", "--point", "20:1e-10"], "--p-out-dbm must be finite"),
            (FIT + ["--p-out-dbm", "inf", "--point", "20:1e-10"], "--p-out-dbm must be finite"),
            (FIT + ["--p-out-dbm", "0", "--insertion-loss-db", "-4000", "--point", "20:1e-10"], "insertion_loss_db"),
            (FIT + ["--p-out-dbm", "0", "--point", "20:nan"], "measurement point"),
            # a negative power would fit a negative beta, and a negative
            # distance would be dropped while still counted in "points"
            (FIT + ["--p-out-dbm", "0", "--point", "10:-1e-9"], "error: measurement point 10.0 km: -1e-09 W "),
            (FIT + ["--p-out-dbm", "0", "--point=-10:1e-9", "--point", "10:1e-12"], "error: measurement point -10.0 km: "),
            # the error line names the flag that was typed
            (["bb84", "--z", "20", "--mu", "-1"], "error: --mu must be finite and > 0, got -1.0\n"),
            (["bb84", "--z", "20", "--mu", "nan"], "error: --mu must be finite and > 0, got nan\n"),
            (["bb84", "--z", "20", "--mu", "inf"], "error: --mu must be finite and > 0, got inf\n"),
            (["bb84", "--z", "20", "--mu", "0"], "error: --mu must be finite and > 0, got 0.0\n"),
            # argparse's own negative-number pattern reads these as a missing value
            (["bb84", "--z", "20", "--mu", "-1e-1"], "error: --mu must be finite and > 0, got -0.1\n"),
            (["noise", "--z", "-1e-3"], "error: z_km must be finite and >= 0, got -0.001\n"),
            (["gmcs", "--z", "-inf"], "error: z_km must be finite and >= 0, got -inf\n"),
            (FIT + ["--p-out-dbm", "-inf", "--point", "20:1e-10"], "--p-out-dbm must be finite"),
            # 10 ** (-400) underflows the insertion-loss factor to 0
            (FIT + ["--p-out-dbm", "0", "--insertion-loss-db", "4000", "--point", "20:1e-10"], "insertion_loss_db"),
            (["fit-beta", "--p-out-dbm", "0", "--delta-lambda-nm", "0", "--point", "20:1e-10"], "delta_lambda_nm"),
            # 1e-303 W times 1e-30 nm: the exact fit, 1e-10 * 20 / (1e-333 * 400) = 5e321, overflows
            (
                ["fit-beta", "--p-out-dbm", "-3000", "--delta-lambda-nm", "1e-30", "--point", "20:1e-10"],
                "error: the fitted Raman coefficient overflows a float\n",
            ),
            # 1e-3 * 10 ** (-400) underflows to 0 W
            (FIT + ["--p-out-dbm", "-4000", "--point", "20:1e-10"], "--p-out-dbm"),
        ],
    )
    def test_bad_fit_and_mu_inputs_are_named(self, argv, name, capsys):
        assert main(argv) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text, argv, message",
        [
            ("[DEFAULT]\nmu = 0.3\n", ["bb84"], "error: unknown section [DEFAULT]\n"),
            (
                "[bb84] junk\nmu = 0.3\n",
                ["bb84"],
                "error: malformed config: line 1: '[bb84] junk' is not a [section] header\n",
            ),
            ("[scenario]\nz_step_km = 0\n", ["noise"], "error: scenario.z_step_km: must be > 0, got 0.0\n"),
            (
                None,
                ["fit-beta", "--p-out-dbm", "nan", "--delta-lambda-nm", "0.6", "--point", "20:1e-10"],
                "error: --p-out-dbm must be finite, got nan\n",
            ),
            (
                None,
                ["fit-beta", "--p-out-dbm", "0", "--delta-lambda-nm", "1", "--point", "10:-1e-9"],
                "error: measurement point 10.0 km: -1e-09 W must be finite and >= 0\n",
            ),
            (None, FIT + ["--p-out-dbm", "0", "--point", "1e-300:1e10"], "error: the fitted Raman coefficient overflows a float\n"),
        ],
    )
    def test_smoke_step_error_lines(self, config_text, argv, message, tmp_path, capsys):
        # the CI smoke step's exit-1 cases that no other test runs through
        # main: each exits 1 with one error line, which holds the text the
        # step greps for
        if config_text is not None:
            cfg = tmp_path / "smoke.cfg"
            cfg.write_text(config_text)
            argv = ["--config", str(cfg), *argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize(
        "p_out_dbm, delta_lambda_nm, point, line",
        [
            # z * z underflows to 0
            ("0", "0.6", "1e-200:1e-12", '  "beta_raman": 1.66666667e+191,'),
            # z * z overflows
            ("0", "0.6", "1e200:1e-12", '  "beta_raman": 1.66666667e-209,'),
            # sum z^2 = 1e200 times the scale 1e197 W*nm overflows
            ("2000", "1", "1e100:1e100", '  "beta_raman": 1e-197,'),
            # p * z overflows
            ("0", "0.6", "1e154:1e160", '  "beta_raman": 1666666670.0,'),
            # z * z underflows and the power is 0
            ("0", "0.6", "1e-200:0", '  "beta_raman": 0.0,'),
            # the scale times z^2, 6e-4 * 6.1e-312, is subnormal
            ("0", "0.6", "2.47e-156:1.2e-15", '  "beta_raman": 8.09716599e+143,'),
        ],
    )
    def test_smoke_step_fit_values(self, p_out_dbm, delta_lambda_nm, point, line, capsys):
        # the CI smoke step's fits past the range of the fit's sums: each
        # exits 0 and prints the exact fit, rounded to 9 digits, on the line
        # the step greps for
        argv = ["fit-beta", "--p-out-dbm", p_out_dbm, "--delta-lambda-nm", delta_lambda_nm, "--point", point]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "") and line in out.splitlines()
        z, p = (Fraction(float(x)) for x in point.split(":"))
        exact = p * z / (Fraction(1e-3 * 10 ** (float(p_out_dbm) / 10)) * Fraction(float(delta_lambda_nm)) * z * z)
        assert json.loads(out)["beta_raman"] == round9(float(exact))

    def test_near_pure_gmcs_point(self, tmp_path, capsys):
        # no classical channel, eps0 = 1e-8 and a noiseless detector at 0 km:
        # every symplectic eigenvalue lies within 1e-7 of 1
        cfg = tmp_path / "pure.cfg"
        cfg.write_text("[link]\nclassical_channel_count = 0\n[gmcs]\neps0 = 1e-8\nv_el = 0\n")
        assert main(["--config", str(cfg), "gmcs", "--z", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(1 <= s < 1 + 1e-7 for s in doc["sigma"])

    @pytest.mark.parametrize("command", ["noise", "bb84", "gmcs"])
    def test_config_distance_is_the_default_z(self, command, tmp_path, capsys):
        # [link] fiber_length_km is the distance when --z is absent (20 km
        # without a config), and --z overrides it
        cfg = tmp_path / "far.cfg"
        cfg.write_text("[link]\nfiber_length_km = 35\n")

        def out(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        far = ["--config", str(cfg), command]
        at_35 = out(far)
        assert at_35 == out(far + ["--z", "35"]) == out([command, "--z", "35"])
        at_20 = out([command])
        assert at_20 == out([command, "--z", "20"]) == out(far + ["--z", "20"]) != at_35

    def test_sweep_rejects_config(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("[link]\nclassical_channel_count = 2\n")
        assert main(["--config", str(cfg), "sweep", "--scenario", "gmcs-38ch"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_sweep_honours_conservative(self, capsys):
        distances = []
        for flags in ([], ["--conservative"]):
            assert main(flags + ["--format", "json", "sweep", "--scenario", "gmcs-38ch"]) == 0
            distances.append(json.loads(capsys.readouterr().out)["secure_distance_km"])
        plain, conservative = distances
        assert 0 < conservative < plain

    @pytest.mark.parametrize("z", [0.0, 12.5, 20.0])
    def test_points_equal_the_builtin_sweep_rows(self, z, capsys):
        # without a config, noise and gmcs evaluate gmcs-1ch-nonadj and bb84
        # evaluates bb84-0dBm, so each equals the sweep row at 9 digits
        def g(x):
            return float(format(x, ".9g"))

        def row(name):
            (found,) = [r for r in run_sweep(scenario_by_name(name)).rows if r.z_km == z]
            return found

        def point(command):
            assert main([command, "--z", repr(z)]) == 0
            return json.loads(capsys.readouterr().out)

        gmcs_row, bb84_row = row("gmcs-1ch-nonadj"), row("bb84-0dBm")
        noise = point("noise")
        for key, value in gmcs_row.budget.as_dict().items():
            assert noise[key] == g(value), key
        gmcs = point("gmcs")
        for key in ("eps", "i_ab", "chi_be", "rate"):
            assert gmcs[key] == g(getattr(gmcs_row.point, key)), key
        assert gmcs["eps_in"] == g(gmcs_row.budget.eps_in)
        assert gmcs["eps_out"] == g(gmcs_row.budget.eps_out)
        bb84 = point("bb84")
        assert bb84["mu"] == bb84_row.mu
        for key, value in bb84_row.point.as_dict().items():
            assert bb84[key] == g(value), key

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])  # missing --scenario
        assert exc.value.code == 2


@pytest.fixture
def fresh_caches():
    # the parser and the default config are built once per process
    cli.build_parser.cache_clear()
    config.default_config.cache_clear()
    yield
    cli.build_parser.cache_clear()
    config.default_config.cache_clear()


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


POINTS = [f"--point={z}:{z * 1e-11}" for z in (10, 20, 40)]


class TestRepeatedMain:
    @pytest.mark.parametrize(
        "sequence",
        [
            [["gmcs", "--z", "5"], ["gmcs"]],
            [["--conservative", "gmcs", "--z", "5"], ["gmcs", "--z", "5"]],
            [FIT + ["--p-out-dbm", "4"] + POINTS, FIT + ["--p-out-dbm", "4", POINTS[0]]],
            [["gmcs", "--z", "far"], ["gmcs", "--z", "5"]],
            [["--config", "{config}", "noise"], ["noise"]],
        ],
    )
    def test_calls_carry_no_state(self, sequence, fresh_caches, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("[link]\nclassical_channel_count = 0\nfiber_length_km = 35\n")
        sequence = [[a.format(config=cfg) for a in argv] for argv in sequence]
        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            config.default_config.cache_clear()
            alone.append(run_main(argv, capsys))
        assert [run_main(argv, capsys) for argv in sequence] == alone
        assert alone[0] != alone[1]

    def test_later_calls_fall_back_to_their_own_defaults(self, fresh_caches, capsys):
        run_main(["gmcs", "--z", "5"], capsys)
        assert json.loads(run_main(["gmcs"], capsys)[1])["z_km"] == default_config().z_km
        run_main(FIT + ["--p-out-dbm", "4"] + POINTS, capsys)
        assert json.loads(run_main(FIT + ["--p-out-dbm", "4", POINTS[0]], capsys)[1])["points"] == 1

    def test_parser_and_default_config_built_once(self, fresh_caches, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        parsed_empty = []
        parse = config.parse_config

        def counting_parse(text):
            if text == "":
                parsed_empty.append(text)
            return parse(text)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(config, "parse_config", counting_parse)
        for argv in (["noise"], ["gmcs", "--z", "5"], ["bb84", "--z", "30"], ["scenarios"], ["noise", "--z", "9"]):
            assert run_main(argv, capsys)[0] == 0
        # the top-level parser and each subparser, once
        assert built.count("dwdm-qkd") == 1 and len(built) == len(set(built))
        assert len(parsed_empty) == 1
