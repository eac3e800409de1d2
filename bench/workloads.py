"""The three workloads: their inputs, made from a seed, and their operations.

Every operation calls the program through a module attribute looked up at
call time, so that the traced run sees the wrapped functions.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field

from dwdm_qkd import cli, output, scenarios

WORKLOADS = ("bb84-sweeps", "gmcs-sweeps", "cli-points")
BB84_SCENARIOS = ("fig3-noise", "bb84-0dBm")
GMCS_SCENARIOS = ("gmcs-none", "gmcs-1ch-nonadj", "gmcs-1ch-adj", "gmcs-38ch", "gmcs-1ch-100MHz-detector")


@dataclass
class Op:
    label: str
    call: object  # () -> outcome
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    rng: random.Random

    def next_round(self) -> list:
        """Every operation once, in a seeded order."""
        order = list(self.ops)
        self.rng.shuffle(order)
        return order


def _sweep(scenario, fmt: str):
    result = scenarios.run_sweep(scenario)
    text = output.sweep_to_csv(result) if fmt == "csv" else output.sweep_to_json(result)
    return result, text


def _cli(argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught error is the outcome under test
        code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _sweep_ops(names, fmt):
    by_name = {s.name: s for s in scenarios.builtin_scenarios()}
    return [
        Op(name, (lambda sc=by_name[name]: _sweep(sc, fmt)), {"scenario": by_name[name]})
        for name in names
    ]


def _config_text(rng: random.Random, gain_fixed: bool) -> str:
    """A config that sets a key in every section, with seeded values."""
    pick = lambda lo, hi, nd=3: round(rng.uniform(lo, hi), nd)  # noqa: E731
    components = [
        f"nf_db = {pick(4.5, 6.5)}",
        f"gain_g0 = {pick(50, 150, 1)}",
        f"xi1_db = {pick(-85, -60, 1)}",
        f"xi2_db = {pick(-85, -60, 1)}",
        f"eta_mux = {pick(0.6, 0.8)}",
        f"eta_dmu = {pick(0.6, 0.8)}",
        "delta_nu_hz = 75e9",
        f"nsp_convention = {rng.choice(['highgain', 'exact'])}",
    ]
    if gain_fixed:
        components.append(f"gain_fixed = {pick(100, 5000, 1)}")
    return "\n".join(
        [
            "[link]",
            f"fiber_length_km = {pick(1, 80)}",
            f"alpha_db_per_km = {pick(0.18, 0.24)}",
            f"beta_raman = {pick(2.0, 5.0)}e-9",
            f"classical_channel_count = {rng.randint(1, 40)}",
            f"p_out_dbm = {pick(-6, 0, 2)}",
            "lambda_quantum_nm = 1550.0",
            f"lambda_classical_nm = {rng.choice(['1550.8', '1551.6', '1552.4'])}",
            "",
            "[components]",
            *components,
            "",
            "[bb84]",
            f"mu = {pick(0.1, 0.9)}",
            f"y0_base = {pick(1, 9, 2)}e-6",
            f"e_det = {pick(0.001, 0.02, 4)}",
            "e0 = 0.5",
            f"eta_bob = {pick(0.02, 0.1)}",
            f"f_ec = {pick(1.05, 1.3)}",
            f"delta_t_ns = {pick(0.5, 2.0)}",
            "",
            "[gmcs]",
            f"v_a = {pick(5, 20, 2)}",
            f"eta_bob = {pick(0.5, 0.7)}",
            f"eps0 = {pick(0.005, 0.02, 4)}",
            f"v_el = {pick(0.005, 0.05, 4)}",
            f"gamma = {pick(0.85, 0.95)}",
            "n_lo = 1e8",
            f"detector_bandwidth_hz = {rng.choice(['1e6', '1e7', '1e8'])}",
            f"sigma_meas = {pick(0.01, 0.03, 4)}",
            f"conservative = {rng.choice(['true', 'false'])}",
            "",
            "[scenario]",
            "z_min_km = 0",
            "z_max_km = 80",
            "z_step_km = 0.5",
            "",
        ]
    )


ZERO_CHANNEL_CONFIG = "[link]\nclassical_channel_count = 0\n"


def _cli_ops(rng: random.Random, workdir: str):
    paths = {}
    for key, text in (
        ("A", _config_text(rng, gain_fixed=False)),
        ("B", _config_text(rng, gain_fixed=True)),
        ("zero", ZERO_CHANNEL_CONFIG),
    ):
        paths[key] = os.path.join(workdir, f"config-{key}.ini")
        with open(paths[key], "w", encoding="utf-8") as handle:
            handle.write(text)

    z = lambda: repr(round(rng.uniform(0.0, 80.0), 3))  # noqa: E731
    mu = lambda: repr(round(rng.uniform(0.05, 1.0), 3))  # noqa: E731
    a, b = ["--config", paths["A"]], ["--config", paths["B"]]

    beta = round(rng.uniform(1.0, 6.0), 4) * 1e-9
    p_dbm = rng.choice([-3.0, 0.0, 2.0, 4.0])
    dlam = rng.choice([0.2, 0.6, 1.0])
    il = round(rng.uniform(0.0, 3.0), 2)
    scale = 1e-3 * 10 ** (p_dbm / 10) * dlam * 10 ** (-il / 10)
    fit = ["fit-beta", "--p-out-dbm", repr(p_dbm), "--delta-lambda-nm", repr(dlam), "--insertion-loss-db", repr(il)]
    for zk in sorted(rng.sample(range(5, 81, 5), 3)):
        fit += ["--point", f"{zk}:{scale * beta * zk!r}"]

    specs = [
        # (argv, checks) — "default" marks a point computed with the built-in defaults
        (["noise", "--z", z()], {"kind": "noise", "default": True}),
        (["bb84", "--z", z()], {"kind": "bb84"}),
        (["bb84", "--z", z(), "--mu", mu()], {"kind": "bb84"}),
        (["gmcs", "--z", z()], {"kind": "gmcs", "default": True}),
        (["--conservative", "gmcs", "--z", z()], {"kind": "gmcs", "default": True, "conservative": True}),
        (["--strict-eps-out", "gmcs", "--z", z()], {"kind": "gmcs", "default": True, "strict": True}),
        (a + ["noise", "--z", z()], {"kind": "noise"}),
        (b + ["noise", "--z", z()], {"kind": "noise"}),
        (a + ["bb84", "--z", z()], {"kind": "bb84"}),
        (b + ["bb84", "--z", z(), "--mu", mu()], {"kind": "bb84"}),
        (a + ["gmcs", "--z", z()], {"kind": "gmcs"}),
        (b + ["--conservative", "--strict-eps-out", "gmcs", "--z", z()], {"kind": "gmcs"}),
        (fit, {"kind": "fit-beta", "beta": beta}),
        (["scenarios"], {"kind": "scenarios"}),
        (["--format", "json", "scenarios"], {"kind": "scenarios-json"}),
        (["bb84", "--z", "20"], {"kind": "bb84", "rate": "zero"}),
        (["--config", paths["zero"], "bb84", "--z", "20"], {"kind": "bb84", "rate": "positive"}),
        # known faults: a correct run exits 1 with an error line and no stdout
        (["gmcs", "--z", "inf"], {"kind": "error"}),
        (["noise", "--z", "nan"], {"kind": "error"}),
    ]
    return [Op(" ".join(argv), (lambda argv=argv: _cli(argv)), meta) for argv, meta in specs]


def build(name: str, seed: int, workdir: str) -> Workload:
    """Inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if name == "bb84-sweeps":
        ops = _sweep_ops(BB84_SCENARIOS, "csv")
    elif name == "gmcs-sweeps":
        ops = _sweep_ops(GMCS_SCENARIOS, "json")
    elif name == "cli-points":
        ops = _cli_ops(rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return Workload(name, ops, rng)
