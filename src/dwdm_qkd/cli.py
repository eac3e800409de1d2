"""Command-line interface: point computations, sweeps and the Raman fit."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import List, Optional

from .bb84 import bb84_point
from .config import Config, ConfigError, default_config, parse_config
from .gmcs import PhysicalityError
from .noise import (
    DomainError,
    NoiseModel,
    UnfittableError,
    db_field_to_linear,
    fit_raman_coefficient,
)
from .output import emit, round9
from .scenarios import Scenario, builtin_scenarios, evaluate, run_sweep, scenario_by_name
from .units import dbm_to_watts


def _load_config(path: Optional[str]) -> Config:
    if path is None:
        return default_config()
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _print_json(doc, out: Optional[str]) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: parse_args fills a new Namespace on each call."""
    parser = argparse.ArgumentParser(
        prog="dwdm-qkd",
        description=(
            "Noise-photon budgets and secure-key rates for QKD channels "
            "multiplexed with classical DWDM traffic"
        ),
    )
    parser.add_argument("--config", help="path to a configuration file")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="sweep output format"
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--conservative",
        action="store_true",
        help="pad the homodyne excess-noise estimate by the measurement uncertainty",
    )
    parser.add_argument(
        "--strict-eps-out",
        action="store_true",
        help="also fold unmatched-mode noise into the excess-noise estimate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_noise = sub.add_parser("noise", help="noise budget at one distance")
    p_bb84 = sub.add_parser("bb84", help="decoy-BB84 key-rate point")
    p_bb84.add_argument("--mu", type=float, help="signal mean photon number (default: optimize)")
    p_gmcs = sub.add_parser("gmcs", help="GMCS homodyne key-rate point")
    for p_point in (p_noise, p_bb84, p_gmcs):
        p_point.add_argument(
            "--z", type=float, help="fiber length, km (default: from --config, else 20)"
        )

    p_sweep = sub.add_parser("sweep", help="run a built-in scenario sweep")
    p_sweep.add_argument("--scenario", required=True)

    sub.add_parser("scenarios", help="list built-in scenario names")

    p_fit = sub.add_parser("fit-beta", help="back out the Raman coefficient")
    p_fit.add_argument("--p-out-dbm", type=float, required=True)
    p_fit.add_argument("--delta-lambda-nm", type=float, required=True)
    p_fit.add_argument("--insertion-loss-db", type=float, default=0.0)
    p_fit.add_argument(
        "--point",
        action="append",
        required=True,
        metavar="Z_KM:POWER_W",
        help="measurement point, repeatable",
    )
    return parser


def cmd_noise(args, config: Config) -> int:
    model = NoiseModel(
        config.link,
        config.comp,
        config.bb84.delta_t_s,
        eta_bob=config.gmcs.eta_bob,
        detector_bandwidth_hz=config.gmcs.detector_bandwidth_hz,
        n_lo=config.gmcs.n_lo,
    )
    budget = model.at(args.z)[1]
    _print_json(
        {"z_km": args.z, **{k: round9(v) for k, v in budget.as_dict().items()}},
        args.out,
    )
    return 0


def cmd_bb84(args, config: Config) -> int:
    if args.mu is not None:
        mu, point = args.mu, bb84_point(config.link, config.comp, config.bb84, args.z, mu=args.mu)
    else:
        scenario = Scenario("bb84", "BB84", config.link, config.comp, config.bb84)
        evaluation = evaluate(scenario, args.z)
        mu, point = evaluation.mu, evaluation.point
    doc = {"protocol": "BB84", "mu": mu, "z_km": args.z, **point.as_dict()}
    _print_json({k: (round9(v) if isinstance(v, float) else v) for k, v in doc.items()}, args.out)
    return 0


def cmd_gmcs(args, config: Config) -> int:
    det = config.gmcs
    if args.conservative:
        det = dataclasses.replace(det, conservative=True)
    scenario = Scenario("gmcs", "GMCS", config.link, config.comp, det)
    evaluation = evaluate(scenario, args.z, args.strict_eps_out)
    point, budget = evaluation.point, evaluation.budget
    _print_json(
        {
            "protocol": "GMCS",
            "z_km": args.z,
            "eps": round9(point.eps),
            "eps_in": round9(budget.eps_in),
            "eps_out": round9(budget.eps_out),
            "i_ab": round9(point.i_ab),
            "chi_be": round9(point.chi_be),
            "rate": round9(point.rate),
            "sigma": [round9(s) for s in point.sigma],
        },
        args.out,
    )
    return 0


def cmd_sweep(args, scenario: Optional[Scenario]) -> int:
    if args.config is not None:
        raise ConfigError("sweep runs a built-in scenario as defined and does not read --config")
    if args.conservative:
        det = dataclasses.replace(scenario.detector, conservative=True)
        scenario = scenario.replace(detector=det)
    result = run_sweep(scenario, strict_eps_out=args.strict_eps_out)
    emit(result, args.format, args.out or sys.stdout)
    return 0


def cmd_fit_beta(args) -> int:
    points = []
    for spec in args.point:
        try:
            z_str, p_str = spec.split(":", 1)
            points.append((float(z_str), float(p_str)))
        except ValueError:
            raise DomainError(f"malformed --point {spec!r}; expected Z_KM:POWER_W")
    if not math.isfinite(args.p_out_dbm):
        raise DomainError(f"--p-out-dbm must be finite, got {args.p_out_dbm}")
    db_field_to_linear("--p-out-dbm", args.p_out_dbm)
    p_out_w = dbm_to_watts(args.p_out_dbm)
    if p_out_w == 0:
        raise DomainError(f"--p-out-dbm = {args.p_out_dbm} underflows to 0 W")
    beta = fit_raman_coefficient(
        points,
        p_out_w,
        args.delta_lambda_nm,
        insertion_loss_db=args.insertion_loss_db,
    )
    _print_json({"beta_raman": round9(beta), "points": len(points)}, args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        gmcs_flags = args.conservative or args.strict_eps_out
        # a sweep with --config and neither flag is rejected before its
        # scenario is looked up
        scenario = (
            scenario_by_name(args.scenario)
            if args.command == "sweep" and (gmcs_flags or args.config is None)
            else None
        )
        if gmcs_flags and not (
            args.command == "gmcs" or (scenario is not None and scenario.protocol == "GMCS")
        ):
            raise DomainError("--conservative and --strict-eps-out apply only to GMCS points and sweeps")
        if args.command in ("scenarios", "fit-beta") and args.config is not None:
            raise ConfigError(f"{args.command} does not read --config")
        if args.command == "scenarios":
            names = [s.name for s in builtin_scenarios()]
            if args.format == "json":
                _print_json(names, args.out)
            else:
                _write("\n".join(names) + "\n", args.out)
            return 0
        if args.command == "fit-beta":
            return cmd_fit_beta(args)
        if args.command == "sweep":
            return cmd_sweep(args, scenario)
        config = _load_config(args.config)
        if args.z is None:
            args.z = config.z_km
        if args.command == "noise":
            return cmd_noise(args, config)
        if args.command == "bb84":
            return cmd_bb84(args, config)
        if args.command == "gmcs":
            return cmd_gmcs(args, config)
    except (
        ConfigError,
        DomainError,
        PhysicalityError,
        UnfittableError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
