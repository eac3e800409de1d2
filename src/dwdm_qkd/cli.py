"""Command-line interface: point computations, sweeps and the Raman fit."""

import argparse
import functools
import math
import re
import sys

from .config import DEFAULT_Z_KM, Config, ConfigError, default_config, parse_config
from .gmcs import PhysicalityError
from .noise import (
    DomainError,
    UnfittableError,
    compute_noise_budget,
    db_field_to_linear,
    fit_raman_coefficient,
)
from .output import emit, point_to_json, round9
from .scenarios import DEFAULT_MU_GRID, Evaluation, Scenario, builtin_scenarios, evaluate, run_sweep, scenario_by_name


def _load_config(path: str | None) -> Config:
    if path is None:
        return default_config()
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            # one read of the whole file, so exc.start is its byte offset
            raise ConfigError(
                f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
            ) from None
    return parse_config(text)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _print_json(doc, out: str | None) -> None:
    _write(point_to_json(doc) + "\n", out)


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
            "--z", type=float, help=f"fiber length, km (default: from --config, else {DEFAULT_Z_KM:g})"
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
    # argparse's negative-number pattern has no exponent, inf or nan, so it
    # reads "--z -1e-3" as a flag without its value; take these as values
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def cmd_noise(args, config: Config) -> int:
    budget = compute_noise_budget(
        config.link,
        config.comp,
        args.z,
        config.bb84.delta_t_s,
        eta_bob=config.gmcs.eta_bob,
        detector_bandwidth_hz=config.gmcs.detector_bandwidth_hz,
        n_lo=config.gmcs.n_lo,
    )
    _print_json(
        {"z_km": args.z, **{k: round9(v) for k, v in budget.as_dict().items()}},
        args.out,
    )
    return 0


def _with_conservative(scenario: Scenario, args) -> Scenario:
    """The scenario, with the sigma_meas pad on when --conservative is given."""
    if args.conservative:
        return scenario.replace(detector=scenario.detector.replace(conservative=True))
    return scenario


def _evaluate_point(args, config: Config, detector, mu_grid=DEFAULT_MU_GRID) -> Evaluation:
    """The bb84 or gmcs point at --z: the config's link and components with the detector."""
    scenario = _with_conservative(Scenario(args.command, config.link, config.comp, detector), args)
    return evaluate(scenario, args.z, args.strict_eps_out, mu_grid)


def cmd_bb84(args, config: Config) -> int:
    if args.mu is not None and not (math.isfinite(args.mu) and args.mu > 0):
        raise DomainError(f"--mu must be finite and > 0, got {args.mu}")
    evaluation = _evaluate_point(args, config, config.bb84, DEFAULT_MU_GRID if args.mu is None else (args.mu,))
    _print_json(
        {
            "protocol": "BB84",
            "mu": round9(evaluation.mu),
            "z_km": args.z,
            **{k: round9(v) for k, v in evaluation.point.as_dict().items()},
        },
        args.out,
    )
    return 0


def cmd_gmcs(args, config: Config) -> int:
    evaluation = _evaluate_point(args, config, config.gmcs)
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


def cmd_sweep(args, scenario: Scenario | None) -> int:
    if args.config is not None:
        raise ConfigError("sweep runs a built-in scenario as defined and does not read --config")
    result = run_sweep(_with_conservative(scenario, args), strict_eps_out=args.strict_eps_out)
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
    p_out_w = 1e-3 * db_field_to_linear("--p-out-dbm", args.p_out_dbm)
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


def main(argv: list[str] | None = None) -> int:
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
