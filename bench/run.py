"""Benchmark of the dwdm_qkd sweeps and CLI, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload bb84-sweeps|gmcs-sweeps|cli-points \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop in this one process and thread: the next
operation starts when the previous one returns. A run verifies one round of
operations against the benchmark's own computations (bench/checks.py),
then repeats whole rounds for S seconds. Set-up is timed in fresh
interpreters (bench/probe.py). With --trace 0 the last line of stdout
carries the end-to-end metrics; with --trace 1 the run wraps the program's
functions (bench/spans.py) and reports per-layer metrics per operation.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import checks
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 15  # fresh interpreters whose median is setup_s


def load_program():
    """Import dwdm_qkd from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dwdm_qkd", "cli.py")):
        sys.exit(f"error: no program at {SRC}/dwdm_qkd; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import dwdm_qkd

    if not os.path.abspath(dwdm_qkd.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: dwdm_qkd imported from {dwdm_qkd.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int, workdir: str) -> list:
    """Set-up times from fresh interpreters; the first one, which fills the
    bytecode cache, is not counted."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cache = os.path.join(BUILD, "pycache")
    results = []
    for i in range(SETUP_PROBES + 1):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, "-X", f"pycache_prefix={cache}", os.path.join(BENCH, "probe.py"),
             workload, str(seed), probe_dir],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results[1:]


class Run:
    """Counts and samples of one timed loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency_s = array("d")  # scaled, operations that behaved
        self.busy_s = 0.0  # scaled, every operation
        self.speed_scale = 1.0  # median over the run
        self.peak_rss_mb = 0.0
        self.rows = 0
        self.bytes = 0
        self.errors: list = []


def is_cli(workload) -> bool:
    return workload.name == "cli-points"


def behaved(workload, op, outcome) -> bool:
    return checks.cli_ok(op, outcome) if is_cli(workload) else True


def fingerprint(workload, outcome):
    if is_cli(workload):
        return outcome
    result, text = outcome
    return text, result.secure_distance_km


def verify_round(workload, seed: int) -> tuple:
    """Run every operation once, untimed, and check it. Returns the
    reference fingerprints and a list of check failures."""
    from dwdm_qkd.config import default_config

    rng = random.Random(seed + 1)
    outcomes = {id(op): op.call() for op in workload.ops}
    errors = []
    distances = {}
    for op in workload.ops:
        outcome = outcomes[id(op)]
        try:
            if workload.name == "bb84-sweeps":
                checks.verify_bb84_sweep(op, outcome)
            elif workload.name == "gmcs-sweeps":
                distances[op.label] = checks.verify_gmcs_sweep(op, outcome, rng)
            elif checks.cli_ok(op, outcome):
                checks.verify_cli(op, outcome, default_config())
            elif op.meta["kind"] != "error":
                raise checks.CheckError(f"{op.label}: exit {outcome[0]!r}, stderr {outcome[2]!r}")
        except (checks.CheckError, KeyError, ValueError) as exc:
            errors.append(f"{op.label}: {exc!r}")
    if workload.name == "gmcs-sweeps" and len(distances) == len(workload.ops):
        try:
            checks.verify_gmcs_order(distances)
        except checks.CheckError as exc:
            errors.append(str(exc))
    return {key: fingerprint(workload, o) for key, o in outcomes.items()}, errors


def timed_loop(workload, seconds: float, reference: dict) -> Run:
    """Whole rounds of operations until `seconds` have passed. Operation
    times are scaled to the reference speed (see speed.py). The loop keeps
    one number per operation, so that peak memory barely depends on how
    many operations a run completes."""
    run = Run()
    clock = time.perf_counter
    with speed.Sampler() as sampler:
        deadline = clock() + seconds
        while True:
            for op in workload.next_round():
                t0 = clock()
                outcome = op.call()
                t1 = clock()
                own, scale = sampler.scaled(t0, t1)
                run.busy_s += own * scale
                run.attempted += 1
                if not behaved(workload, op, outcome):
                    run.failed += 1
                    if op.meta.get("kind") != "error":
                        run.errors.append(f"{op.label}: failed in the timed loop")
                    continue
                run.latency_s.append(own * scale)
                if fingerprint(workload, outcome) != reference[id(op)]:
                    run.errors.append(f"{op.label}: output differs from the verified round")
                run.bytes += len(outcome[1].encode())  # stdout, or the emitted sweep
                if is_cli(workload):
                    run.rows += op.meta["kind"] in ("noise", "bb84", "gmcs")
                else:
                    run.rows += len(outcome[0].rows)
            if clock() >= deadline:
                break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.speed_scale = speed.REFERENCE_S / statistics.median(sampler.work_s)
    return run


def end_to_end(run: Run, probes: list) -> dict:
    lat = sorted(run.latency_s)
    return {
        "ops_per_s": (len(lat) / run.busy_s, "1/s"),
        "op_latency_s.p50": (statistics.median(lat), "s"),
        "op_latency_s.p90": (statistics.quantiles(lat, n=10)[8], "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


def per_layer(run: Run, tracer, probes: list) -> dict:
    """Per operation; span times are scaled by the run's median speed scale."""
    ops = run.attempted
    factor = run.speed_scale
    out = {}

    def put(name, key, table, unit):
        if key in table:
            out[name] = (table[key] / ops * (factor if unit == "s" else 1.0), unit)

    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    put("bb84.optimize_mu.calls", "bb84.optimize_mu", calls, "count")
    put("bb84.optimize_mu.self_s", "bb84.optimize_mu", self_s, "s")
    put("bb84.bb84_point_from_rates.calls", "bb84.bb84_point_from_rates", calls, "count")
    put("bb84.bb84_point_from_rates.s", "bb84.bb84_point_from_rates", total, "s")
    put("gmcs.gmcs_point.calls", "gmcs.gmcs_point", calls, "count")
    put("gmcs.gmcs_point.s", "gmcs.gmcs_point", total, "s")
    put("gmcs.total_excess_noise.calls", "gmcs.total_excess_noise", calls, "count")
    if "gmcs.secure_distance" in calls:
        out["gmcs.secure_distance.rate_evals"] = (tracer.distance_rate_evals / ops, "count")
    put("gmcs.secure_distance.s", "gmcs.secure_distance", total, "s")
    put("scenarios.run_sweep.self_s", "scenarios.run_sweep", self_s, "s")
    if any(k in calls for k in ("bb84.optimize_mu", "bb84.bb84_point", "gmcs.gmcs_point")):
        out["scenarios.rate_evals_per_row"] = (tracer.rate_evals / run.rows if run.rows else 0.0, "ratio")
    put("noise.compute_noise_budget.calls", "noise.compute_noise_budget", calls, "count")
    put("noise.compute_noise_budget.s", "noise.compute_noise_budget", total, "s")
    put("output.sweep_to_json.s", "output.sweep_to_json", total, "s")
    put("output.sweep_to_csv.s", "output.sweep_to_csv", total, "s")
    out["output.bytes"] = (run.bytes / ops, "B")
    put("config.parse_config.calls", "config.parse_config", calls, "count")
    put("config.parse_config.s", "config.parse_config", total, "s")
    put("cli.build_parser.s", "cli.build_parser", total, "s")
    put("cli.main.self_s", "cli.main", self_s, "s")
    out["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        probes = probe_setup(args.workload, args.seed, workdir)
        workload = workloads.build(args.workload, args.seed, workdir)
        reference, errors = verify_round(workload, args.seed)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                run = timed_loop(workload, args.seconds, reference)
            finally:
                tracer.remove()
            metrics = per_layer(run, tracer, probes)
        else:
            run = timed_loop(workload, args.seconds, reference)
            metrics = end_to_end(run, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"speed scale: median {run.speed_scale:.3f}", file=sys.stderr)
    for message in errors + run.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
