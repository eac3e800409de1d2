"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import json
import math
import time

import pytest

from dwdm_qkd.bb84 import Bb84Params, optimize_mu
from dwdm_qkd.gmcs import GmcsParams, gmcs_point, secure_distance, theta, total_excess_noise
from dwdm_qkd.noise import (
    ComponentParams,
    LinkParams,
    NoiseModel,
    channel_transmittance,
    compute_noise_budget,
    fit_raman_coefficient,
)
from dwdm_qkd.output import sweep_to_csv
from dwdm_qkd.scenarios import run_sweep, scenario_by_name
from dwdm_qkd.units import PLANCK_H, SPEED_OF_LIGHT, dbm_to_watts


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {tag} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


# Criterion 6's window for the 38-channel GMCS secure distance, the
# abstract's "around 10 km"; criterion 5 derives its band from it.
SECURE_DISTANCE_38CH_KM = (8.0, 12.0)


def scenario_rate(name, strict=False, eps_scale=1.0):
    """Key rate against distance for a built-in GMCS scenario, with the
    multiplexing excess noise of its noise budget multiplied by eps_scale."""
    scenario = scenario_by_name(name)
    det = scenario.detector
    model = NoiseModel(
        scenario.link, scenario.comp, 1e-9, eta_bob=det.eta_bob,
        detector_bandwidth_hz=det.detector_bandwidth_hz, n_lo=det.n_lo,
    )

    def rate(z):
        eta_ch, budget = model.at(z)
        eps_in = eps_scale * (budget.eps_in + (budget.eps_out if strict else 0.0))
        eps = total_excess_noise(
            det.eps0, eps_in, eta_ch, scenario.comp.eta_dmu, det.eta_bob,
            sigma_meas=det.sigma_meas, conservative=det.conservative,
        )
        return gmcs_point(eta_ch, det, eps, eta_dmu=scenario.comp.eta_dmu).rate

    return rate


def scenario_distance(name, strict=False, eps_scale=1.0):
    return secure_distance(scenario_rate(name, strict, eps_scale), 80)


def noise_scale_for_38ch_distance(distance_km):
    """Factor on each channel's multiplexing noise in gmcs-38ch that puts
    the 38-channel secure distance at distance_km.

    The rate falls with excess noise, so the factor is the one at which
    the rate at distance_km reaches zero, found by bisection.
    """
    def keyed(scale):
        return scenario_rate("gmcs-38ch", eps_scale=scale)(distance_km) > 0

    lo, hi = 0.0, 1.0
    while keyed(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if keyed(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_ase_bench_check():
    # one channel, G = 100 and an isolation that passes all the ASE: the
    # budget's ASE per mode is the amplifier's own
    comp = ComponentParams(nf_db=5.5, gain_fixed=100.0, xi1=1.0)
    n_ase = compute_noise_budget(LinkParams(), comp, 20.0, 1e-9).n_ase_per_mode_at_a
    # its power over one 75 GHz channel at h*nu = 1.28e-19 J, in dBm
    p0 = 10 * math.log10(n_ase * 75e9 * 1.28e-19 / 1e-3)
    p1 = p0 - 0.9
    ok = abs(n_ase - 351) <= 1 and abs(p0 - (-24.7)) <= 0.1 and abs(p1 - (-25.6)) <= 0.1
    report(1, "ASE bench check: 351 photons/mode, -24.7 / -25.6 dBm", ok,
           f"n={n_ase:.2f}, p0={p0:.2f} dBm, p1={p1:.2f} dBm")


def test_criterion_2_raman_fit_round_trip():
    beta = 2.85e-9
    p_out = dbm_to_watts(4.0)
    # the SASRS power P_out * beta * z * delta_lambda in 0.6 nm
    points = [(z, p_out * beta * z * 0.6) for z in (20, 40)]
    fitted = fit_raman_coefficient(points, p_out, 0.6)
    ok = abs(fitted - beta) / beta < 1e-3
    report(2, "Raman coefficient fit recovers 2.85e-9 to 1e-3 relative", ok,
           f"fitted={fitted:.4e}")


def test_criterion_3_noise_source_dominance():
    link = LinkParams(classical_channel_count=1, p_out_dbm=0.0)
    comp = ComponentParams()
    ref = compute_noise_budget(link, comp, 20, 1e-9)
    crossover = ref.leak_window / (ref.sasrs_window / 20.0)
    ok = 4 <= crossover <= 9
    ase_ok = True
    for z in [1 + i for i in range(80)]:
        b = compute_noise_budget(link, comp, z, 1e-9)
        if z < crossover and not b.leak_window > b.sasrs_window:
            ok = False
        if z > crossover and not b.sasrs_window > b.leak_window:
            ok = False
        if b.ase_window >= 0.05 * b.n_spd_window:
            ase_ok = False
    report(3, "leakage/SASRS crossover in [4, 9] km, ASE < 5% everywhere",
           ok and ase_ok, f"crossover={crossover:.2f} km")


def test_criterion_4_bb84_no_key_at_any_distance():
    link = LinkParams(classical_channel_count=1, p_out_dbm=0.0)
    comp = ComponentParams()
    params = Bb84Params()
    start = time.perf_counter()
    worst = 0.0
    for z in [0.5 * i for i in range(161)]:
        _, point = optimize_mu(link, comp, params, z)
        worst = max(worst, point.rate)
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and elapsed < 1.0
    report(4, "multiplexed decoy BB84 yields zero key at every distance", ok,
           f"max rate={worst}, elapsed={elapsed:.2f} s")


def test_criterion_5_one_channel_multiplexing_tolerance():
    # The band: one channel's share of the gmcs-38ch noise, scaled so that
    # 38 channels reach each edge of criterion 6's window, sets the shift
    # that one channel may cost; the shorter edge takes more noise and
    # gives the upper bound.
    d_none = scenario_distance("gmcs-none")
    d_1ch = scenario_distance("gmcs-1ch-nonadj")
    shift = (d_none - d_1ch) / d_none
    m = scenario_by_name("gmcs-38ch").link.classical_channel_count

    def shift_for_38ch_distance(distance_km):
        share = noise_scale_for_38ch_distance(distance_km) / m
        return (d_none - scenario_distance("gmcs-38ch", eps_scale=share)) / d_none

    short_km, long_km = SECURE_DISTANCE_38CH_KM
    low, high = shift_for_38ch_distance(long_km), shift_for_38ch_distance(short_km)
    ok = low <= shift <= high
    report(5, f"one non-adjacent 0 dBm channel shifts GMCS secure distance within "
              f"the band that puts {m} channels in [{short_km:g}, {long_km:g}] km", ok,
           f"d_none={d_none:.2f} km, d_1ch={d_1ch:.2f} km, shift={shift:.3f}, "
           f"band=[{low:.3f}, {high:.3f}]")


def test_criterion_6_38_channel_secure_distance():
    start = time.perf_counter()
    dist = scenario_distance("gmcs-38ch")
    elapsed = time.perf_counter() - start
    low, high = SECURE_DISTANCE_38CH_KM
    ok = low <= dist <= high and elapsed < 1.0
    report(6, f"38-channel GMCS secure distance in [{low:g}, {high:g}] km", ok,
           f"distance={dist:.2f} km, elapsed={elapsed:.2f} s")


def test_criterion_7_conservative_100mhz_detector():
    d5 = scenario_distance("gmcs-1ch-100MHz-detector")
    d2 = scenario_distance("gmcs-1ch-nonadj")
    ok = 12 <= d5 <= 16 and d5 < d2
    report(7, "conservative 100 MHz detector: distance in [12, 16] km and below "
              "the plain one-channel case", ok, f"d5={d5:.2f} km, d2={d2:.2f} km")


def test_criterion_8_unmatched_mode_negligibility():
    link = LinkParams(classical_channel_count=1)
    comp = ComponentParams()
    det = GmcsParams()  # 1 MHz detector, 1e8 LO photons
    budget = compute_noise_budget(
        link, comp, 20, 1e-9, eta_bob=det.eta_bob,
        detector_bandwidth_hz=det.detector_bandwidth_hz, n_lo=det.n_lo,
    )
    eta_ch = channel_transmittance(20, 0.21)

    def rate(extra):
        eps = total_excess_noise(det.eps0, budget.eps_in + extra, eta_ch, comp.eta_dmu, det.eta_bob)
        return gmcs_point(eta_ch, det, eps, eta_dmu=comp.eta_dmu).rate

    loose, strict = rate(0.0), rate(budget.eps_out)
    change = abs(loose - strict) / loose
    ok = 1e-7 <= budget.eps_out <= 1e-5 and change < 1e-3
    report(8, "unmatched-mode noise is negligible (eps_out ~ 1e-6, rate shift < 0.1%)",
           ok, f"eps_out={budget.eps_out:.2e}, rate shift={change:.2e}")


def test_criterion_9_property_suites():
    ok = True
    # theta grid: positive, increasing, concave
    xs = [0.02 * i for i in range(1, 300)]
    ys = [theta(x) for x in xs]
    ok &= all(y > 0 for y in ys)
    ok &= all(b > a for a, b in zip(ys, ys[1:]))
    ok &= all(ys[i + 1] - 2 * ys[i] + ys[i - 1] < 0 for i in range(1, len(ys) - 1))

    # Vieta checks on a parameter grid
    det = GmcsParams()
    for eta_ch in (0.9, 0.38, 0.1):
        for eps in (0.0, 0.05, 0.2):
            point = gmcs_point(eta_ch, det, eps, eta_dmu=0.71)
            v = det.v_a + 1
            chi_line = 1 / eta_ch - 1 + eps
            a = v * v * (1 - 2 * eta_ch) + 2 * eta_ch + eta_ch**2 * (v + chi_line) ** 2
            b = eta_ch**2 * (v * chi_line + 1) ** 2
            s1, s2 = point.sigma[0], point.sigma[1]
            ok &= abs(s1**2 * s2**2 - b) <= 1e-9 * b
            ok &= abs(s1**2 + s2**2 - a) <= 1e-9 * a

    # BB84 algebraic identities
    from dwdm_qkd.bb84 import bb84_point
    link = LinkParams(classical_channel_count=1)
    comp = ComponentParams()
    params = Bb84Params()
    point = bb84_point(link, comp, params, 15, mu=0.4)
    eta = channel_transmittance(15, 0.21) * comp.eta_dmu * params.eta_bob
    ok &= math.isclose(
        point.e_mu * point.q_mu,
        params.e0 * point.y0 + params.e_det * (1 - math.exp(-eta * 0.4)),
        rel_tol=1e-9,
    )
    ok &= math.isclose(
        point.e1 * point.q1,
        (params.e0 * point.y0 + params.e_det * eta) * 0.4 * math.exp(-0.4),
        rel_tol=1e-9,
    )

    # dB round trips
    for db in (-80.0, -1.5, 0.0, 20.0, 55.5):
        ok &= math.isclose(10 * math.log10(10 ** (db / 10)), db, rel_tol=1e-12, abs_tol=1e-12)

    # bandwidth cancellation of the SASRS per-mode form: 0 dBm, beta = 4e-9,
    # 1550 nm and eta_dmu = 0.71 at 20 km
    lam = 1.55e-6
    closed = compute_noise_budget(LinkParams(), ComponentParams(), 20, 1e-9).n_sasrs_per_mode_at_c
    for dl in (0.1, 0.6, 1.0):
        band = 1e-3 * 4e-9 * 20 * dl
        n_mode = SPEED_OF_LIGHT / lam**2 * dl * 1e-9
        via = band / (PLANCK_H * SPEED_OF_LIGHT / lam * n_mode) * 0.71
        ok &= abs(closed - via) <= 1e-12 * via

    # sweep determinism, bit-identical emissions
    scenario = scenario_by_name("gmcs-38ch").replace(
        z_grid=tuple(float(z) for z in range(0, 21, 2))
    )
    ok &= sweep_to_csv(run_sweep(scenario)) == sweep_to_csv(run_sweep(scenario))

    report(9, "property suites: theta, Vieta, QBER identities, dB and bandwidth "
              "round trips, determinism", bool(ok))
