"""Metamorphic relations: how the key rate and the secure distance move when
one input moves.

The paper's claims are of this kind: more channels or more launch power cost
key, and the homodyne detector tolerates more than the SPD. Each relation
compares two outputs of the program, so it needs no oracle (Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM Comput.
Surv. 51(1), 4 (2018)).
"""

import warnings

from hypothesis import given, settings, strategies as st

from dwdm_qkd.config import parse_config
from dwdm_qkd.scenarios import Scenario, builtin_scenarios, evaluate, run_sweep, scenario_by_name

# how far a rate may sit above one it must not exceed: the rounding of
# gamma * I_AB - chi_BE, a few hundred ulp of terms that stay under 100 here
RATE_TOL = 1e-12

SEEDED = settings(max_examples=40, derandomize=True, database=None, deadline=None)

CHANNEL_COUNTS = st.sampled_from([0, 1, 4, 38])


@st.composite
def perturbed_scenarios(draw, protocol=None):
    """A built-in scenario with its launch power, channel count and Raman
    coefficient redrawn, and a GMCS detector's v_a, eps0 and gamma."""
    base = draw(st.sampled_from([s for s in builtin_scenarios() if protocol in (None, s.protocol)]))
    link = base.link.replace(
        p_out_dbm=draw(st.floats(-20.0, 5.0)),
        classical_channel_count=draw(CHANNEL_COUNTS),
        beta_raman=draw(st.floats(1e-10, 1e-8)),
    )
    detector = base.detector
    if base.protocol == "GMCS":
        detector = detector.replace(
            v_a=draw(st.floats(1.0, 100.0)), eps0=draw(st.floats(0.0, 0.05)), gamma=draw(st.floats(0.85, 1.0))
        )
    return base.replace(link=link, detector=detector)


def rate(scenario, z_km):
    return evaluate(scenario, z_km).point.rate


@SEEDED
@given(perturbed_scenarios(), st.floats(0.0, 80.0), st.floats(0.01, 20.0))
def test_rate_does_not_rise_with_distance(scenario, z_km, step):
    assert rate(scenario, z_km + step) <= rate(scenario, z_km) + RATE_TOL


@SEEDED
@given(perturbed_scenarios(), st.floats(0.0, 80.0), st.integers(1, 40), st.floats(0.01, 10.0), st.floats(1.01, 10.0))
def test_rate_does_not_rise_with_channels_power_or_raman(scenario, z_km, more_channels, more_dbm, raman_factor):
    link = scenario.link
    for moved in (
        link.replace(classical_channel_count=link.classical_channel_count + more_channels),
        link.replace(p_out_dbm=link.p_out_dbm + more_dbm),
        link.replace(beta_raman=link.beta_raman * raman_factor),
    ):
        assert rate(scenario.replace(link=moved), z_km) <= rate(scenario, z_km) + RATE_TOL, moved


@SEEDED
@given(perturbed_scenarios("GMCS"), st.floats(0.0, 80.0), st.floats(0.001, 0.05), st.data())
def test_gmcs_rate_does_not_rise_with_eps0_or_fall_with_gamma(scenario, z_km, more_noise, data):
    det = scenario.detector
    noisier = scenario.replace(detector=det.replace(eps0=det.eps0 + more_noise))
    assert rate(noisier, z_km) <= rate(scenario, z_km) + RATE_TOL
    gamma = data.draw(st.floats(det.gamma, 1.0))
    better = scenario.replace(detector=det.replace(gamma=gamma))
    assert rate(better, z_km) >= rate(scenario, z_km) - RATE_TOL


def secure_distance(scenario):
    return run_sweep(scenario).secure_distance_km


def test_secure_distances_keep_the_builtins_order():
    # fewer and farther classical channels leave more reach: 50.67, 31.86,
    # 17.08 and 9.89 km
    names = ("gmcs-none", "gmcs-1ch-nonadj", "gmcs-1ch-adj", "gmcs-38ch")
    distances = [secure_distance(scenario_by_name(name)) for name in names]
    assert distances == sorted(distances, reverse=True)
    # and the sigma_meas pad of a conservative detector never adds reach
    padded = scenario_by_name("gmcs-1ch-100MHz-detector")
    assert padded.detector.conservative
    plain = padded.replace(detector=padded.detector.replace(conservative=False))
    assert secure_distance(padded) <= secure_distance(plain)


def test_no_key_after_the_first_zero_row_on_the_tail_config():
    # no classical channel, a large v_a and little excess noise: far out the
    # four theta terms of chi_BE cancel to rounding, which once made 202 rows
    # past the first zero one, at 13 km, positive out to 658.75 km
    config = parse_config("[link]\nclassical_channel_count = 0\n[gmcs]\nv_a = 235\neps0 = 0.00036\nv_el = 0\n")
    scenario = Scenario("tail", config.link, config.comp, config.gmcs, tuple(0.5 * i for i in range(2001)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(scenario)
    rates = [row.rate for row in result.rows]
    first_zero = rates.index(0.0)
    assert rates[first_zero - 1] > 0
    assert not any(rates[first_zero:])
