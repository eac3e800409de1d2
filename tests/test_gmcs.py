import dataclasses
import decimal
import gc
import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dwdm_qkd.gmcs import (
    DISCRIMINANT_RTOL,
    GmcsParams,
    GmcsPoint,
    PhysicalityError,
    gmcs_point,
    secure_distance,
    theta,
    total_excess_noise,
)
from dwdm_qkd.config import parse_config
from dwdm_qkd.noise import (
    ComponentParams,
    DomainError,
    LinkParams,
    NoiseModel,
    channel_transmittance,
    compute_noise_budget,
)
from dwdm_qkd.scenarios import Scenario, evaluate

PARAMS = GmcsParams()
COMP = ComponentParams()


def rate_at(z_km, m=1, det=PARAMS, comp=COMP, strict=False):
    model = NoiseModel(
        LinkParams(classical_channel_count=m), comp, 1e-9, eta_bob=det.eta_bob,
        detector_bandwidth_hz=det.detector_bandwidth_hz, n_lo=det.n_lo,
    )
    eta_ch, budget = model.at(z_km)
    eps_in = budget.eps_in + (budget.eps_out if strict else 0.0)
    eps = total_excess_noise(
        det.eps0, eps_in, eta_ch, comp.eta_dmu, det.eta_bob,
        sigma_meas=det.sigma_meas, conservative=det.conservative,
    )
    return gmcs_point(eta_ch, det, eps, eta_dmu=comp.eta_dmu)


def two_step_gmcs_point(eta_ch, params, eps, eta_dmu):
    """gmcs_point as it was written before its entropies and roots were
    inlined: each pair of roots split by one helper and each entropy one
    theta call. Every operation is done in the same order, so the two must
    agree bit for bit, errors included."""
    if not 0 < eta_ch <= 1:
        raise DomainError("eta_ch must be in (0, 1]")
    if eps < 0:
        raise DomainError("excess noise must be >= 0")
    if not 0 < eta_dmu <= 1:
        raise DomainError(f"eta_dmu must be in (0, 1], got {eta_dmu}")

    def out_of_range():
        return DomainError(
            f"eta_ch = {eta_ch} with excess noise {eps} takes the covariance matrix out of floating-point range"
        )

    def split_roots(total, product, gap_sq):
        high = 0.5 * (total + math.sqrt(gap_sq * (total + 2.0 * product)))
        return high, product / high * product

    v = params.v_a + 1.0
    eta_prime = eta_dmu * params.eta_bob
    chi_line = 1.0 / eta_ch - 1.0 + eps
    chi_hom = (1.0 + params.v_el) / eta_prime - 1.0
    chi_tot = chi_line + chi_hom / eta_ch
    i_ab = 0.5 * math.log2((v + chi_tot) / (1.0 + chi_tot))
    denom = eta_ch * (v + chi_tot)
    if not math.isfinite(denom):
        raise out_of_range()
    one_minus_t = 1.0 - eta_ch
    t_eps = eta_ch * eps
    channel_gap = params.v_a * one_minus_t - t_eps
    sqrt_b_minus_1 = params.v_a * one_minus_t + v * t_eps
    sqrt_b = 1.0 + sqrt_b_minus_1
    a = channel_gap * channel_gap + 2.0 * sqrt_b
    c = (v * sqrt_b + eta_ch * (v + chi_line) + a * chi_hom) / denom
    d = sqrt_b * (v + sqrt_b * chi_hom) / denom
    if not math.isfinite(a + c + d):
        raise out_of_range()
    v_sq_minus_1 = params.v_a * (params.v_a + 2.0)
    impurity = v_sq_minus_1 * t_eps * (2.0 * one_minus_t + t_eps)
    d_minus_1 = (v_sq_minus_1 * (one_minus_t + t_eps) + chi_hom * sqrt_b_minus_1 * (sqrt_b + 1.0)) / denom
    sqrt_d = math.sqrt(d)
    sqrt_d_minus_1 = d_minus_1 / (sqrt_d + 1.0)
    pure_part = sqrt_d_minus_1 * sqrt_d_minus_1
    conditional_gap_sq = pure_part - chi_hom * impurity / denom
    if conditional_gap_sq < 0:
        if conditional_gap_sq < -DISCRIMINANT_RTOL * pure_part:
            raise PhysicalityError(f"negative discriminant for conditional spectrum: {conditional_gap_sq}")
        conditional_gap_sq = 0.0
    s1sq, s2sq = split_roots(a, sqrt_b, channel_gap * channel_gap)
    s3sq, s4sq = split_roots(c, sqrt_d, conditional_gap_sq)
    sigma = (math.sqrt(s1sq), math.sqrt(s2sq), math.sqrt(s3sq), math.sqrt(s4sq))
    chi_be = (
        theta((sigma[0] - 1.0) / 2.0)
        + theta((sigma[1] - 1.0) / 2.0)
        - theta((sigma[2] - 1.0) / 2.0)
        - theta((sigma[3] - 1.0) / 2.0)
    )
    if not math.isfinite(i_ab + chi_be):
        raise out_of_range()
    chi_be = max(0.0, chi_be)
    rate = max(0.0, params.gamma * i_ab - chi_be)
    return GmcsPoint(eps, i_ab, chi_be, rate, sigma)


def exact_rate(eta_ch, params, eps, eta_dmu):
    """gamma * I_AB - chi_BE of the realistic homodyne model in the textbook
    forms of Lodewyck et al., PRA 76, 042305 (2007), in decimal arithmetic
    at 60 digits: A, B, C and D as written there, each pair of
    squared symplectic eigenvalues from the quadratic formula, and chi_BE as
    the signed sum of the four entropies. Float rounding enters only through
    the arguments."""
    with decimal.localcontext() as context:
        context.prec = 60
        D = decimal.Decimal
        t, v, e = D(eta_ch), D(params.v_a) + 1, D(eps)
        ln2 = D(2).ln()
        log2 = lambda x: x.ln() / ln2  # noqa: E731
        chi_line = 1 / t - 1 + e
        chi_hom = (1 + D(params.v_el)) / (D(eta_dmu) * D(params.eta_bob)) - 1
        chi_tot = chi_line + chi_hom / t
        i_ab = log2((v + chi_tot) / (1 + chi_tot)) / 2
        a = v * v * (1 - 2 * t) + 2 * t + t * t * (v + chi_line) ** 2
        b = t * t * (v * chi_line + 1) ** 2
        c = (a * chi_hom + v * b.sqrt() + t * (v + chi_line)) / (t * (v + chi_tot))
        d = b.sqrt() * (v + b.sqrt() * chi_hom) / (t * (v + chi_tot))

        def roots(total, product_sq):
            # the discriminant is >= 0 exactly; rounding may take it below
            root = max(total * total - 4 * product_sq, D(0)).sqrt()
            return ((total + root) / 2).sqrt(), ((total - root) / 2).sqrt()

        def g(sigma):
            x = max((sigma - 1) / 2, D(0))
            return (x + 1) * log2(x + 1) - (x * log2(x) if x > 0 else 0)

        s1, s2 = roots(a, b)
        s3, s4 = roots(c, d)
        return float(D(params.gamma) * i_ab - (g(s1) + g(s2) - g(s3) - g(s4)))


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def random_gmcs_input(rng):
    """(params, eta_ch, eps, eta_dmu) over the valid ranges and past them:
    near-pure states, links out to 1e-300, excess noise from 0 to past the
    float range, and a few invalid arguments."""
    params = GmcsParams(
        v_a=log_uniform(rng, -3, 6),
        eta_bob=rng.choice([1.0, 0.6, rng.uniform(1e-4, 1.0)]),
        v_el=rng.choice([0.0, 0.01, log_uniform(rng, -8, 3)]),
        gamma=rng.choice([1.0, 0.9, rng.uniform(0.01, 1.0)]),
    )
    kind = rng.random()
    if kind < 0.1:
        eta_ch = 1.0
    elif kind < 0.3:
        eta_ch = 1.0 - log_uniform(rng, -16, -1)
    elif kind < 0.4:
        eta_ch = log_uniform(rng, -300, -12)
    else:
        eta_ch = log_uniform(rng, -12, 0)
    kind = rng.random()
    if kind < 0.15:
        eps = 0.0
    elif kind < 0.3:
        eps = log_uniform(rng, -18, -6)
    elif kind < 0.35:
        eps = log_uniform(rng, 3, 308)
    else:
        eps = log_uniform(rng, -6, 2)
    eta_dmu = rng.choice([1.0, 0.71, rng.uniform(1e-4, 1.0)])
    if rng.random() < 0.02:
        eta_ch = rng.choice([0.0, -0.5, 1.5, math.nan])
    if rng.random() < 0.02:
        eps = rng.choice([-1e-3, math.inf])
    if rng.random() < 0.02:
        eta_dmu = rng.choice([0.0, 1.5, math.nan])
    return params, eta_ch, eps, eta_dmu


class TestTheta:
    def test_known_values(self):
        assert theta(0.0) == 0.0
        assert theta(1.0) == pytest.approx(2.0)
        assert theta(0.5) == pytest.approx(1.37744375, rel=1e-8)

    def test_negative_rejected_and_tolerance_clamped(self):
        with pytest.raises(DomainError):
            theta(-0.1)
        assert theta(-1e-14) == 0.0

    def test_grid_positive_increasing_concave(self):
        xs = [0.01 * i for i in range(1, 500)]
        ys = [theta(x) for x in xs]
        assert all(y > 0 for y in ys)
        assert all(b > a for a, b in zip(ys, ys[1:]))
        second = [ys[i + 1] - 2 * ys[i] + ys[i - 1] for i in range(1, len(ys) - 1)]
        assert all(d < 0 for d in second)


class TestTotalExcessNoise:
    def test_intrinsic_only(self):
        assert total_excess_noise(0.01, 0.0, 0.38, 0.71, 0.6) == 0.01

    def test_20km_example(self):
        eps = total_excess_noise(0.01, 2.13e-3, 0.380189, 0.71, 0.6)
        assert eps == pytest.approx(0.0232, abs=5e-4)

    def test_conservative_padding(self):
        eta = 0.380189 * 0.71 * 0.6
        eps = total_excess_noise(
            0.01, 2.13e-3, 0.380189, 0.71, 0.6, sigma_meas=0.024, conservative=True
        )
        assert eps == pytest.approx(0.0232 + 0.024 / eta, abs=1e-3)

    def test_zero_transmittance_rejected(self):
        with pytest.raises(DomainError):
            total_excess_noise(0.01, 1e-3, 0.0, 0.71, 0.6)


class TestGmcsPoint:
    def test_lossless_noiseless_closed_form(self):
        det = GmcsParams(v_el=0.0, eta_bob=1.0)
        point = gmcs_point(1.0, det, 0.0, eta_dmu=1.0)
        v = det.v_a + 1
        assert point.i_ab == pytest.approx(0.5 * math.log2(v), rel=1e-12)
        assert point.chi_be == pytest.approx(0.0, abs=1e-6)
        assert point.rate == pytest.approx(det.gamma * 0.5 * math.log2(v), rel=1e-6)

    def test_channel_spectrum_against_numpy_symplectic_oracle(self):
        # sigma_1,2 must match the symplectic eigenvalues of the two-mode
        # covariance matrix [[V, sqrt(T)c sz], [sqrt(T)c sz, T(V+chi)]]
        for eta_ch, eps in [(0.9, 0.0), (0.38, 0.02), (0.1, 0.15)]:
            point = gmcs_point(eta_ch, PARAMS, eps, eta_dmu=COMP.eta_dmu)
            v = PARAMS.v_a + 1
            chi_line = 1 / eta_ch - 1 + eps
            c = math.sqrt(v * v - 1)
            a_blk = v * np.eye(2)
            b_blk = eta_ch * (v + chi_line) * np.eye(2)
            c_blk = math.sqrt(eta_ch) * c * np.diag([1, -1])
            gamma = np.block([[a_blk, c_blk], [c_blk, b_blk]])
            omega = np.kron(np.eye(2), np.array([[0, 1], [-1, 0]]))
            # eigenvalues of i*Omega*gamma come in +/-nu pairs; deduplicate
            nus = sorted(np.abs(np.linalg.eigvals(1j * omega @ gamma)))[::2]
            assert point.sigma[0] == pytest.approx(max(nus), rel=1e-9)
            assert point.sigma[1] == pytest.approx(min(nus), rel=1e-9)

    def test_vieta_consistency(self):
        for eta_ch, eps, v_el in [(0.99, 0.0, 0.0), (0.5, 0.05, 0.01), (0.12, 0.3, 0.1)]:
            det = dataclasses.replace(PARAMS, v_el=v_el)
            point = gmcs_point(eta_ch, det, eps, eta_dmu=COMP.eta_dmu)
            v = det.v_a + 1
            chi_line = 1 / eta_ch - 1 + eps
            chi_hom = (1 + v_el) / (COMP.eta_dmu * det.eta_bob) - 1
            chi_tot = chi_line + chi_hom / eta_ch
            a = v * v * (1 - 2 * eta_ch) + 2 * eta_ch + eta_ch**2 * (v + chi_line) ** 2
            b = eta_ch**2 * (v * chi_line + 1) ** 2
            c = (v * math.sqrt(b) + eta_ch * (v + chi_line) + a * chi_hom) / (
                eta_ch * (v + chi_tot)
            )
            d = math.sqrt(b) * (v + math.sqrt(b) * chi_hom) / (eta_ch * (v + chi_tot))
            s1, s2, s3, s4 = point.sigma
            assert s1**2 * s2**2 == pytest.approx(b, rel=1e-9)
            assert s1**2 + s2**2 == pytest.approx(a, rel=1e-9)
            assert s3**2 * s4**2 == pytest.approx(d, rel=1e-9)
            assert s3**2 + s4**2 == pytest.approx(c, rel=1e-9)

    @pytest.mark.parametrize(
        "eta_ch, eps, v_el, oracle",
        [
            # near-pure: both pairs nearly degenerate at 1
            (1.0, 1e-8, 0.0, (1.0000000599999985, 1.0000000499999985, 1.0000000546011813, 1.0000000059957753)),
            # far: each pair's smaller eigenvalue near 1, its larger near V
            (1e-6, 0.05, 0.01, (10.999990000000042, 1.0000000500000417, 10.999968910981582, 1.0000000289109047)),
        ],
    )
    def test_spectrum_against_50_digit_oracle(self, eta_ch, eps, v_el, oracle):
        # the oracle is a 50-digit evaluation of the a, b, c, d written out in
        # test_vieta_consistency (V_A = 10, eta' = 0.71 * 0.6); extracted
        # without cancellation, each eigenvalue is within a few ulp of it
        det = dataclasses.replace(PARAMS, v_el=v_el)
        point = gmcs_point(eta_ch, det, eps, eta_dmu=COMP.eta_dmu)
        for sigma, expected in zip(point.sigma, oracle):
            assert sigma == pytest.approx(expected, rel=4 * sys.float_info.epsilon, abs=0)

    def test_rate_nonincreasing_in_noise(self):
        for eta_ch in (0.9, 0.5, 0.2):
            rates_eps = [
                gmcs_point(eta_ch, PARAMS, eps, eta_dmu=COMP.eta_dmu).rate
                for eps in (0.0, 0.02, 0.05, 0.1, 0.2)
            ]
            assert all(b <= a for a, b in zip(rates_eps, rates_eps[1:]))
            rates_vel = [
                gmcs_point(
                    eta_ch, dataclasses.replace(PARAMS, v_el=v), 0.01, eta_dmu=COMP.eta_dmu
                ).rate
                for v in (0.0, 0.01, 0.05, 0.1, 0.3)
            ]
            assert all(b <= a for a, b in zip(rates_vel, rates_vel[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.02, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.3),
    )
    # a near-pure state: both eigenvalue pairs are within 1e-7 of (1, 1)
    @example(1.0, 1e-8, 0.0)
    def test_physical_sweep_stays_finite_and_nonnegative(self, eta_ch, eps, v_el):
        det = dataclasses.replace(PARAMS, v_el=v_el)
        point = gmcs_point(eta_ch, det, eps, eta_dmu=COMP.eta_dmu)
        assert point.i_ab >= 0
        assert point.chi_be >= 0
        assert point.rate >= 0
        assert all(s >= 1 - 1e-9 for s in point.sigma)

    def test_continuity_at_no_multiplexing_limit(self):
        faint = rate_at(20, m=1)
        # push the launch power to nothing and pin the booster at unit gain
        # (ASE scales with G - 1, not with launch power): recovers the
        # unmultiplexed curve
        link = LinkParams(classical_channel_count=1, p_out_dbm=-300)
        quiet = dataclasses.replace(COMP, gain_fixed=1.0)
        budget = compute_noise_budget(link, quiet, 20, 1e-9, eta_bob=0.6)
        eta_ch = channel_transmittance(20, 0.21)
        eps = total_excess_noise(0.01, budget.eps_in, eta_ch, 0.71, 0.6)
        none = gmcs_point(eta_ch, PARAMS, eps, eta_dmu=0.71).rate
        clean = rate_at(20, m=0).rate
        assert none == pytest.approx(clean, rel=1e-9)
        assert faint.rate < clean

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            gmcs_point(0.0, PARAMS, 0.01, eta_dmu=COMP.eta_dmu)
        with pytest.raises(DomainError):
            gmcs_point(0.5, PARAMS, -0.01, eta_dmu=COMP.eta_dmu)

    @pytest.mark.parametrize("eta_dmu", [0.0, -1.0, 2.0, math.nan])
    def test_eta_dmu_outside_unit_interval_rejected_by_name(self, eta_dmu):
        # these failed as a ZeroDivisionError, a math domain error, a theta
        # DomainError and a float-range DomainError, none naming eta_dmu
        with pytest.raises(DomainError, match=rf"^eta_dmu must be in \(0, 1\], got {eta_dmu}$"):
            gmcs_point(0.5, PARAMS, 0.01, eta_dmu=eta_dmu)

    @pytest.mark.parametrize(
        "eta_ch, eps",
        [(5e-324, 0.01), (0.5, math.inf), (0.5, 1e300)],
    )
    def test_out_of_float_range_rejected(self, eta_ch, eps):
        # a subnormal eta_ch or a huge eps turns the spectrum into inf/NaN
        # without raising
        with pytest.raises(DomainError, match="eta_ch"):
            gmcs_point(eta_ch, PARAMS, eps, eta_dmu=COMP.eta_dmu)

    @pytest.mark.parametrize("eta_ch", [1e-160, 1e-210, 1e-300])
    def test_long_link_is_a_finite_zero_rate(self, eta_ch):
        # (V chi_line + 1)^2 overflows from eta_ch ~ 1e-154, but sqrt(b) =
        # eta_ch (V chi_line + 1) stays near V until 1 / eta_ch leaves the range
        point = gmcs_point(eta_ch, PARAMS, 0.01, eta_dmu=COMP.eta_dmu)
        assert point.rate == 0.0
        assert all(math.isfinite(x) for x in (point.i_ab, point.chi_be, *point.sigma))
        assert point.sigma[0] == pytest.approx(PARAMS.v_a + 1.0)

    def test_equals_the_two_step_formulation_bit_for_bit(self):
        rng = random.Random(0)
        points = errors = 0
        for _ in range(10_000):
            params, eta_ch, eps, eta_dmu = random_gmcs_input(rng)
            try:
                expected = two_step_gmcs_point(eta_ch, params, eps, eta_dmu)
            except (DomainError, PhysicalityError) as error:
                with pytest.raises(type(error)) as raised:
                    gmcs_point(eta_ch, params, eps, eta_dmu)
                assert str(raised.value) == str(error)
                errors += 1
                continue
            point = gmcs_point(eta_ch, params, eps, eta_dmu)
            assert type(point) is GmcsPoint and type(point.sigma) is tuple
            for name in ("eps", "i_ab", "chi_be", "rate"):
                assert getattr(point, name) == getattr(expected, name), (name, params, eta_ch, eps, eta_dmu)
            assert len(point.sigma) == 4
            assert all(s == e for s, e in zip(point.sigma, expected.sigma)), (params, eta_ch, eps, eta_dmu)
            assert point.rate <= params.gamma * point.i_ab, (params, eta_ch, eps, eta_dmu)
            points += 1
        # both outcomes are exercised
        assert points > 8_000 and errors > 200

    def test_conditional_eigenvalue_rounded_below_one_has_zero_entropy(self):
        # at T = 0.9999 and eps = 0 the smaller conditional eigenvalue is 1 in
        # exact arithmetic and rounds to 1 - 3 ulp: its theta argument lies in
        # (-THETA_TOL, 0], so its entropy term is 0 and the point is finite
        point = gmcs_point(0.9999, PARAMS, 0.0, eta_dmu=COMP.eta_dmu)
        assert 1.0 - 1e-15 < point.sigma[3] < 1.0
        assert point.chi_be == (
            theta((point.sigma[0] - 1.0) / 2.0) + theta((point.sigma[1] - 1.0) / 2.0) - theta((point.sigma[2] - 1.0) / 2.0)
        )
        assert point.rate > 0

    def test_rounded_negative_conditional_discriminant_is_clamped(self):
        # here pure_part is 2.5e19 and the conditional discriminant rounds to
        # -8192, -3.3e-16 of it: inside DISCRIMINANT_RTOL, so it is clamped to
        # 0 and no PhysicalityError is raised. The clamped pair still meets
        # Vieta's formulas: its product to 1e-9, and its sum to the ~sqrt(ulp)
        # that a gap lost to rounding leaves in the eigenvalues.
        det = GmcsParams(v_a=1e5, v_el=2e4, eta_bob=1e-3)
        eta_ch, eps, eta_dmu = 0.5, 1e5, 0.05
        point = gmcs_point(eta_ch, det, eps, eta_dmu)
        v = det.v_a + 1
        chi_line = 1 / eta_ch - 1 + eps
        chi_hom = (1 + det.v_el) / (eta_dmu * det.eta_bob) - 1
        chi_tot = chi_line + chi_hom / eta_ch
        a = v * v * (1 - 2 * eta_ch) + 2 * eta_ch + eta_ch**2 * (v + chi_line) ** 2
        sqrt_b = eta_ch * (v * chi_line + 1)
        c = (v * sqrt_b + eta_ch * (v + chi_line) + a * chi_hom) / (eta_ch * (v + chi_tot))
        d = sqrt_b * (v + sqrt_b * chi_hom) / (eta_ch * (v + chi_tot))
        s3, s4 = point.sigma[2:]
        assert s3**2 * s4**2 == pytest.approx(d, rel=1e-9)
        assert s3**2 + s4**2 == pytest.approx(c, rel=1e-7)
        assert point.rate == 0.0

    def test_tiny_modulation_variance_is_a_valid_point(self):
        # v = v_a + 1 drops the digits of a v_a of 1e-16, so V^2 - 1 formed
        # as v*v - 1 cancels to rounding and the conditional discriminant came
        # out at -3e-55, beyond tolerance; v_a*(v_a + 2) keeps them
        det = GmcsParams(v_a=1.1800387557218664e-16, v_el=0.0, eta_bob=0.6615857397910472)
        point = gmcs_point(0.9999999999972817, det, 1.3891558643929069e-27, 0.8174182464622847)
        assert point.sigma == (1.0, 1.0, 1.0, 1.0)
        assert point.chi_be == 0.0 and point.rate > 0

    def test_tiny_modulation_variances_near_a_pure_state_are_points(self):
        # v_a in [1e-17, 1e-12] on links within 1e-9 of lossless and
        # excess noise of 1e-30 to 1e-20: v*v - 1 raised PhysicalityError on
        # about 0.7% of these
        rng = random.Random(29)
        for _ in range(2_000):
            det = GmcsParams(v_a=log_uniform(rng, -17, -12), v_el=0.0, eta_bob=rng.uniform(0.01, 1.0))
            eta_ch, eps = 1.0 - log_uniform(rng, -16, -9), log_uniform(rng, -30, -20)
            point = gmcs_point(eta_ch, det, eps, rng.uniform(0.5, 1.0))
            assert all(abs(s - 1.0) < 1e-8 for s in point.sigma), (det, eta_ch, eps)

    def test_large_modulation_variance_near_a_pure_state_is_a_point(self):
        # sqrt(b) formed as T*(V*chi_line + 1) kept the rounding of
        # chi_line = 1/T - 1 + eps, which V = 5.66e7 magnified until sigma_2
        # fell 1e-9 below 1 and its theta argument below -THETA_TOL
        det = GmcsParams(v_a=5.66e7, v_el=0.0, eta_bob=1.0)
        point = gmcs_point(0.9999999817627512, det, 2.56e-154, 1.0)
        assert point.sigma[1] == point.sigma[3] == 1.0
        assert point.rate > 0

    def test_large_modulation_variances_near_a_pure_state_are_points(self):
        # v_a in [1e7, 1e8] on links within 1e-7 of lossless: sqrt(b) formed
        # from chi_line raised a theta DomainError on about 0.8% of these
        rng = random.Random(30)
        for _ in range(2_000):
            det = GmcsParams(v_a=log_uniform(rng, 7, 8), v_el=0.0, eta_bob=rng.uniform(0.5, 1.0))
            eta_ch, eps = 1.0 - log_uniform(rng, -9, -7), log_uniform(rng, -200, -20)
            point = gmcs_point(eta_ch, det, eps, rng.uniform(0.5, 1.0))
            assert all(s > 1.0 - 1e-12 for s in point.sigma), (det, eta_ch, eps)

    def test_cancelled_chi_be_lifts_no_rate(self):
        # sigma_1 ~ sigma_3 ~ V: the four theta terms cancel to a raw chi_BE
        # of -2.3e-13, which, subtracted from gamma * I_AB = 0, gave a rate
        # of 2.33e-13 with I_AB and the reported chi_BE both 0
        det = GmcsParams(v_a=235.46684476888367, eta_bob=0.6, v_el=0.0, gamma=0.9)
        point = gmcs_point(2.5971768574591613e-39, det, 0.00036027051165420137, 0.7)
        assert point.i_ab == point.chi_be == point.rate == 0.0
        assert point.rate <= det.gamma * point.i_ab

    def test_points_leave_no_resized_tuples_behind(self):
        # a tuple built from a generator is resized, and CPython keeps each
        # freed one on the free list of its new size, up to 2,000 a size; a
        # full collection empties the lists, so none may run here
        gmcs_point(0.5, PARAMS, 0.01, eta_dmu=COMP.eta_dmu)
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(3000):
                gmcs_point(0.5, GmcsParams(eps0=0.02), 0.01, eta_dmu=COMP.eta_dmu)
            grown = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert grown < 500


class TestExactRate:
    def test_rate_matches_the_decimal_oracle(self):
        # 300 seeded points over the built-in scenarios' domain: the float
        # rate is the exact rate, floored at 0, to within 1e-12
        rng = random.Random(1)
        for _ in range(300):
            params = GmcsParams(v_a=rng.uniform(1, 100), v_el=rng.choice([0.0, 0.01, 0.1]))
            eta_ch, eps = log_uniform(rng, -2, 0), rng.uniform(0, 0.2)
            rate = gmcs_point(eta_ch, params, eps, COMP.eta_dmu).rate
            exact = exact_rate(eta_ch, params, eps, COMP.eta_dmu)
            assert abs(rate - max(exact, 0.0)) <= 1e-12, (eta_ch, params, eps)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: chi_BE cancels in the far tail and the float rate is positive where the exact rate is not",
    )
    def test_no_key_in_the_far_tail(self):
        config = parse_config("[link]\nclassical_channel_count = 0\n[gmcs]\nv_a = 235\neps0 = 0.00036\nv_el = 0\n")
        evaluation = evaluate(Scenario("gmcs", config.link, config.comp, config.gmcs), 647.7)
        exact = exact_rate(evaluation.eta_ch, config.gmcs, evaluation.point.eps, config.comp.eta_dmu)
        assert exact < 0
        assert evaluation.point.rate == 0.0


class TestSecureDistance:
    def test_zero_when_never_positive(self):
        assert secure_distance(lambda z: 0.0, 80) == 0.0

    def test_linear_rate_root(self):
        dist = secure_distance(lambda z: max(0.0, 25.0 - z), 80)
        assert dist == pytest.approx(25.0, abs=0.05)

    def test_single_crossing_does_not_warn(self):
        # one sign change on the grid is the ordinary case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert secure_distance(lambda z: max(0.0, 25.0 - z), 80) == pytest.approx(25.0, abs=0.05)

    def test_warns_when_positive_at_zmax(self):
        with pytest.warns(UserWarning):
            assert secure_distance(lambda z: 1.0, 30) == 30

    @pytest.mark.parametrize(
        "rate, z_max, bisections",
        [
            (lambda z: 10.3 - z, 20.0, 5),  # bracket [10, 11] halves to 1/32 km
            (lambda z: 0.0, 20.0, 0),
            (lambda z: 5.0 - z, 20.5, 5),  # z_max off the 1 km grid is scanned too
        ],
    )
    def test_one_call_per_grid_point_and_bisection_step(self, rate, z_max, bisections):
        calls = []

        def counting(z):
            calls.append(z)
            return rate(z)

        secure_distance(counting, z_max)
        grid_points = int(z_max) + 1 + (z_max != int(z_max))
        assert len(calls) == grid_points + bisections
        assert len(set(calls)) == len(calls)

    def test_warns_on_several_crossings_and_keeps_largest_root(self):
        rate = lambda z: 1.0 if z < 3 or 10 < z < 15.5 else 0.0  # noqa: E731
        with pytest.warns(UserWarning, match="more than once"):
            dist = secure_distance(rate, 30)
        assert dist == pytest.approx(15.5, abs=0.05)

    def test_38_channel_scenario_near_10km(self):
        det = PARAMS
        dist = secure_distance(lambda z: rate_at(z, m=38).rate, 80)
        assert 8 <= dist <= 12

    def test_conservative_100mhz_detector_near_14km(self):
        det = dataclasses.replace(
            PARAMS, v_el=0.1, detector_bandwidth_hz=100e6, conservative=True
        )
        dist = secure_distance(lambda z: rate_at(z, m=1, det=det).rate, 80)
        assert 12 <= dist <= 16
