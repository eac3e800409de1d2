import copy
import dataclasses
import json
import math
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import dwdm_qkd
from dwdm_qkd.noise import (
    ComponentParams,
    DomainError,
    FrozenRecord,
    LinkParams,
    NoiseBudget,
    NoiseModel,
    UnfittableError,
    channel_transmittance,
    compute_noise_budget,
    fit_raman_coefficient,
    frozen_params,
)
from dwdm_qkd.bb84 import Bb84Params, Bb84Point
from dwdm_qkd.gmcs import GmcsParams, GmcsPoint
from dwdm_qkd.config import DEFAULT_Z_KM, Config
from dwdm_qkd.scenarios import DEFAULT_Z_GRID, Evaluation, Scenario, SweepResult, run_sweep, scenario_by_name
from dwdm_qkd.units import PLANCK_H, SPEED_OF_LIGHT, dbm_to_watts, photon_energy

TABLE_LINK = LinkParams()
TABLE_COMP = ComponentParams()


def closed_form_budget(link, comp, z_km, delta_t_s, eta_bob=0.0, detector_bandwidth_hz=None, n_lo=None):
    """Every NoiseBudget field from the paper's closed forms, written out
    here apart from the noise model: ASE 2*n_sp*(G - 1) per mode times xi1,
    leakage xi2*P_out/(h*nu_c) per second, SASRS
    lambda^3/(h*c^2)*P_out*beta*z*eta_dmu per mode, each times the channel
    count, and delta_nu*delta_t modes per window."""
    m = link.classical_channel_count
    p_w = 1e-3 * 10.0 ** (link.p_out_dbm / 10.0)
    eta_ch = 10.0 ** (-link.alpha_db_per_km * z_km / 10.0)
    modes = comp.delta_nu_hz * delta_t_s
    gain = comp.gain_fixed if comp.gain_fixed is not None else comp.gain_g0 / eta_ch
    nf = 10.0 ** (comp.nf_db / 10.0)
    if m == 0 or gain <= 1:
        n_ase = 0.0
    else:
        n_sp = (nf * gain - 1.0) / (2.0 * (gain - 1.0)) if comp.nsp_exact else nf / 2.0
        n_ase = 2.0 * n_sp * (gain - 1.0)
    lam_q = link.lambda_quantum_nm * 1e-9
    lam_c = link.lambda_classical_nm * 1e-9
    ase_mode = m * comp.xi1 * n_ase
    leak_rate = m * comp.xi2 * p_w * lam_c / (PLANCK_H * SPEED_OF_LIGHT)
    sasrs_mode = m * lam_q**3 / (PLANCK_H * SPEED_OF_LIGHT**2) * p_w * link.beta_raman * 1e9 * z_km * comp.eta_dmu
    ase_window = modes * eta_ch * comp.eta_dmu * ase_mode
    leak_window = leak_rate * delta_t_s
    sasrs_window = modes * sasrs_mode
    n_spd = ase_window + leak_window + sasrs_window
    matched = 0.5 * (eta_ch * comp.eta_dmu * ase_mode + sasrs_mode)
    unmatched = eps_out = 0.0
    if detector_bandwidth_hz is not None and n_lo is not None:
        unmatched = n_spd / (2.0 * math.pi * detector_bandwidth_hz * delta_t_s)
        eps_out = eta_bob * unmatched / n_lo
    return {
        "n_ase_per_mode_at_a": ase_mode,
        "n_leak_per_s_at_c": leak_rate,
        "n_sasrs_per_mode_at_c": sasrs_mode,
        "ase_window": ase_window,
        "leak_window": leak_window,
        "sasrs_window": sasrs_window,
        "n_spd_window": n_spd,
        "n_gmcs_matched": matched,
        "n_gmcs_unmatched": unmatched,
        "eps_in": 2.0 * eta_bob * matched,
        "eps_out": eps_out,
    }


def sasrs_band_power_w(p_out_w, beta, z_km, delta_lambda_nm):
    """SASRS power (W) within delta_lambda_nm at the fiber output."""
    return p_out_w * beta * z_km * delta_lambda_nm


def band_power_dbm(photons_per_mode, delta_nu_hz, photon_energy_j, insertion_loss_db=0.0):
    """Optical power (dBm) of photons_per_mode over one channel bandwidth,
    after an insertion loss."""
    p_w = photons_per_mode * delta_nu_hz * photon_energy_j * 10 ** (-insertion_loss_db / 10)
    return 10 * math.log10(p_w / 1e-3)


def ase_photons_per_mode(nf_linear, gain, nsp_exact=False):
    """ASE photons per mode at the amplifier output, read through the noise
    model: one channel, gain pinned to gain, and xi1 = 1 so that the MUX
    passes all of it."""
    comp = ComponentParams(nf_db=10 * math.log10(nf_linear), gain_fixed=gain, xi1=1.0, nsp_exact=nsp_exact)
    return NoiseModel(TABLE_LINK, comp, 1e-9).at(20.0)[1].n_ase_per_mode_at_a


class TestChannelTransmittance:
    def test_zero_length(self):
        assert channel_transmittance(0.0, 0.21) == 1.0

    def test_hand_values(self):
        assert channel_transmittance(20, 0.21) == pytest.approx(0.380189396, rel=1e-8)
        assert channel_transmittance(40, 0.21) == pytest.approx(0.144543977, rel=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            channel_transmittance(-1, 0.21)
        with pytest.raises(DomainError):
            channel_transmittance(1, -0.21)

    @pytest.mark.parametrize("z_km", [math.nan, math.inf, -math.inf, -1.0, -1e-300, 1e308])
    def test_bad_distance_named(self, z_km):
        with pytest.raises(DomainError, match="z_km"):
            channel_transmittance(z_km, 0.21)


class TestParamsValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "params",
        [LinkParams(), ComponentParams(), Bb84Params(), GmcsParams()],
        ids=lambda p: type(p).__name__,
    )
    def test_non_finite_float_field_named(self, params, bad):
        names = [f.name for f in dataclasses.fields(params)]
        floats = [n for n in names if isinstance(getattr(params, n), float)]
        if isinstance(params, ComponentParams):
            floats.append("gain_fixed")  # None by default, a float when set
        assert floats
        for name in floats:
            with pytest.raises(DomainError, match=name):
                dataclasses.replace(params, **{name: bad})

    def test_gain_fixed_may_stay_unset(self):
        assert ComponentParams(gain_fixed=None).gain_fixed is None

    def test_underflowing_transmittance_rejected(self):
        with pytest.raises(DomainError, match="z_km"):
            channel_transmittance(1e308, 0.21)
        with pytest.raises(DomainError, match="z_km"):
            channel_transmittance(20.0, 1e300)
        assert channel_transmittance(1500.0, 0.21) > 0

    def test_steep_link_is_valid_and_checked_per_distance(self):
        # a link is valid apart from any distance: only a distance whose
        # transmittance underflows is rejected, when it is evaluated
        steep = LinkParams(alpha_db_per_km=1e300)
        assert compute_noise_budget(steep, TABLE_COMP, 0.0, 1e-9).n_spd_window > 0
        with pytest.raises(DomainError, match="z_km"):
            compute_noise_budget(steep, TABLE_COMP, 20.0, 1e-9)


class TestNsp:
    # n_sp is the ASE per mode over 2*(G - 1)
    def test_high_gain_identity(self):
        # NF = 2 n_sp in the high-gain convention
        assert ase_photons_per_mode(3.0, 1e9) / (2 * (1e9 - 1)) == pytest.approx(1.5, rel=1e-12)

    def test_exact_inversion(self):
        nf = 10 ** 0.55  # 5.5 dB
        assert ase_photons_per_mode(nf, 100, nsp_exact=True) / 198 == pytest.approx(1.78694, rel=1e-4)
        assert ase_photons_per_mode(nf, 100) / 198 == pytest.approx(1.77407, rel=1e-4)

    def test_unity_gain_and_sub_unity_nf(self):
        # a unity-gain amplifier emits no ASE, so n_sp is never inverted
        assert ase_photons_per_mode(2.0, 1.0, nsp_exact=True) == 0.0
        with pytest.raises(DomainError, match="^nf_db"):
            ComponentParams(nf_db=10 * math.log10(0.5))


class TestAse:
    def test_unity_gain_amplifier(self):
        assert ase_photons_per_mode(3.0, 1.0) == 0.0

    def test_ideal_amplifier(self):
        assert ase_photons_per_mode(2.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_bench_value(self):
        # NF = 5.5 dB, G = 100, high-gain convention
        assert ase_photons_per_mode(10 ** 0.55, 100) == pytest.approx(351.27, abs=0.01)

    def test_below_spontaneous_limit(self):
        comp = ComponentParams(nf_db=10 * math.log10(1.8), gain_fixed=100.0)
        with pytest.raises(DomainError, match="^nf_db .* n_sp = 0.9 < 1"):
            NoiseModel(TABLE_LINK, comp, 1e-9).at(20.0)

    def test_sub_limit_nf_passes_where_no_amplifier_gain_is_used(self):
        # n_sp is only formed for an amplifier with gain above 1 on a link
        # that carries classical channels
        comp = ComponentParams(nf_db=2.0)
        quiet = LinkParams(classical_channel_count=0)
        assert NoiseModel(quiet, comp, 1e-9).at(20.0)[1].n_spd_window == 0.0
        unity = ComponentParams(nf_db=2.0, gain_fixed=1.0)
        assert NoiseModel(TABLE_LINK, unity, 1e-9).at(20.0)[1].ase_window == 0.0

    def test_after_mux(self):
        def after_mux(xi1):
            comp = ComponentParams(nf_db=5.5, gain_fixed=100.0, xi1=xi1)
            return NoiseModel(TABLE_LINK, comp, 1e-9).at(20.0)[1].n_ase_per_mode_at_a

        assert after_mux(0.0) == 0.0
        assert after_mux(1e-8) == pytest.approx(3.5127e-6, rel=1e-4)
        # linear in the isolation
        assert after_mux(2e-8) == pytest.approx(2 * after_mux(1e-8), rel=1e-12)

    def test_band_power(self):
        n_ase = ase_photons_per_mode(10 ** 0.55, 100)
        assert band_power_dbm(n_ase, 75e9, 1.28e-19) == pytest.approx(-24.72, abs=0.01)
        assert band_power_dbm(n_ase, 75e9, 1.28e-19, insertion_loss_db=0.9) == pytest.approx(-25.62, abs=0.01)


class TestLeakage:
    @staticmethod
    def leak_rate(link=TABLE_LINK, xi2=1e-8):
        comp = ComponentParams(xi2=xi2)
        return NoiseModel(link, comp, 1e-9).at(20.0)[1].n_leak_per_s_at_c

    def test_no_power(self):
        assert self.leak_rate(xi2=0.0) == 0.0
        assert self.leak_rate(link=LinkParams(classical_channel_count=0)) == 0.0

    def test_hand_value(self):
        # 1 mW at 1550.8 nm, h*nu ~ 1.28e-19 J
        assert self.leak_rate() == pytest.approx(7.8125e7, rel=1e-3)
        assert self.leak_rate() == pytest.approx(1e-8 * 1e-3 / photon_energy(1550.8e-9), rel=1e-12)

    def test_adjacent_isolation_scaling(self):
        assert self.leak_rate(xi2=1e-4) == pytest.approx(1e4 * self.leak_rate(), rel=1e-12)


class TestSasrs:
    @staticmethod
    def per_mode(z_km):
        return compute_noise_budget(TABLE_LINK, TABLE_COMP, z_km, 1e-9).n_sasrs_per_mode_at_c

    def test_zero_length(self):
        assert sasrs_band_power_w(1e-3, 4e-9, 0.0, 0.6) == 0.0
        assert self.per_mode(0.0) == 0.0

    def test_band_power_values(self):
        # the synthetic Raman points of the fit tests rest on these
        p4dbm = dbm_to_watts(4.0)
        assert sasrs_band_power_w(p4dbm, 2.85e-9, 20, 0.6) == pytest.approx(8.59e-11, rel=1e-3)
        assert sasrs_band_power_w(1e-3, 4e-9, 20, 0.6) == pytest.approx(4.8e-11, rel=1e-9)

    def test_per_mode_value_and_linearity(self):
        # 0 dBm, beta = 4e-9 /(km nm), 1550 nm, eta_dmu = 0.71
        per20 = self.per_mode(20.0)
        assert per20 == pytest.approx(3.5518e-3, rel=1e-4)
        assert self.per_mode(10.0) == pytest.approx(per20 / 2, rel=1e-12)

    @pytest.mark.parametrize("dl_nm", [0.1, 0.6, 1.0])
    def test_bandwidth_cancellation(self, dl_nm):
        # per-mode closed form must equal band power / (h nu N_mode) * eta_dmu
        # for any bandwidth choice
        lam = 1.55e-6
        band_w = sasrs_band_power_w(1e-3, 4e-9, 20, dl_nm)
        n_mode = SPEED_OF_LIGHT / lam**2 * (dl_nm * 1e-9)
        h_nu = PLANCK_H * SPEED_OF_LIGHT / lam
        via_band = band_w / (h_nu * n_mode) * 0.71
        assert self.per_mode(20.0) == pytest.approx(via_band, rel=1e-12)


class TestModeCount:
    def test_values(self):
        # a window of delta_nu * delta_t modes, read off the SASRS window
        for delta_t_s, modes in ((1e-9, 75.0), (1 / 75e9, 1.0)):
            budget = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, delta_t_s)
            assert budget.sasrs_window == pytest.approx(modes * budget.n_sasrs_per_mode_at_c, rel=1e-12)
        with pytest.raises(DomainError, match="^delta_nu_hz"):
            ComponentParams(delta_nu_hz=0.0)


class TestBudget:
    def test_quiet_link_is_zero(self):
        link = LinkParams(classical_channel_count=0, p_out_dbm=-300)
        budget = compute_noise_budget(link, TABLE_COMP, 0.0, 1e-9)
        assert budget.n_spd_window == 0.0
        assert budget.n_gmcs_matched == 0.0

    def test_decomposition_is_exact(self):
        budget = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, 1e-9)
        assert budget.n_spd_window == budget.ase_window + budget.leak_window + budget.sasrs_window

    def test_eq8_recomputable_from_mode_fields(self):
        budget = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, 1e-9)
        eta_ch = channel_transmittance(20, 0.21)
        n_mod = 75e9 * 1e-9
        recomputed = (
            n_mod * eta_ch * 0.71 * budget.n_ase_per_mode_at_a
            + budget.n_leak_per_s_at_c * 1e-9
            + n_mod * budget.n_sasrs_per_mode_at_c
        )
        assert budget.n_spd_window == pytest.approx(recomputed, rel=1e-12)

    def test_table2_20km_level_and_dominance(self):
        budget = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, 1e-9)
        assert budget.n_spd_window == pytest.approx(0.345, abs=0.01)
        assert budget.sasrs_window > budget.leak_window > budget.ase_window

    def test_leakage_sasrs_crossover_near_6km(self):
        # constant leakage term vs z-linear SASRS term
        budget = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, 1e-9)
        slope = budget.sasrs_window / 20.0
        crossover = budget.leak_window / slope
        assert 4 <= crossover <= 9

    def test_linearity_in_power_and_channels(self):
        b1 = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, 1e-9, eta_bob=0.6)
        up3db = dataclasses.replace(TABLE_LINK, p_out_dbm=3.0103)
        b2 = compute_noise_budget(up3db, TABLE_COMP, 20.0, 1e-9)
        assert b2.leak_window == pytest.approx(2 * b1.leak_window, rel=1e-4)
        assert b2.sasrs_window == pytest.approx(2 * b1.sasrs_window, rel=1e-4)
        m38 = dataclasses.replace(TABLE_LINK, classical_channel_count=38)
        b38 = compute_noise_budget(m38, TABLE_COMP, 20.0, 1e-9, eta_bob=0.6)
        assert b38.eps_in == pytest.approx(38 * b1.eps_in, rel=1e-12)

    def test_window_noise_nondecreasing_in_z(self):
        values = []
        for z in [0, 1, 2, 5, 10, 20, 40, 60, 80]:
            values.append(compute_noise_budget(TABLE_LINK, TABLE_COMP, z, 1e-9).n_spd_window)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matched_mode_example(self):
        budget = compute_noise_budget(TABLE_LINK, TABLE_COMP, 20.0, 1e-9, eta_bob=0.6)
        assert budget.n_gmcs_matched == pytest.approx(1.78e-3, rel=0.02)
        assert budget.eps_in == pytest.approx(2.13e-3, rel=0.02)

    def test_unmatched_mode_scaling(self):
        budget = compute_noise_budget(
            TABLE_LINK, TABLE_COMP, 20.0, 1e-9, eta_bob=0.6, detector_bandwidth_hz=1e6, n_lo=1e8
        )
        # 1 MHz detector: integration window 0.16 us = 160 gating windows
        assert budget.n_gmcs_unmatched == pytest.approx(
            159.15 * budget.n_spd_window, rel=1e-3
        )
        assert 1e-7 < budget.eps_out < 1e-5

    def test_no_classical_channels(self):
        link = dataclasses.replace(TABLE_LINK, classical_channel_count=0)
        budget = compute_noise_budget(link, TABLE_COMP, 20.0, 1e-9, eta_bob=0.6)
        assert budget.n_spd_window == 0.0
        assert budget.eps_in == 0.0


HOMODYNE = {"eta_bob": 0.6, "detector_bandwidth_hz": 1e6, "n_lo": 1e8}

# (link, comp, z_km, delta_t_s, homodyne keywords, message): each input breaks
# one thing, and the message names it
BUDGET_ERRORS = [
    (TABLE_LINK, TABLE_COMP, -1.0, 1e-9, {}, "z_km must be finite and >= 0, got -1.0"),
    (TABLE_LINK, TABLE_COMP, math.nan, 1e-9, {}, "z_km must be finite and >= 0, got nan"),
    (TABLE_LINK, TABLE_COMP, math.inf, 1e-9, {}, "z_km must be finite and >= 0, got inf"),
    (TABLE_LINK, TABLE_COMP, 1e308, 1e-9, {}, "z_km = 1e+308 makes the channel transmittance underflow to 0"),
    # high gain: n_sp = NF/2 < 1 for NF = 10^0.2
    (
        TABLE_LINK,
        ComponentParams(nf_db=2.0),
        20.0,
        1e-9,
        {},
        "nf_db = 2.0 gives n_sp = 0.792447 < 1 (NF/2, nsp_convention = highgain); "
        "n_sp must be >= 1, the spontaneous-emission limit",
    ),
    (
        TABLE_LINK,
        ComponentParams(nf_db=1.0, gain_fixed=2.0, nsp_exact=True),
        20.0,
        1e-9,
        {},
        "nf_db = 1.0 gives n_sp = 0.758925 < 1 ((NF*G - 1)/(2*(G - 1)) at G = 2, nsp_convention = exact); "
        "n_sp must be >= 1, the spontaneous-emission limit",
    ),
    (TABLE_LINK, TABLE_COMP, 20.0, 0.0, {}, "delta_t_s must be finite and > 0, got 0.0"),
    (TABLE_LINK, TABLE_COMP, 20.0, -1e-9, {}, "delta_t_s must be finite and > 0, got -1e-09"),
    (TABLE_LINK, TABLE_COMP, 20.0, math.nan, {}, "delta_t_s must be finite and > 0, got nan"),
    (TABLE_LINK, TABLE_COMP, 20.0, math.inf, {}, "delta_t_s must be finite and > 0, got inf"),
    (TABLE_LINK, TABLE_COMP, 20.0, 1e-9, {"eta_bob": math.inf}, "eta_bob must be finite and in [0, 1], got inf"),
    (TABLE_LINK, TABLE_COMP, 20.0, 1e-9, {"eta_bob": -1.0}, "eta_bob must be finite and in [0, 1], got -1.0"),
    (TABLE_LINK, TABLE_COMP, 20.0, 1e-9, {**HOMODYNE, "n_lo": 0.0}, "n_lo must be finite and > 0, got 0.0"),
    (TABLE_LINK, TABLE_COMP, 20.0, 1e-9, {**HOMODYNE, "n_lo": math.inf}, "n_lo must be finite and > 0, got inf"),
    (
        TABLE_LINK,
        TABLE_COMP,
        20.0,
        1e-9,
        {**HOMODYNE, "detector_bandwidth_hz": -1.0},
        "detector_bandwidth_hz must be finite and > 0, got -1.0",
    ),
    (
        TABLE_LINK,
        TABLE_COMP,
        20.0,
        1e-9,
        {**HOMODYNE, "detector_bandwidth_hz": math.nan},
        "detector_bandwidth_hz must be finite and > 0, got nan",
    ),
    # the gain schedule gain_g0 / eta_ch overflows
    (TABLE_LINK, TABLE_COMP, 14800.0, 1e-9, {}, "the noise budget at z_km = 14800.0 overflows a float"),
]


class TestNoiseModel:
    @pytest.mark.parametrize("homodyne", [{}, HOMODYNE, {**HOMODYNE, "eta_bob": 1.0}])
    @pytest.mark.parametrize("gain_fixed", [None, 1.0, 50.0])
    @pytest.mark.parametrize("nsp_exact", [False, True])
    @pytest.mark.parametrize("channels", [0, 1, 38])
    def test_at_is_the_closed_form_budget(self, channels, nsp_exact, gain_fixed, homodyne):
        # distinct isolations, so that a model that swaps them fails
        link = dataclasses.replace(TABLE_LINK, classical_channel_count=channels, p_out_dbm=1.5)
        comp = dataclasses.replace(TABLE_COMP, nsp_exact=nsp_exact, gain_fixed=gain_fixed, xi1=2e-8, xi2=5e-9)
        model = NoiseModel(link, comp, 1e-9, **homodyne)
        for z in (0.0, 0.5, 1.0, 9.890625, 20.0, 80.0, 700.0):
            eta_ch, budget = model.at(z)
            assert eta_ch == channel_transmittance(z, link.alpha_db_per_km)
            expected = closed_form_budget(link, comp, z, 1e-9, **homodyne)
            got = budget.as_dict()
            assert got.keys() == expected.keys()
            for name, value in expected.items():
                assert math.isclose(got[name], value, rel_tol=1e-12, abs_tol=0.0), (z, name, got[name], value)

    def test_model_is_frozen(self):
        model = NoiseModel(TABLE_LINK, TABLE_COMP, 1e-9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.link = LinkParams()

    @pytest.mark.parametrize("link, comp, z_km, delta_t_s, homodyne, message", BUDGET_ERRORS)
    def test_errors_name_their_input(self, link, comp, z_km, delta_t_s, homodyne, message):
        with pytest.raises(DomainError) as wrapped:
            compute_noise_budget(link, comp, z_km, delta_t_s, **homodyne)
        assert str(wrapped.value) == message
        with pytest.raises(DomainError) as direct:
            NoiseModel(link, comp, delta_t_s, **homodyne).at(z_km)
        assert str(direct.value) == message

    @pytest.mark.parametrize("lambda_q, lambda_c", [(0.0, 1550.8), (-10.0, -5.0)])
    def test_non_positive_quantum_wavelength_is_named(self, lambda_q, lambda_c):
        with pytest.raises(DomainError, match="lambda_quantum_nm"):
            LinkParams(lambda_quantum_nm=lambda_q, lambda_classical_nm=lambda_c)

    @pytest.mark.parametrize(
        "lambda_q, lambda_c, name",
        [(1e300, 2e300, "lambda_quantum_nm"), (6e111, 7e111, "lambda_quantum_nm"), (1550.0, 1e308, "lambda_classical_nm")],
    )
    def test_huge_wavelength_is_named(self, lambda_q, lambda_c, name):
        # the SASRS prefactor cubes lambda_q in meters, and the leakage rate
        # divides by the photon energy at lambda_c
        with pytest.raises(DomainError, match=name):
            LinkParams(lambda_quantum_nm=lambda_q, lambda_classical_nm=lambda_c)

    def test_largest_cubable_wavelength_overflows_as_a_budget_error(self):
        # 5e102 m still cubes to a float; the budget it gives is not finite
        link = LinkParams(lambda_quantum_nm=5e111, lambda_classical_nm=6e111)
        with pytest.raises(DomainError, match="overflows a float"):
            NoiseModel(link, ComponentParams(), 1e-9).at(10.0)


def exact_fit(points, p_out_w, delta_lambda_nm):
    """float() of the least-squares Raman fit in rational arithmetic;
    OverflowError when it is past the float max."""
    num = sum(Fraction(p) * Fraction(z) for z, p in points)
    sum_z2 = sum(Fraction(z) ** 2 for z, _ in points)
    return float(num / (Fraction(p_out_w) * Fraction(delta_lambda_nm) * sum_z2))


def assert_exact_fit(beta, points, p_out_w, delta_lambda_nm):
    exact = exact_fit(points, p_out_w, delta_lambda_nm)
    assert abs(beta - exact) <= 4 * math.ulp(exact), (beta, exact)


class TestRamanFit:
    def test_single_point_round_trip(self):
        beta = 4e-9
        p_out = 1e-3
        p20 = sasrs_band_power_w(p_out, beta, 20, 0.6)
        assert fit_raman_coefficient([(20, p20)], p_out, 0.6) == pytest.approx(beta, rel=1e-12)

    def test_two_spool_fit_with_insertion_loss(self):
        beta = 2.85e-9
        p_out = dbm_to_watts(4.0)
        il_db = 1.43
        points = [
            (z, sasrs_band_power_w(p_out, beta, z, 0.6) * 10 ** (-il_db / 10))
            for z in (20, 40)
        ]
        fitted = fit_raman_coefficient(points, p_out, 0.6, insertion_loss_db=il_db)
        assert fitted == pytest.approx(beta, rel=1e-3)

    def test_noisy_monte_carlo_round_trip(self):
        rng = random.Random(1234)
        beta = 3.1e-9
        p_out = 2e-3
        points = [
            (z, sasrs_band_power_w(p_out, beta, z, 0.6) * (1 + rng.gauss(0, 0.01)))
            for z in range(5, 45, 5)
        ]
        fitted = fit_raman_coefficient(points, p_out, 0.6)
        assert fitted == pytest.approx(beta, rel=0.02)

    @pytest.mark.parametrize(
        "points, beta",
        [
            ([(0.0, 1e-10), (20.0, 1e-10)], 8.333333333333334e-09),
            ([(0.0, 0.0), (20.0, 1e-10)], 8.333333333333334e-09),
            ([(20.0, 0.0)], 0.0),
        ],
    )
    def test_zero_distance_and_zero_power_are_valid_points(self, points, beta):
        # a point at z = 0 is accepted and carries no weight; a power of 0 is a measurement
        assert fit_raman_coefficient(points, 1e-3, 0.6) == beta

    def test_unfittable(self):
        with pytest.raises(UnfittableError):
            fit_raman_coefficient([(0.0, 1e-11)], 1e-3, 0.6)

    @pytest.mark.parametrize("p_out_w, delta_lambda_nm, name", [(0.0, 0.6, "p_out_w"), (1e-3, 0.0, "delta_lambda_nm")])
    def test_zero_power_or_band_is_named(self, p_out_w, delta_lambda_nm, name):
        # each has its own message, not the product's "underflows to 0"
        with pytest.raises(DomainError, match=rf"^{name} must be positive, got 0\.0$"):
            fit_raman_coefficient([(20.0, 1e-10)], p_out_w, delta_lambda_nm)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(math.inf, 1e-10)], "measurement point inf km: 1e-10 W "),
            ([(20, math.inf)], "measurement point 20 km: inf W "),
        ],
        ids=["distance", "power"],
    )
    def test_infinite_point_is_named(self, points, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}must be finite and >= 0$"):
            fit_raman_coefficient(points, 1e-3, 0.6)

    @pytest.mark.parametrize(
        "points, p_out_w, delta_lambda_nm",
        [
            # every z * z underflows to 0
            ([(1e-200, 1e-12)], 1e-3, 0.6),
            ([(1e-170, 1e-12), (1e-180, 0.0)], 1e-3, 0.6),
            # sum z^2 overflows a float
            ([(1e200, 1e-12)], 1e-3, 0.6),
            ([(1e154, 1e-12), (1e154, 1e-12), (5.0, 0.0)], 1e-3, 0.6),
            # sum z^2 = 1e200 is a float, but times the scale 1e197 W*nm it is not
            ([(1e100, 1e100)], 1e197, 1.0),
            # sum p*z overflows a float, the fit 1.7e9 does not
            ([(1e154, 1e160)], 1e-3, 0.6),
            # the powers are 0 and sum z^2 underflows: the fit is 0 exactly
            ([(1e-200, 0.0)], 1e-3, 0.6),
            # the scale times sum z^2, 6e-4 * 6.1e-312, is subnormal
            ([(2.47e-156, 1.2e-15)], 1e-3, 0.6),
            # p*z = 1e-296 is 2^-1083 of the far point's z, whose power is 0
            ([(1e30, 0.0), (1e-150, 1e-146)], 1e-100, 1e-3),
        ],
        ids=["square-underflows", "squares-underflow", "square-overflows", "sum-overflows", "denominator-overflows",
             "numerator-overflows", "zero-powers", "subnormal-denominator", "far-zero-power"],
    )
    def test_fit_past_the_range_of_its_sums_is_exact(self, points, p_out_w, delta_lambda_nm):
        # no sum or product inside the fit leaves the float range, so only
        # the fit itself can overflow or round to a subnormal or 0
        assert_exact_fit(fit_raman_coefficient(points, p_out_w, delta_lambda_nm), points, p_out_w, delta_lambda_nm)

    @pytest.mark.parametrize("z, p_out_w", [(1e200, 1e-3), (1e100, 1e197)], ids=["sum", "product"])
    def test_zero_powers_fit_zero_past_an_overflowing_denominator(self, z, p_out_w):
        # with every power 0, num / inf = 0 is the exact fit
        assert fit_raman_coefficient([(z, 0.0)], p_out_w, 1.0) == 0.0

    def test_fit_is_within_4_ulp_of_the_exact_value(self):
        # 2,000 seeded fits spanning 300 decades of distance and power: each
        # is the rational fit rounded to a float within 4 ulp, and the fit
        # is rejected exactly when the rational fit is past the float max
        rng = random.Random(33)
        log_uniform = lambda lo, hi: 10 ** rng.uniform(lo, hi)  # noqa: E731
        overflows = 0
        for _ in range(2000):
            points = [
                (log_uniform(-150, 150), log_uniform(-150, 150) if rng.random() > 0.1 else 0.0)
                for _ in range(rng.randint(1, 4))
            ]
            p_out_w, delta_lambda_nm = log_uniform(-100, 100), log_uniform(-3, 3)
            try:
                exact_fit(points, p_out_w, delta_lambda_nm)
            except OverflowError:
                overflows += 1
                with pytest.raises(DomainError, match="^the fitted Raman coefficient overflows a float$"):
                    fit_raman_coefficient(points, p_out_w, delta_lambda_nm)
            else:
                assert_exact_fit(fit_raman_coefficient(points, p_out_w, delta_lambda_nm), points, p_out_w, delta_lambda_nm)
        assert 0 < overflows < 2000

    def test_underflowing_denominator_is_an_overflowing_coefficient(self):
        # z * z = 1e-200 is a float, but times the scale 1e-300 it is 0: the
        # coefficient, 1e-12 / (1e-300 * 1e-100), overflows
        with pytest.raises(DomainError, match="^the fitted Raman coefficient overflows a float$"):
            fit_raman_coefficient([(1e-100, 1e-12)], 1e-300, 1.0)


_BUDGET = NoiseBudget(1e-3, 2.5e4, 3e-4, 1e-5, 2e-5, 3e-5, 6e-5, 4e-4, 5e-4, 8e-4, 9e-7)
_GMCS_POINT = GmcsPoint(0.05, 1.2, 0.9, 0.18, (11.0, 0.5, 1.0, 2.0))
_EVALUATION = Evaluation(12.5, _BUDGET, 0.55, _GMCS_POINT, 0.4)

# the repr of each instance below, as the frozen dataclasses wrote it
_BUDGET_REPR = (
    "NoiseBudget(n_ase_per_mode_at_a=0.001, n_leak_per_s_at_c=25000.0, n_sasrs_per_mode_at_c=0.0003, "
    "ase_window=1e-05, leak_window=2e-05, sasrs_window=3e-05, n_spd_window=6e-05, n_gmcs_matched=0.0004, "
    "n_gmcs_unmatched=0.0005, eps_in=0.0008, eps_out=9e-07)"
)
_GMCS_POINT_REPR = "GmcsPoint(eps=0.05, i_ab=1.2, chi_be=0.9, rate=0.18, sigma=(11.0, 0.5, 1.0, 2.0))"
_EVALUATION_REPR = f"Evaluation(z_km=12.5, budget={_BUDGET_REPR}, eta_ch=0.55, point={_GMCS_POINT_REPR}, mu=0.4)"
_LINK_REPR = (
    "LinkParams(alpha_db_per_km=0.21, beta_raman=4e-09, classical_channel_count=1, p_out_dbm=0.0, "
    "lambda_quantum_nm=1550.0, lambda_classical_nm=1550.8)"
)
_COMP_REPR = (
    "ComponentParams(nf_db=6.0206, gain_g0=100.0, gain_fixed=None, xi1=1e-08, xi2=1e-08, eta_mux=0.71, "
    "eta_dmu=0.71, delta_nu_hz=75000000000.0, nsp_exact=False)"
)
_BB84_REPR = "Bb84Params(mu=0.5, y0_base=5e-06, e_det=0.003, e0=0.5, eta_bob=0.038, f_ec=1.22, delta_t_s=1e-09)"
_GMCS_REPR = (
    "GmcsParams(v_a=10.0, eta_bob=0.6, eps0=0.01, v_el=0.01, gamma=0.9, n_lo=100000000.0, "
    "detector_bandwidth_hz=1000000.0, sigma_meas=0.024, conservative=False)"
)

# each frozen record: its field names in order, one instance's values, the
# defaults of its trailing fields, and that instance's repr
RECORDS = [
    (
        NoiseBudget,
        (
            "n_ase_per_mode_at_a",
            "n_leak_per_s_at_c",
            "n_sasrs_per_mode_at_c",
            "ase_window",
            "leak_window",
            "sasrs_window",
            "n_spd_window",
            "n_gmcs_matched",
            "n_gmcs_unmatched",
            "eps_in",
            "eps_out",
        ),
        (1e-3, 2.5e4, 3e-4, 1e-5, 2e-5, 3e-5, 6e-5, 4e-4, 5e-4, 8e-4, 9e-7),
        {},
        _BUDGET_REPR,
    ),
    (
        Bb84Point,
        ("y0", "q_mu", "e_mu", "q1", "e1", "rate"),
        (1e-5, 0.01, 0.02, 0.005, 0.03, 1e-4),
        {},
        "Bb84Point(y0=1e-05, q_mu=0.01, e_mu=0.02, q1=0.005, e1=0.03, rate=0.0001)",
    ),
    (GmcsPoint, ("eps", "i_ab", "chi_be", "rate", "sigma"), (0.05, 1.2, 0.9, 0.18, (11.0, 0.5, 1.0, 2.0)), {}, _GMCS_POINT_REPR),
    (
        Evaluation,
        ("z_km", "budget", "eta_ch", "point", "mu"),
        (12.5, _BUDGET, 0.55, _GMCS_POINT, 0.4),
        {"mu": None},
        _EVALUATION_REPR,
    ),
    (
        Scenario,
        ("name", "link", "comp", "detector", "z_grid"),
        ("two-points", LinkParams(), ComponentParams(), GmcsParams(), (0.0, 10.0)),
        {"z_grid": DEFAULT_Z_GRID},
        f"Scenario(name='two-points', link={_LINK_REPR}, comp={_COMP_REPR}, "
        f"detector={_GMCS_REPR}, z_grid=(0.0, 10.0))",
    ),
    (
        SweepResult,
        ("scenario", "rows", "secure_distance_km", "noise_crossover_km"),
        ("two-points", (_EVALUATION,), 31.5, None),
        {},
        f"SweepResult(scenario='two-points', rows=({_EVALUATION_REPR},), secure_distance_km=31.5, "
        "noise_crossover_km=None)",
    ),
    (
        Config,
        ("link", "comp", "bb84", "gmcs", "z_min_km", "z_max_km", "z_step_km", "z_km"),
        (LinkParams(), ComponentParams(), Bb84Params(), GmcsParams(), 0.0, 10.0, 2.5, 35.0),
        {"z_km": DEFAULT_Z_KM},
        f"Config(link={_LINK_REPR}, comp={_COMP_REPR}, bb84={_BB84_REPR}, gmcs={_GMCS_REPR}, "
        "z_min_km=0.0, z_max_km=10.0, z_step_km=2.5, z_km=35.0)",
    ),
]


@pytest.mark.parametrize("cls, names, values, defaults, pinned_repr", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_row_record_contract(cls, names, values, defaults, pinned_repr):
    """The seven frozen records keep the behaviour of the frozen dataclasses
    they were: construction, defaults, equality, hashing, repr, pickling,
    copying and immutability, with replace and as_dict as methods. A record
    is a tuple of its fields, yet never equals a plain tuple."""
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_position, n) for n in names) == values
    assert cls._fields == names
    assert not dataclasses.is_dataclass(cls)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword) == hash(values)
    assert repr(by_position) == repr(by_keyword) == pinned_repr
    assert by_position != values and values != by_position
    assert not (by_position == values or values == by_position)
    for copied in (pickle.loads(pickle.dumps(by_position)), copy.deepcopy(by_position)):
        assert copied == by_position
        assert type(copied) is cls

    required = len(names) - len(defaults)
    assert tuple(names[required:]) == tuple(defaults)
    defaulted = cls(*values[:required])
    for name, default in defaults.items():
        assert getattr(defaulted, name) is default
    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, 0.0)

    assert by_position.as_dict() == dict(zip(names, values))
    assert list(by_position.as_dict()) == list(names)
    changed = by_position.replace(**{names[0]: "changed"})
    assert changed != by_position
    assert getattr(changed, names[0]) == "changed"
    assert tuple(changed.as_dict().values())[1:] == values[1:]
    assert by_position.replace() == by_position
    assert by_position.replace() is not by_position
    with pytest.raises(TypeError):
        by_position.replace(not_a_field=1.0)

    for name in (names[0], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(by_position, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{names[0]}'"):
        delattr(by_position, names[0])
    assert tuple(getattr(by_position, n) for n in names) == values


def test_records_have_no_instance_dict():
    """A record subclass that leaves out __slots__ = () gains a __dict__ on
    every instance, which the records a sweep builds per row must not have."""
    records = [cls(*values) for cls, _, values, _, _ in RECORDS]
    for name in ("bb84-0dBm", "gmcs-none"):
        result = run_sweep(scenario_by_name(name))
        records.append(result)
        for row in result.rows:
            records += (row, row.budget, row.point)
    assert {type(r) for r in records} == {r[0] for r in RECORDS}
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_namedtuple_methods_build_through_the_constructor():
    """_make and _replace, which namedtuple builds with tuple.__new__, go
    through the record's own constructor, so no Scenario skips its checks."""
    values = tuple(float(i) for i in range(11))
    made = NoiseBudget._make(values)
    assert type(made) is NoiseBudget
    assert made == NoiseBudget(*values)
    base = scenario_by_name("gmcs-none")
    assert base._replace(z_grid=(0.0, 1.0)) == base.replace(z_grid=(0.0, 1.0))
    for changes, message in (
        ({"z_grid": (math.nan,)}, "^z_grid "),
        ({"detector": base.comp}, "^a scenario needs a Bb84Params or GmcsParams detector, got ComponentParams$"),
    ):
        with pytest.raises(DomainError, match=message):
            Scenario._make({**base.as_dict(), **changes}.values())
        with pytest.raises(DomainError, match=message):
            base._replace(**changes)


# each parameter class: its field names in order, its defaults, other valid
# values for every field, and the repr of its default instance
PARAMETER_CLASSES = [
    (
        LinkParams,
        ("alpha_db_per_km", "beta_raman", "classical_channel_count", "p_out_dbm", "lambda_quantum_nm", "lambda_classical_nm"),
        (0.21, 4e-9, 1, 0.0, 1550.0, 1550.8),
        (0.2, 2.85e-9, 38, -3.0, 1549.5, 1551.2),
        _LINK_REPR,
    ),
    (
        ComponentParams,
        ("nf_db", "gain_g0", "gain_fixed", "xi1", "xi2", "eta_mux", "eta_dmu", "delta_nu_hz", "nsp_exact"),
        (6.0206, 100.0, None, 1e-8, 1e-8, 0.71, 0.71, 75e9, False),
        (5.0, 50.0, 200.0, 2e-8, 3e-8, 0.8, 0.9, 50e9, True),
        _COMP_REPR,
    ),
    (
        Bb84Params,
        ("mu", "y0_base", "e_det", "e0", "eta_bob", "f_ec", "delta_t_s"),
        (0.5, 5e-6, 0.003, 0.5, 0.038, 1.22, 1e-9),
        (0.4, 1e-5, 0.01, 0.4, 0.1, 1.1, 2e-9),
        _BB84_REPR,
    ),
    (
        GmcsParams,
        ("v_a", "eta_bob", "eps0", "v_el", "gamma", "n_lo", "detector_bandwidth_hz", "sigma_meas", "conservative"),
        (10.0, 0.6, 0.01, 0.01, 0.9, 1e8, 1e6, 0.024, False),
        (20.0, 0.5, 0.02, 0.05, 0.95, 1e7, 1e8, 0.01, True),
        _GMCS_REPR,
    ),
]


@pytest.mark.parametrize(
    "cls, names, defaults, values, pinned_repr", PARAMETER_CLASSES, ids=[c[0].__name__ for c in PARAMETER_CLASSES]
)
def test_parameter_class_contract(cls, names, defaults, values, pinned_repr):
    """The four parameter classes keep the behaviour of the frozen
    dataclasses they were, and stay dataclasses."""
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_position, n) for n in names) == values
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword) == hash(values)
    assert by_position.__eq__(values) is NotImplemented

    default = cls()
    assert tuple(getattr(default, n) for n in names) == defaults
    assert default == cls(*defaults)
    assert default != by_position
    assert hash(default) == hash(defaults)
    assert repr(default) == pinned_repr

    for name in (names[0], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(by_position, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{names[0]}'"):
        delattr(by_position, names[0])
    assert tuple(getattr(by_position, n) for n in names) == values

    name = cls.__name__
    with pytest.raises(TypeError, match=f"^{name}\\(\\) got multiple values for argument '{names[0]}'$"):
        cls(values[0], **{names[0]: values[0]})
    with pytest.raises(TypeError, match=f"^{name}\\(\\) got an unexpected keyword argument 'not_a_field'$"):
        cls(not_a_field=1.0)
    with pytest.raises(TypeError, match=f"^{name}\\(\\) takes at most {len(names)} positional arguments \\({len(names) + 1} given\\)$"):
        cls(*values, values[0])

    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(default)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert tuple(f.default for f in dataclasses.fields(cls)) == defaults
    assert cls.__match_args__ == cls._fields == names
    # replace builds through the constructor, so it validates again
    assert dataclasses.replace(default, **dict(zip(names, values))) == by_position
    with pytest.raises(DomainError, match=f"^{names[0]} must be finite, got nan$"):
        dataclasses.replace(default, **{names[0]: math.nan})

    for copied in (pickle.loads(pickle.dumps(by_position)), copy.deepcopy(by_position)):
        assert copied == by_position
        assert copied is not by_position


# each bool and int parameter field, with values of other types that it refuses
TYPED_FIELDS = [
    (LinkParams, "classical_channel_count", "int", (2.5, 2.0, True, "2", None)),
    (ComponentParams, "nsp_exact", "bool", ("no", 0, 1, 1.0, None)),
    (GmcsParams, "conservative", "bool", ("false", 0, 1, 1.0, None)),
]


@pytest.mark.parametrize(
    "cls, name, kind, wrong", TYPED_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _, _ in TYPED_FIELDS]
)
def test_bool_and_int_fields_refuse_other_types(cls, name, kind, wrong):
    for value in wrong:
        with pytest.raises(DomainError, match=f"^{name} must be of type {kind}, got {value!r}$"):
            cls(**{name: value})
    # every bool and int field is listed here
    typed = [n for n, d in cls._defaults.items() if isinstance(d, int)]
    assert typed == [name]


# values of other types given to float fields, gain_fixed's included
FLOAT_FIELD_MISTYPES = [
    (LinkParams, "alpha_db_per_km", "0.2"),
    (GmcsParams, "v_a", "10"),
    (ComponentParams, "gain_fixed", "5"),
    (Bb84Params, "mu", [1]),
    (LinkParams, "alpha_db_per_km", True),
]


@pytest.mark.parametrize(
    "cls, name, value", FLOAT_FIELD_MISTYPES, ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in FLOAT_FIELD_MISTYPES]
)
def test_float_fields_refuse_other_types(cls, name, value):
    with pytest.raises(DomainError) as caught:
        cls(**{name: value})
    assert str(caught.value) == f"{name} must be of type float, got {value!r}"


def test_float_fields_take_ints():
    assert GmcsParams(v_a=10).v_a == 10
    assert ComponentParams(gain_fixed=5).gain_fixed == 5
    assert ComponentParams(gain_fixed=None).gain_fixed is None
    assert LinkParams(alpha_db_per_km=0).alpha_db_per_km == 0


def test_frozen_params_rejects_a_field_without_a_default():
    with pytest.raises(TypeError, match="^Undefaulted.b has no default$"):

        @frozen_params
        class Undefaulted(FrozenRecord):
            """One field without a default."""

            a: float = 1.0
            b: bool


@pytest.mark.parametrize("cls", [c[0] for c in PARAMETER_CLASSES], ids=[c[0].__name__ for c in PARAMETER_CLASSES])
def test_parameter_class_methods_are_written_in_the_source(cls):
    # the dataclass decorator compiles the methods it generates from a
    # string, so their code comes from no file in the package
    package = pathlib.Path(dwdm_qkd.__file__).resolve().parent
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        source = pathlib.Path(getattr(cls, name).__code__.co_filename).resolve()
        assert source.parent == package and source.suffix == ".py", (name, str(source))


def test_cli_import_generates_only_the_parameter_dataclasses():
    """Importing the CLI runs the dataclass decorator for the four parameter
    classes alone, and below Python 3.13 the decorator compiles no code for
    them; the seven records are namedtuples, not dataclasses."""
    probe = """
import dataclasses, json
generated = []
compiled = []
process_class = dataclasses._process_class

def recording(cls, *args, **kwargs):
    generated.append(cls.__qualname__)
    return process_class(cls, *args, **kwargs)

def recording_exec(*args, **kwargs):
    compiled.append(1)
    return exec(*args, **kwargs)

dataclasses._process_class = recording
dataclasses.exec = recording_exec
import dwdm_qkd, dwdm_qkd.cli
records = ["NoiseBudget", "Bb84Point", "GmcsPoint", "Evaluation", "Scenario", "SweepResult", "Config"]
print(json.dumps([sorted(generated), [name for name in records if dataclasses.is_dataclass(getattr(dwdm_qkd, name))], len(compiled)]))
"""
    package_root = pathlib.Path(dwdm_qkd.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    generated, record_dataclasses, execs = json.loads(result.stdout)
    assert generated == ["Bb84Params", "ComponentParams", "GmcsParams", "LinkParams"]
    assert record_dataclasses == []
    # 3.13 gathers a class's generated methods into one exec, and runs it
    # when there are none
    if sys.version_info < (3, 13):
        assert execs == 0
