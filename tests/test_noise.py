import dataclasses
import math
import random

import pytest

from dwdm_qkd.noise import (
    ComponentParams,
    DomainError,
    LinkParams,
    NoiseBudget,
    NoiseModel,
    UnfittableError,
    ase_after_mux,
    ase_band_power_dbm,
    ase_per_mode,
    channel_transmittance,
    compute_noise_budget,
    direct_init,
    fit_raman_coefficient,
    leakage_rate,
    mode_count,
    nsp_from_nf,
    sasrs_band_power,
    sasrs_per_mode,
)
from dwdm_qkd.bb84 import Bb84Params, Bb84Point
from dwdm_qkd.gmcs import GmcsParams, GmcsPoint
from dwdm_qkd.scenarios import Evaluation
from dwdm_qkd.units import PLANCK_H, SPEED_OF_LIGHT, dbm_to_watts, photon_energy

TABLE_LINK = LinkParams()
TABLE_COMP = ComponentParams()


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
    def test_high_gain_identity(self):
        # NF = 2 n_sp exactly in the high-gain convention
        assert nsp_from_nf(3.0, 1e9, high_gain=True) == 1.5

    def test_exact_inversion(self):
        nf = 10 ** 0.55  # 5.5 dB
        assert nsp_from_nf(nf, 100) == pytest.approx(1.78694, rel=1e-4)
        assert nsp_from_nf(nf, 100, high_gain=True) == pytest.approx(1.77407, rel=1e-4)

    def test_unity_gain_rejected(self):
        with pytest.raises(DomainError):
            nsp_from_nf(2.0, 1.0)
        with pytest.raises(DomainError):
            nsp_from_nf(0.5, 100)


class TestAse:
    def test_unity_gain_amplifier(self):
        assert ase_per_mode(1.5, 1.0) == 0.0

    def test_ideal_amplifier(self):
        assert ase_per_mode(1.0, 2.0) == 2.0

    def test_bench_value(self):
        # NF = 5.5 dB, G = 100, high-gain convention
        n_sp = nsp_from_nf(10 ** 0.55, 100, high_gain=True)
        assert ase_per_mode(n_sp, 100) == pytest.approx(351.27, abs=0.01)

    def test_below_spontaneous_limit(self):
        with pytest.raises(DomainError):
            ase_per_mode(0.9, 100)

    def test_after_mux(self):
        assert ase_after_mux(351.2, 0.0) == 0.0
        assert ase_after_mux(351.2, 1e-8) == pytest.approx(3.512e-6)
        # linear in the input
        assert ase_after_mux(702.4, 1e-8) == pytest.approx(2 * ase_after_mux(351.2, 1e-8))

    def test_band_power(self):
        assert ase_band_power_dbm(351, 75e9, 1.28e-19) == pytest.approx(-24.72, abs=0.01)
        assert ase_band_power_dbm(351, 75e9, 1.28e-19, insertion_loss_db=0.9) == pytest.approx(
            -25.62, abs=0.01
        )
        with pytest.raises(DomainError):
            ase_band_power_dbm(0.0, 75e9, 1.28e-19)


class TestLeakage:
    def test_no_power(self):
        assert leakage_rate(0.0, 1e-8, 1.28e-19) == 0.0

    def test_hand_value(self):
        assert leakage_rate(1e-3, 1e-8, 1.28e-19) == pytest.approx(7.8125e7)

    def test_adjacent_isolation_scaling(self):
        assert leakage_rate(1e-3, 1e-4, 1.28e-19) == pytest.approx(7.8125e11)


class TestSasrs:
    def test_zero_length(self):
        assert sasrs_band_power(1e-3, 4e-9, 0.0, 0.6) == 0.0
        assert sasrs_per_mode(1e-3, 4e-9, 0.0, 0.71, 1.55e-6) == 0.0

    def test_band_power_values(self):
        p4dbm = dbm_to_watts(4.0)
        assert sasrs_band_power(p4dbm, 2.85e-9, 20, 0.6) == pytest.approx(8.59e-11, rel=1e-3)
        assert sasrs_band_power(1e-3, 4e-9, 20, 0.6) == pytest.approx(4.8e-11, rel=1e-9)

    def test_per_mode_value_and_linearity(self):
        per20 = sasrs_per_mode(1e-3, 4e-9, 20, 0.71, 1.55e-6)
        assert per20 == pytest.approx(3.5518e-3, rel=1e-4)
        assert sasrs_per_mode(1e-3, 4e-9, 10, 0.71, 1.55e-6) == pytest.approx(per20 / 2)

    @pytest.mark.parametrize("dl_nm", [0.1, 0.6, 1.0])
    def test_bandwidth_cancellation(self, dl_nm):
        # per-mode closed form must equal band power / (h nu N_mode) * eta_dmu
        # for any bandwidth choice
        lam = 1.55e-6
        band_w = sasrs_band_power(1e-3, 4e-9, 20, dl_nm)
        n_mode = SPEED_OF_LIGHT / lam**2 * (dl_nm * 1e-9)
        h_nu = PLANCK_H * SPEED_OF_LIGHT / lam
        via_band = band_w / (h_nu * n_mode) * 0.71
        closed = sasrs_per_mode(1e-3, 4e-9, 20, 0.71, lam)
        assert closed == pytest.approx(via_band, rel=1e-12)


class TestModeCount:
    def test_values(self):
        assert mode_count(75e9, 1e-9) == pytest.approx(75.0)
        assert mode_count(75e9, 1 / 75e9) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            mode_count(0, 1e-9)


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
        n_mod = mode_count(75e9, 1e-9)
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
# one thing, and the message is the one compute_noise_budget raised for it
# before the noise model existed
BUDGET_ERRORS = [
    (TABLE_LINK, TABLE_COMP, -1.0, 1e-9, {}, "z_km must be finite and >= 0, got -1.0"),
    (TABLE_LINK, TABLE_COMP, math.nan, 1e-9, {}, "z_km must be finite and >= 0, got nan"),
    (TABLE_LINK, TABLE_COMP, math.inf, 1e-9, {}, "z_km must be finite and >= 0, got inf"),
    (TABLE_LINK, TABLE_COMP, 1e308, 1e-9, {}, "z_km = 1e+308 makes the channel transmittance underflow to 0"),
    # high gain: n_sp = NF/2 < 1 for NF = 10^0.2
    (TABLE_LINK, ComponentParams(nf_db=2.0), 20.0, 1e-9, {}, "n_sp must be >= 1 (spontaneous-emission limit)"),
    (
        TABLE_LINK,
        ComponentParams(nf_db=1.0, gain_fixed=2.0, nsp_exact=True),
        20.0,
        1e-9,
        {},
        "n_sp must be >= 1 (spontaneous-emission limit)",
    ),
    (TABLE_LINK, TABLE_COMP, 20.0, 0.0, {}, "bandwidth and time window must be positive"),
    (TABLE_LINK, TABLE_COMP, 20.0, -1e-9, {}, "bandwidth and time window must be positive"),
    (TABLE_LINK, TABLE_COMP, 20.0, 1e-9, {**HOMODYNE, "n_lo": 0.0}, "detector bandwidth and LO photon number must be positive"),
    (
        TABLE_LINK,
        TABLE_COMP,
        20.0,
        1e-9,
        {**HOMODYNE, "detector_bandwidth_hz": -1.0},
        "detector bandwidth and LO photon number must be positive",
    ),
    # the gain schedule gain_g0 / eta_ch overflows
    (TABLE_LINK, TABLE_COMP, 14800.0, 1e-9, {}, "the noise budget at z_km = 14800.0 overflows a float"),
    (TABLE_LINK, TABLE_COMP, 20.0, math.nan, {}, "the noise budget at z_km = 20.0 overflows a float"),
    (TABLE_LINK, TABLE_COMP, 20.0, 1e-9, {"eta_bob": math.inf}, "the noise budget at z_km = 20.0 overflows a float"),
    (
        TABLE_LINK,
        TABLE_COMP,
        20.0,
        1e-9,
        {**HOMODYNE, "detector_bandwidth_hz": math.nan},
        "the noise budget at z_km = 20.0 overflows a float",
    ),
]


class TestNoiseModel:
    @pytest.mark.parametrize("homodyne", [{}, HOMODYNE])
    @pytest.mark.parametrize("channels", [0, 1, 38])
    def test_at_is_the_transmittance_and_the_budget(self, channels, homodyne):
        link = dataclasses.replace(TABLE_LINK, classical_channel_count=channels)
        model = NoiseModel(link, TABLE_COMP, 1e-9, **homodyne)
        for z in (0.0, 0.5, 1.0, 9.890625, 20.0, 80.0, 700.0):
            eta_ch, budget = model.at(z)
            assert eta_ch == channel_transmittance(z, link.alpha_db_per_km)
            assert budget == compute_noise_budget(link, TABLE_COMP, z, 1e-9, **homodyne)

    def test_model_is_frozen(self):
        model = NoiseModel(TABLE_LINK, TABLE_COMP, 1e-9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.link = LinkParams()

    @pytest.mark.parametrize("link, comp, z_km, delta_t_s, homodyne, message", BUDGET_ERRORS)
    def test_errors_are_unchanged(self, link, comp, z_km, delta_t_s, homodyne, message):
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


class TestRamanFit:
    def test_single_point_round_trip(self):
        beta = 4e-9
        p_out = 1e-3
        p20 = sasrs_band_power(p_out, beta, 20, 0.6)
        assert fit_raman_coefficient([(20, p20)], p_out, 0.6) == pytest.approx(beta, rel=1e-12)

    def test_two_spool_fit_with_insertion_loss(self):
        beta = 2.85e-9
        p_out = dbm_to_watts(4.0)
        il_db = 1.43
        points = [
            (z, sasrs_band_power(p_out, beta, z, 0.6) * 10 ** (-il_db / 10))
            for z in (20, 40)
        ]
        fitted = fit_raman_coefficient(points, p_out, 0.6, insertion_loss_db=il_db)
        assert fitted == pytest.approx(beta, rel=1e-3)

    def test_noisy_monte_carlo_round_trip(self):
        rng = random.Random(1234)
        beta = 3.1e-9
        p_out = 2e-3
        points = [
            (z, sasrs_band_power(p_out, beta, z, 0.6) * (1 + rng.gauss(0, 0.01)))
            for z in range(5, 45, 5)
        ]
        fitted = fit_raman_coefficient(points, p_out, 0.6)
        assert fitted == pytest.approx(beta, rel=0.02)

    def test_unfittable(self):
        with pytest.raises(UnfittableError):
            fit_raman_coefficient([(0.0, 1e-11)], 1e-3, 0.6)


_BUDGET = NoiseBudget(1e-3, 2.5e4, 3e-4, 1e-5, 2e-5, 3e-5, 6e-5, 4e-4, 5e-4, 8e-4, 9e-7)
_GMCS_POINT = GmcsPoint(0.05, 1.2, 0.9, 0.18, (11.0, 0.5, 1.0, 2.0))
# each frozen row record with its field names in order and one instance's values
ROW_RECORDS = [
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
        dataclasses.astuple(_BUDGET),
    ),
    (Bb84Point, ("y0", "q_mu", "e_mu", "q1", "e1", "rate"), (1e-5, 0.01, 0.02, 0.005, 0.03, 1e-4)),
    (GmcsPoint, ("eps", "i_ab", "chi_be", "rate", "sigma"), dataclasses.astuple(_GMCS_POINT)),
    (Evaluation, ("z_km", "budget", "eta_ch", "point", "mu"), (12.5, _BUDGET, 0.55, _GMCS_POINT, 0.4)),
]


@pytest.mark.parametrize("cls, names, values", ROW_RECORDS, ids=[r[0].__name__ for r in ROW_RECORDS])
def test_row_record_contract(cls, names, values):
    """The frozen row records keep the behaviour of a frozen dataclass:
    construction, equality, hashing, repr, fields, asdict and replace."""
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    )
    assert by_position != cls(*values[:-1], "other")

    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == names
    assert all(f.init and f.default_factory is dataclasses.MISSING for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    assert defaults == ({"mu": None} if cls is Evaluation else {})
    if cls is Evaluation:
        assert cls(*values[:-1]).mu is None
    assert dataclasses.asdict(by_position) == {
        n: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for n, v in zip(names, values)
    }

    changed = dataclasses.replace(by_position, **{names[0]: 99.0})
    assert dataclasses.astuple(changed)[1:] == dataclasses.astuple(by_position)[1:]
    assert getattr(changed, names[0]) == 99.0
    assert dataclasses.replace(by_position) == by_position
    with pytest.raises(TypeError):
        cls(*values, 0.0)
    with pytest.raises(TypeError):
        cls(*values[:-2])

    for name in (names[0], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_position, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(by_position, names[0])
    assert tuple(getattr(by_position, n) for n in names) == values


def test_direct_init_refuses_a_class_it_would_initialize_wrongly():
    @dataclasses.dataclass(frozen=True)
    class Checked:
        x: float

        def __post_init__(self):
            raise AssertionError("never skipped")

    with pytest.raises(TypeError, match="__post_init__"):
        direct_init(Checked)

    @dataclasses.dataclass(frozen=True)
    class Listed:
        xs: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="'xs'"):
        direct_init(Listed)
