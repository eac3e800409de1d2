import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dwdm_qkd import bb84
from dwdm_qkd.bb84 import (
    DEFAULT_MU_GRID,
    Bb84Params,
    Bb84Point,
    background_rate,
    bb84_point,
    bb84_point_from_rates,
    binary_entropy,
    optimize_mu,
)
from dwdm_qkd.noise import (
    ComponentParams,
    DomainError,
    LinkParams,
    NoiseBudget,
    NoiseModel,
    channel_transmittance,
    compute_noise_budget,
)
from dwdm_qkd.scenarios import Scenario, evaluate, run_sweep, scenario_by_name

PARAMS = Bb84Params()  # e_det=0.003, Y0^0=5e-6, eta_bob=0.038, f=1.22
COMP = ComponentParams()
MULTIPLEXED = LinkParams(classical_channel_count=1, p_out_dbm=0.0)
UNMULTIPLEXED = LinkParams(classical_channel_count=0)


def first_max_over_point_builder(link, z, params, mu_grid):
    """Reference argmax: a Bb84Point per mu, the first of the largest rates."""
    budget = compute_noise_budget(link, COMP, z, params.delta_t_s)
    eta = channel_transmittance(z, link.alpha_db_per_km) * COMP.eta_dmu * params.eta_bob
    y0 = background_rate(params.y0_base, params.eta_bob, budget.n_spd_window)
    best_mu, best = None, None
    for mu in mu_grid:
        point = bb84_point_from_rates(eta, y0, params, mu)
        if best is None or point.rate > best.rate:
            best_mu, best = mu, point
    return best_mu, best


def optimize_at(link, z, params, mu_grid=DEFAULT_MU_GRID):
    """optimize_mu at z km of link, given NoiseModel.at's transmittance and
    budget there."""
    eta_ch, budget = NoiseModel(link, COMP, params.delta_t_s).at(z)
    return optimize_mu(eta_ch, COMP, params, budget, mu_grid)


def efficiency_and_background(link, z, params):
    """(eta, y0): the overall efficiency and background rate per gate, as
    the scan forms them from NoiseModel.at."""
    eta_ch, budget = NoiseModel(link, COMP, params.delta_t_s).at(z)
    eta = eta_ch * COMP.eta_dmu * params.eta_bob
    return eta, background_rate(params.y0_base, params.eta_bob, budget.n_spd_window)


def whole_bound(eta, y0, params, mu_grid):
    """The grid bound over the whole of mu_grid."""
    return bb84._row_bound(eta, y0, params, bb84._MuGrid(mu_grid).sets[:1])[0]


def assert_bound_dominates(bound, eta, y0, params, mu):
    """bound is at least mu's unclamped rate, and when it is <= 0 mu's rate is
    exactly 0."""
    point = bb84_point_from_rates(eta, y0, params, mu)
    if point.q_mu > 0 and point.q1 > 0:
        head = point.q1 - params.f_ec * point.q_mu * binary_entropy(min(point.e_mu, 0.5))
        assert 0.5 * (head - point.q1 * binary_entropy(min(point.e1, 0.5))) <= bound
    if bound <= 0.0:
        assert point.rate == 0.0


def adjacent_floats(mu, n):
    """mu and the n - 1 floats above it: rates that tie or differ by rounding."""
    grid = [mu]
    for _ in range(n - 1):
        grid.append(math.nextafter(grid[-1], math.inf))
    return grid


MU = st.floats(min_value=1e-3, max_value=3.0)
MU_GRIDS = st.one_of(
    st.just(DEFAULT_MU_GRID),
    st.lists(MU, min_size=1, max_size=40).map(sorted),
    st.lists(MU, min_size=1, max_size=40),
    MU.map(lambda mu: (mu,)),
    st.builds(adjacent_floats, MU, st.integers(min_value=2, max_value=40)),
)
VALID_PARAMS = st.builds(
    Bb84Params,
    e0=st.floats(min_value=0.0, max_value=1.0),
    e_det=st.floats(min_value=0.0, max_value=0.5),
    f_ec=st.floats(min_value=1.0, max_value=3.0),
    y0_base=st.floats(min_value=1e-8, max_value=1e-3),
)


def rate_oracle(eta, y0, params, mu):
    """Straight-line evaluation of the gain/QBER/rate formulas."""
    q_mu = y0 + 1 - math.exp(-eta * mu)
    e_mu = (params.e0 * y0 + params.e_det * (1 - math.exp(-eta * mu))) / q_mu
    q1 = (y0 + eta) * mu * math.exp(-mu)
    e1 = (params.e0 * y0 + params.e_det * eta) * mu * math.exp(-mu) / q1
    h2 = lambda p: 0.0 if p in (0, 1) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    return 0.5 * (q1 - params.f_ec * q_mu * h2(e_mu) - q1 * h2(e1))


class TestBackgroundRate:
    def test_no_multiplexing_noise(self):
        assert background_rate(5e-6, 0.038, 0.0) == 5e-6

    def test_20km_budget(self):
        assert background_rate(5e-6, 0.038, 0.35) == pytest.approx(1.33e-2, rel=1e-2)

    def test_zero_intrinsic(self):
        assert background_rate(0.0, 0.5, 0.2) == 0.1

    def test_cap_at_one(self):
        assert background_rate(0.5, 1.0, 10.0) == 1.0

    @pytest.mark.parametrize("inputs, rate", [((5e-6, 0.0, 0.35), 5e-6), ((0.0, 0.0, 0.0), 0.0)])
    def test_zero_inputs_are_valid(self, inputs, rate):
        # Bb84Params rejects eta_bob = 0, but the function itself takes it
        assert background_rate(*inputs) == rate

    @pytest.mark.parametrize("position", range(3))
    def test_nan_input_rejected(self, position):
        # min(...) < 0 is false for a NaN, which then came back as the cap 1.0
        inputs = [5e-6, 0.038, 0.35]
        inputs[position] = math.nan
        with pytest.raises(DomainError, match="background inputs"):
            background_rate(*inputs)

    def test_nan_window_rejected_by_optimize_mu(self):
        budget = NoiseBudget(*(0.0,) * 6, math.nan, *(0.0,) * 4)
        with pytest.raises(DomainError, match="background inputs"):
            optimize_mu(0.5, ComponentParams(), Bb84Params(), budget)


class TestBb84Params:
    @pytest.mark.parametrize("e0", [-1.0, -1e-12, 1.0 + 1e-12, 2.0])
    def test_e0_outside_unit_interval_named(self, e0):
        with pytest.raises(DomainError, match="e0"):
            Bb84Params(e0=e0)

    @pytest.mark.parametrize("delta_t_s", [0.0, -1e-9])
    def test_non_positive_window_named(self, delta_t_s):
        with pytest.raises(DomainError, match="delta_t_s"):
            Bb84Params(delta_t_s=delta_t_s)


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-4)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_and_bounds(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestBb84Point:
    def test_matches_direct_formula_oracle(self):
        for z in (0.0, 10.0, 30.0):
            for mu in (0.1, 0.48, 0.9):
                point = bb84_point(UNMULTIPLEXED, COMP, PARAMS, z, mu=mu)
                eta = 10 ** (-0.21 * z / 10) * COMP.eta_dmu * PARAMS.eta_bob
                expected = max(0.0, rate_oracle(eta, PARAMS.y0_base, PARAMS, mu))
                assert point.rate == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_unmultiplexed_rate_positive_at_short_distance(self):
        mu, point = optimize_at(UNMULTIPLEXED, 20, PARAMS)
        assert point.rate > 0

    def test_multiplexed_no_key_at_any_distance(self):
        for z in (0.0, 5.0, 20.0, 50.0, 80.0):
            _, point = optimize_at(MULTIPLEXED, z, PARAMS)
            assert point.rate == 0.0

    def test_noiseless_limit_positive(self):
        quiet = Bb84Params(y0_base=0.0, e_det=0.0, eta_bob=1.0)
        comp = ComponentParams(eta_dmu=1.0)
        link = LinkParams(alpha_db_per_km=0.0, classical_channel_count=0)
        point = bb84_point(link, comp, quiet, 0.0, mu=0.1)
        assert point.rate == pytest.approx(0.5 * 0.1 * math.exp(-0.1), rel=1e-6)

    def test_qber_identities(self):
        # E_mu*Q_mu and e1*Q1 reduce to their closed forms
        point = bb84_point(MULTIPLEXED, COMP, PARAMS, 15, mu=0.4)
        eta = 10 ** (-0.21 * 15 / 10) * COMP.eta_dmu * PARAMS.eta_bob
        lhs = point.e_mu * point.q_mu
        rhs = PARAMS.e0 * point.y0 + PARAMS.e_det * (1 - math.exp(-eta * 0.4))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        lhs1 = point.e1 * point.q1
        rhs1 = (PARAMS.e0 * point.y0 + PARAMS.e_det * eta) * 0.4 * math.exp(-0.4)
        assert lhs1 == pytest.approx(rhs1, rel=1e-12)

    def test_rate_nonincreasing_in_background_and_misalignment(self):
        link = UNMULTIPLEXED
        base = bb84_point(link, COMP, PARAMS, 10, mu=0.5).rate
        noisier = bb84_point(
            link, COMP, dataclasses.replace(PARAMS, y0_base=1e-4), 10, mu=0.5
        ).rate
        crooked = bb84_point(
            link, COMP, dataclasses.replace(PARAMS, e_det=0.02), 10, mu=0.5
        ).rate
        assert noisier <= base and crooked <= base

    def test_continuity_at_no_noise_limit(self):
        # launch power at nothing and the booster pinned at unit gain (ASE
        # scales with G - 1, not with launch power): the unmultiplexed rate
        # should reappear
        faint = dataclasses.replace(MULTIPLEXED, p_out_dbm=-200.0)
        quiet = dataclasses.replace(COMP, gain_fixed=1.0)
        noisy = bb84_point(faint, quiet, PARAMS, 10, mu=0.5).rate
        clean = bb84_point(UNMULTIPLEXED, COMP, PARAMS, 10, mu=0.5).rate
        assert noisy == pytest.approx(clean, rel=1e-6)


    @pytest.mark.parametrize("channels", [0, 1, 38])
    def test_one_mu_is_the_scan_over_its_one_point_grid(self, channels):
        # bb84_point and evaluate at a fixed mu both reach the mu scan, over
        # the grid (mu,). bb84_point_from_rates on NoiseModel.at's budget is
        # the oracle, and both points must equal it exactly, on rows the
        # grid bound settles and on rows the scan computes
        rng = random.Random(2300 + channels)
        rates = []
        for _ in range(300):
            link = LinkParams(classical_channel_count=channels, p_out_dbm=rng.uniform(-90.0, 0.0))
            params = PARAMS.replace(y0_base=rng.choice((0.0, 1e-7, 5e-6, 1e-4)), e_det=rng.uniform(0.0, 0.05))
            z = rng.choice((0.0, rng.uniform(0.0, 150.0)))
            mu = math.exp(rng.uniform(math.log(1e-3), math.log(5.0)))
            eta, y0 = efficiency_and_background(link, z, params)
            expected = bb84_point_from_rates(eta, y0, params, mu)
            evaluation = evaluate(Scenario("one-mu", link, COMP, params), z, mu_grid=(mu,))
            assert (evaluation.mu, evaluation.point) == (mu, expected)
            assert bb84_point(link, COMP, params, z, mu=mu) == expected
            rates.append(expected.rate)
        assert 0.0 in rates and max(rates) > 0.0

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_mu_is_rejected_by_name(self, mu):
        with pytest.raises(DomainError, match=rf"^mu must be finite and > 0, got {mu}$"):
            bb84_point(UNMULTIPLEXED, COMP, PARAMS, 20, mu=mu)


class TestOptimizeMu:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_at(UNMULTIPLEXED, 20, PARAMS, mu_grid=[])

    def test_grid_argmax_against_brute_force(self):
        grid = [0.05 + 0.01 * i for i in range(96)]
        mu_star, point = optimize_at(UNMULTIPLEXED, 25, PARAMS, mu_grid=grid)
        rates = [bb84_point(UNMULTIPLEXED, COMP, PARAMS, 25, mu=m).rate for m in grid]
        assert point.rate == max(rates)
        assert mu_star == grid[rates.index(max(rates))]

    def test_all_zero_reports_zero(self):
        _, point = optimize_at(MULTIPLEXED, 40, PARAMS)
        assert point.rate == 0.0

    def test_zero_gain_gives_the_zero_record(self):
        # Q_mu = 0 must return the zero record, not divide by it: with no
        # efficiency and no background both gains are 0, and with eta*mu
        # below half an ulp of 1, exp(-eta*mu) rounds to 1.0, so Q_mu is 0
        # while Q_1 > 0
        assert bb84_point_from_rates(0.0, 0.0, Bb84Params(), 0.5) == Bb84Point(*(0.0,) * 6)
        point = bb84_point_from_rates(1e-18, 0.0, Bb84Params(), 0.5)
        assert point.q_mu == 0.0 and point.q1 > 0.0
        assert point == Bb84Point(0.0, 0.0, 0.0, point.q1, 0.0, 0.0)

    def test_zero_gain_row_scans_to_the_point_builder(self):
        # q_a = 0 at every set sends the row to the scan, which skips every
        # mu as Q_mu = 0 and returns the first mu's record
        params = Bb84Params(y0_base=0.0)
        budget = NoiseBudget(*(0.0,) * 11)
        mu, point = optimize_mu(1e-16, COMP, params, budget)
        eta = 1e-16 * COMP.eta_dmu * params.eta_bob
        assert mu == DEFAULT_MU_GRID[0]
        assert point == bb84_point_from_rates(eta, 0.0, params, mu)
        assert point.q_mu == 0.0 and point.q1 > 0.0 and point.rate == 0.0

    @pytest.mark.parametrize(
        "params, z",
        [(PARAMS, 100.0), (Bb84Params(e_det=0.05), 20.0)],
        ids=["negative-heads-first", "positive-heads-past-the-peak"],
    )
    def test_scan_skips_the_e1_entropy_of_a_mu_that_cannot_win(self, params, z, monkeypatch):
        # rows with no classical channel that scan, where every mu has
        # 0 < E_mu, e1 < 1/2. At 100 km the heads of the first mus are
        # negative; with 5% misalignment at 20 km the heads past the optimum
        # are positive but at most twice the best rate. Either way those mus'
        # e1 and h(e1) are not computed. log2 is counted in the scan only,
        # not in _row_bound
        counts, in_bound, row_bound = {False: 0, True: 0}, [False], bb84._row_bound

        def counted_log2(x):
            counts[in_bound[0]] += 1
            return math.log2(x)

        def bound(*args):
            in_bound[0] = True
            try:
                return row_bound(*args)
            finally:
                in_bound[0] = False

        monkeypatch.setattr(bb84, "log2", counted_log2)
        monkeypatch.setattr(bb84, "_row_bound", bound)
        mu, point = optimize_at(UNMULTIPLEXED, z, params)
        monkeypatch.undo()
        assert (mu, point) == first_max_over_point_builder(UNMULTIPLEXED, z, params, DEFAULT_MU_GRID)
        assert point.rate > 0.0 and counts[True] > 0
        eta, y0 = efficiency_and_background(UNMULTIPLEXED, z, params)
        points = [bb84_point_from_rates(eta, y0, params, m) for m in DEFAULT_MU_GRID]
        assert all(0 < p.e_mu < 0.5 and 0 < p.e1 < 0.5 for p in points)
        # two log2 calls per entropy, one E_mu entropy per mu
        e1_entropies = (counts[False] - 2 * len(DEFAULT_MU_GRID)) / 2
        assert 0 < e1_entropies < len(DEFAULT_MU_GRID)

    @pytest.mark.parametrize("channels", [0, 1])
    @pytest.mark.parametrize("z", [0.0, 7.5, 25.0, 60.0, 80.0])
    def test_equals_brute_force_over_point_builder(self, z, channels):
        # the scan must return exactly the mu and the point of a first-max
        # argmax over bb84_point_from_rates, not merely close ones
        link = LinkParams(classical_channel_count=channels)
        budget = compute_noise_budget(link, COMP, z, PARAMS.delta_t_s)
        eta = channel_transmittance(z, link.alpha_db_per_km) * COMP.eta_dmu * PARAMS.eta_bob
        y0 = background_rate(PARAMS.y0_base, PARAMS.eta_bob, budget.n_spd_window)
        best_mu, best = None, None
        for mu in DEFAULT_MU_GRID:
            point = bb84_point_from_rates(eta, y0, PARAMS, mu)
            if best is None or point.rate > best.rate:
                best_mu, best = mu, point
        assert optimize_at(link, z, PARAMS) == (best_mu, best)
        if channels:
            assert best.rate == 0.0 and best_mu == DEFAULT_MU_GRID[0] == 0.05
        elif z <= 60.0:
            assert best.rate > 0.0

    def test_out_of_range_qber_raises(self, monkeypatch):
        # Bb84Params rejects e0 < 0 itself. Forced past that check, a negative
        # background error rate drives E_mu below 0, and the grid bound and
        # the per-mu scan each raise rather than report a rate.
        with pytest.raises(DomainError, match="e0"):
            Bb84Params(e0=-1.0)
        forced = Bb84Params()
        object.__setattr__(forced, "e0", -1.0)
        eta, y0 = efficiency_and_background(MULTIPLEXED, 20, forced)
        with pytest.raises(DomainError):
            whole_bound(eta, y0, forced, DEFAULT_MU_GRID)
        with pytest.raises(DomainError):
            optimize_at(MULTIPLEXED, 20, forced)
        monkeypatch.setattr(bb84, "_row_bound", lambda *args: (math.inf, 0.0, 0.0))
        with pytest.raises(DomainError):
            optimize_at(MULTIPLEXED, 20, forced)

    @settings(max_examples=300, deadline=None)
    @given(
        VALID_PARAMS,
        st.floats(min_value=0.0, max_value=150.0),
        st.sampled_from([0, 1, 38]),
        MU_GRIDS,
    )
    def test_equals_brute_force_on_random_inputs(self, params, z, channels, mu_grid):
        # random valid parameters, distances and grids (sorted, unsorted,
        # one point): the scan's skipped mus must never change the argmax
        link = LinkParams(classical_channel_count=channels)
        expected = first_max_over_point_builder(link, z, params, mu_grid)
        assert optimize_at(link, z, params, mu_grid) == expected


class TestGridBound:
    @settings(max_examples=300, deadline=None)
    @given(
        VALID_PARAMS,
        st.floats(min_value=0.0, max_value=150.0),
        st.sampled_from([0, 1, 38]),
        MU_GRIDS,
    )
    def test_bound_dominates_every_rate(self, params, z, channels, mu_grid):
        # the padded bound over [min, max] of the grid is at least every mu's
        # unclamped rate, and when it is <= 0 every mu's rate is exactly 0
        link = LinkParams(classical_channel_count=channels)
        eta, y0 = efficiency_and_background(link, z, params)
        bound = whole_bound(eta, y0, params, mu_grid)
        for mu in mu_grid:
            assert_bound_dominates(bound, eta, y0, params, mu)

    def test_bound_settles_the_noise_dominated_rows(self, monkeypatch):
        # bb84-0dBm has no key at any distance: the whole-grid bound proves it
        # for the 148 rows past 6 km, and the 13 rows up to 6 km fall back to
        # the block bounds
        bound_of, whole = bb84._row_bound, bb84._DEFAULT_GRID.sets[0]
        bounds = []

        def counted(eta, y0, params, sets):
            if sets[0] == whole:
                bounds.append(bound_of(eta, y0, params, sets[:1])[0])
            return bound_of(eta, y0, params, sets)

        monkeypatch.setattr(bb84, "_row_bound", counted)
        result = run_sweep(scenario_by_name("bb84-0dBm"))
        assert len(bounds) == 161
        assert sum(bound <= 0.0 for bound in bounds) == 148
        assert [bound <= 0.0 for bound in bounds] == [row.z_km > 6.0 for row in result.rows]
        assert all(row.rate == 0.0 for row in result.rows)

    def test_bound_counts_single_photon_errors_past_one_half(self):
        # every background count errs (e0 = 1) and background is 9 times the
        # signal, so e1 = 0.9 at every mu, h(min(e1, 1/2)) = 1 and no mu has
        # key; at mu = 700, E_mu is about 0.018, so the head's entropy term is
        # small, and only the clamped e1 term takes the bound below 0
        params = Bb84Params(e0=1.0, e_det=0.0, f_ec=1.0)
        eta, y0 = 1e-3, 9e-3
        bound = whole_bound(eta, y0, params, (0.05, 700.0))
        assert bound <= 0.0
        for mu in (0.05, 700.0):
            assert bb84_point_from_rates(eta, y0, params, mu).e1 == pytest.approx(0.9)
            assert_bound_dominates(bound, eta, y0, params, mu)

    @settings(max_examples=300, deadline=None)
    @given(
        VALID_PARAMS,
        st.floats(min_value=0.0, max_value=150.0),
        st.sampled_from([0, 1, 38]),
        MU_GRIDS,
    )
    def test_block_bound_dominates_every_rate_in_its_block(self, params, z, channels, mu_grid):
        # each block of MU_BLOCK consecutive mus has its own bound, at least
        # the unclamped rate at every mu of that block; <= 0 means each of its
        # rates is 0
        link = LinkParams(classical_channel_count=channels)
        eta, y0 = efficiency_and_background(link, z, params)
        grid = bb84._MuGrid(mu_grid)
        starts = range(0, len(mu_grid), bb84.MU_BLOCK)
        assert len(grid.sets[1:]) == len(starts)
        for start, block in zip(starts, grid.sets[1:]):
            bound = bb84._row_bound(eta, y0, params, (block,))[0]
            for mu in mu_grid[start : start + bb84.MU_BLOCK]:
                assert_bound_dominates(bound, eta, y0, params, mu)

    def test_block_bounds_settle_the_rows_up_to_6_km(self, monkeypatch):
        # the block bounds settle the 13 bb84-0dBm rows at 0-6 km whose
        # whole-grid bound is > 0, so no row iterates the exp(-mu) table as
        # the scan does; a settled record reads only its first entry
        class ScanCounter:
            def __init__(self, grid):
                counter = self

                class Table(tuple):
                    def __iter__(self):
                        counter.scans += 1
                        return super().__iter__()

                self.sets = grid.sets
                self.exp_neg, self.scans = Table(grid.exp_neg), 0

        counter = ScanCounter(bb84._DEFAULT_GRID)
        monkeypatch.setattr(bb84, "_DEFAULT_GRID", counter)
        scenario = scenario_by_name("bb84-0dBm")
        scanned = []
        for z in scenario.z_grid:
            scans = counter.scans
            assert evaluate(scenario, z).rate == 0.0
            if counter.scans > scans:
                scanned.append(z)
        assert scanned == []
        run_sweep(scenario)
        assert counter.scans == 0
        # the table still counts the scan of a row that has key
        assert optimize_at(UNMULTIPLEXED, 20, PARAMS)[1].rate > 0.0
        assert counter.scans == 1

    @pytest.mark.parametrize(
        "mu_grid, z",
        [
            (DEFAULT_MU_GRID, 3.0),
            (DEFAULT_MU_GRID, 40.0),
            ((0.1, 0.2, 0.35, 0.5, 0.8), 6.5),
            ((0.1, 0.2, 0.35, 0.5, 0.8), 40.0),
            ((0.5, 0.1, 0.9), 6.5),
            ((0.5, 0.1, 0.9), 40.0),
            ((800.0, 900.0), 3.0),
        ],
        ids=["default-blocks", "default", "sorted", "sorted-far", "unsorted", "unsorted-far", "q1-underflows"],
    )
    def test_settled_record_equals_point_builder(self, mu_grid, z):
        # a settled row's record, whether built from the bound's own terms
        # (least mu first) or by bb84_point_from_rates, is that function's
        # record at mu_grid[0] field for field
        eta, y0 = efficiency_and_background(MULTIPLEXED, z, PARAMS)
        grid = bb84._MuGrid(mu_grid)
        assert whole_bound(eta, y0, PARAMS, mu_grid) <= 0.0 or all(
            bb84._row_bound(eta, y0, PARAMS, (block,))[0] <= 0.0 for block in grid.sets[1:]
        )
        mu, point = optimize_at(MULTIPLEXED, z, PARAMS, mu_grid)
        expected = bb84_point_from_rates(eta, y0, PARAMS, mu_grid[0])
        assert mu == mu_grid[0]
        assert point == expected
        assert point.rate == 0.0

    def test_default_table_equals_terms_recomputed_from_the_grid(self):
        grid = bb84._DEFAULT_GRID
        assert grid.exp_neg == tuple(math.exp(-mu) for mu in DEFAULT_MU_GRID)
        assert grid.sets[0] == (0.05, 1.0, 1.0, math.exp(-1.0))
        # the default grid is sorted, so each block's least and largest mu
        # are its ends
        blocks = []
        for start in range(0, 96, 12):
            a, b = DEFAULT_MU_GRID[start], DEFAULT_MU_GRID[start + 11]
            m = min(max(1.0, a), b)
            blocks.append((a, b, m, math.exp(-m)))
        assert grid.sets[1:] == tuple(blocks)
        assert len(grid.sets[1:]) == 8 and grid.sets[1][:2] == (0.05, 0.16)

    @pytest.mark.parametrize(
        "mu_grid, bad",
        [
            ((0.05, math.nan, 0.1), "nan"),
            ((0.05, math.inf), "inf"),
            ((math.nan, 0.5), "nan"),
            ((-0.5, 0.5), "-0.5"),
            ((0.0, 0.5), "0.0"),
            ((-800.0, 0.5), "-800.0"),
        ],
    )
    def test_invalid_mu_is_rejected_by_name(self, mu_grid, bad):
        # min and max skip a NaN, so a bound over such a grid would cover
        # only its finite mus; the grid is checked whole before any bound
        with pytest.raises(DomainError, match=rf"^mu_grid: mu must be finite and > 0, got {bad}$"):
            bb84._MuGrid(mu_grid)
        with pytest.raises(DomainError, match=rf"^mu_grid: .* got {bad}$"):
            optimize_at(MULTIPLEXED, 40, PARAMS, mu_grid)

    def test_positive_rate_scans(self):
        # no classical channel at 20 km: some mu has key, so the bound stays
        # positive and the scan finds the first-max argmax
        eta, y0 = efficiency_and_background(UNMULTIPLEXED, 20, PARAMS)
        assert whole_bound(eta, y0, PARAMS, DEFAULT_MU_GRID) > 0.0
        mu, point = optimize_at(UNMULTIPLEXED, 20, PARAMS)
        assert (mu, point) == first_max_over_point_builder(UNMULTIPLEXED, 20, PARAMS, DEFAULT_MU_GRID)
        assert point.rate > 0.0
