import hashlib
import math

import pytest

from dwdm_qkd import bb84, noise, scenarios
from dwdm_qkd.gmcs import secure_distance
from dwdm_qkd.noise import DomainError, LinkParams, NoiseModel
from dwdm_qkd.output import sweep_to_csv, sweep_to_json
from dwdm_qkd.scenarios import (
    ADJACENT_ISOLATION,
    Scenario,
    builtin_scenarios,
    evaluate,
    noise_crossover_km,
    run_sweep,
    scenario_by_name,
)

NAMES = [
    "fig3-noise",
    "bb84-0dBm",
    "gmcs-none",
    "gmcs-1ch-nonadj",
    "gmcs-1ch-adj",
    "gmcs-38ch",
    "gmcs-1ch-100MHz-detector",
]


def small_grid(scenario, step=5.0, z_max=40.0):
    n = int(z_max / step)
    return scenario.replace(z_grid=tuple(step * i for i in range(n + 1)))


class TestBuiltins:
    def test_names_and_count(self):
        assert [s.name for s in builtin_scenarios()] == NAMES

    def test_38ch_channel_count(self):
        assert scenario_by_name("gmcs-38ch").link.classical_channel_count == 38

    def test_adjacent_isolation(self):
        adj = scenario_by_name("gmcs-1ch-adj")
        assert adj.comp.xi2 == ADJACENT_ISOLATION == 1e-4

    def test_100mhz_scenario_settings(self):
        s = scenario_by_name("gmcs-1ch-100MHz-detector")
        assert s.detector.v_el == 0.1
        assert s.detector.sigma_meas == 0.024
        assert s.detector.conservative
        assert s.detector.detector_bandwidth_hz == 100e6

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_by_name("gmcs-miracle")

    def test_unknown_name_message_is_unquoted(self):
        with pytest.raises(KeyError) as exc:
            scenario_by_name("gmcs-miracle")
        assert str(exc.value) == (
            "unknown scenario 'gmcs-miracle'; known scenarios: " + ", ".join(NAMES)
        )

    def test_default_grid_is_shared(self):
        # the 0..80 km default grid is built and checked once, not per Scenario
        bb84, gmcs = scenario_by_name("bb84-0dBm"), scenario_by_name("gmcs-38ch")
        assert bb84.z_grid is gmcs.z_grid
        assert bb84.z_grid == tuple(0.5 * i for i in range(161))

    def test_invalid_grid_rejected(self):
        base = scenario_by_name("gmcs-none")
        with pytest.raises(DomainError):
            base.replace(z_grid=(0.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            base.replace(z_grid=())
        with pytest.raises(DomainError):
            base.replace(z_grid=(0.0, 1.0, 1.0))
        # a NaN or an infinite distance is rejected when the scenario is
        # built, by the grid's name, not when a sweep reaches it
        for z_grid in ((0.0, math.nan), (0.0, math.inf), (math.nan,)):
            with pytest.raises(DomainError, match="^z_grid "):
                base.replace(z_grid=z_grid)
        message = "^a scenario needs a Bb84Params or GmcsParams detector, got ComponentParams$"
        with pytest.raises(DomainError, match=message):
            base.replace(detector=base.comp)

    def test_grid_is_kept_as_a_tuple(self):
        base = scenario_by_name("gmcs-none")
        assert base.z_grid is scenarios.DEFAULT_Z_GRID
        assert Scenario("z", base.link, base.comp, base.detector).z_grid is scenarios.DEFAULT_Z_GRID
        # a list grid is copied into a tuple: the scenario hashes, and a later
        # change to the list reaches neither its grid nor its check
        z_grid = [0.0, 1.0]
        listed = base.replace(z_grid=z_grid)
        assert listed.z_grid == (0.0, 1.0) and type(listed.z_grid) is tuple
        assert hash(listed) == hash(base.replace(z_grid=(0.0, 1.0)))
        z_grid.append(math.nan)
        assert listed.z_grid == (0.0, 1.0)

    @pytest.mark.parametrize("name, protocol", [("bb84-0dBm", "BB84"), ("gmcs-none", "GMCS")])
    def test_protocol_is_named_by_the_detector(self, name, protocol):
        base = scenario_by_name(name)
        assert base.protocol == protocol
        assert Scenario("z", base.link, base.comp, base.detector).protocol == protocol
        other = scenario_by_name("gmcs-none" if protocol == "BB84" else "bb84-0dBm")
        assert base.replace(detector=other.detector).protocol == other.protocol != protocol
        with pytest.raises(TypeError):
            base.replace(protocol=protocol)

    def test_builtins_are_built_once_and_listed_anew(self):
        first, second = builtin_scenarios(), builtin_scenarios()
        assert first == second and first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert [s.name for s in builtin_scenarios()] == NAMES


class TestRunSweep:
    def test_fig3_dominance_pattern(self):
        result = run_sweep(small_grid(scenario_by_name("fig3-noise"), step=1.0, z_max=20.0))
        crossover = result.noise_crossover_km
        assert 4 <= crossover <= 9
        for row in result.rows:
            if row.z_km < crossover - 1:
                assert row.budget.leak_window > row.budget.sasrs_window
            elif row.z_km > crossover + 1:
                assert row.budget.sasrs_window > row.budget.leak_window

    def test_bb84_multiplexed_rate_all_zero(self):
        result = run_sweep(small_grid(scenario_by_name("bb84-0dBm")))
        assert all(row.rate == 0.0 for row in result.rows)
        assert result.secure_distance_km == 0.0

    @pytest.mark.filterwarnings("ignore:rate still positive")
    def test_gmcs_one_channel_close_to_clean_at_short_distance(self):
        clean = run_sweep(small_grid(scenario_by_name("gmcs-none"), step=5.0, z_max=15.0))
        one = run_sweep(small_grid(scenario_by_name("gmcs-1ch-nonadj"), step=5.0, z_max=15.0))
        for a, b in zip(clean.rows, one.rows):
            assert b.rate > 0
            assert b.rate <= a.rate
            assert b.rate == pytest.approx(a.rate, rel=0.12)

    @pytest.mark.filterwarnings("ignore:rate still positive")
    def test_no_classical_channels_zero_budget(self):
        result = run_sweep(small_grid(scenario_by_name("gmcs-none")))
        for row in result.rows:
            assert row.budget.n_spd_window == 0.0
            assert row.budget.eps_in == 0.0
        assert result.noise_crossover_km is None

    @pytest.mark.parametrize("name", ["bb84-0dBm", "gmcs-38ch"])
    def test_no_crossover_without_leakage_or_sasrs(self, name):
        # xi2 = 0 leaks nothing into the window, and beta_raman = 0 scatters nothing
        scenario = scenario_by_name(name)
        assert noise_crossover_km(scenario.replace(comp=scenario.comp.replace(xi2=0.0))) is None
        assert noise_crossover_km(scenario.replace(link=scenario.link.replace(beta_raman=0.0))) is None

    def test_determinism_bit_identical(self):
        scenario = small_grid(scenario_by_name("gmcs-38ch"), step=2.0, z_max=20.0)
        first = run_sweep(scenario)
        second = run_sweep(scenario)
        assert first == second

    def test_secure_distance_consistent_with_rows(self):
        result = run_sweep(small_grid(scenario_by_name("gmcs-38ch"), step=1.0, z_max=20.0))
        dist = result.secure_distance_km
        for row in result.rows:
            if row.z_km < dist - 1:
                assert row.rate > 0
            if row.z_km > dist + 1:
                assert row.rate == 0.0

    def test_sweep_builds_no_link(self, monkeypatch):
        # the distance is an argument, so no distance revalidates the link
        scenario = scenario_by_name("gmcs-38ch")
        built = []
        post_init = LinkParams.__post_init__
        monkeypatch.setattr(
            LinkParams, "__post_init__", lambda link: built.append(link) or post_init(link)
        )
        run_sweep(scenario)
        assert built == []

    @pytest.mark.parametrize("name", ["bb84-0dBm", "gmcs-38ch", "gmcs-none"])
    def test_sweep_builds_one_noise_model_and_calls_no_budget(self, name, monkeypatch):
        built = []
        init = NoiseModel.__init__
        monkeypatch.setattr(
            NoiseModel,
            "__init__",
            lambda model, *args, **kwargs: built.append(model) or init(model, *args, **kwargs),
        )

        def budget(*args, **kwargs):
            pytest.fail("compute_noise_budget called")

        for module in (noise, bb84, scenarios):
            monkeypatch.setattr(module, "compute_noise_budget", budget, raising=False)
        scenario = scenario_by_name(name)
        run_sweep(scenario)
        assert len(built) == 1

    @pytest.mark.parametrize("name", NAMES)
    def test_crossover_computes_no_rate(self, name, monkeypatch):
        def rate(*args, **kwargs):
            pytest.fail("the crossover computed a key rate")

        monkeypatch.setattr(scenarios, "gmcs_point", rate)
        monkeypatch.setattr(scenarios, "optimize_mu", rate)
        noise_crossover_km(scenario_by_name(name))

    @pytest.mark.parametrize(
        "name, rate_step", [("bb84-0dBm", "optimize_mu"), ("gmcs-38ch", "gmcs_point")]
    )
    def test_sweep_computes_rates_only_for_rows_and_the_distance_search(self, name, rate_step, monkeypatch):
        # every rate belongs to a grid row or to a distance secure_distance
        # asks for off the grid; the crossover adds none
        calls = []
        step = getattr(scenarios, rate_step)
        monkeypatch.setattr(
            scenarios, rate_step, lambda *args, **kwargs: calls.append(1) or step(*args, **kwargs)
        )
        asked = []
        search = scenarios.secure_distance
        monkeypatch.setattr(
            scenarios,
            "secure_distance",
            lambda z_grid, rates, rate_fn: search(z_grid, rates, lambda z: asked.append(z) or rate_fn(z)),
        )
        scenario = scenario_by_name(name)
        result = run_sweep(scenario)
        # bisection alone asks for a rate: 4 steps halve a 0.5 km bracket to
        # TOLERANCE_KM, and a sweep with no key asks for none
        assert len(asked) == (4 if result.secure_distance_km else 0)
        assert len(calls) == len(scenario.z_grid) + len(asked)
        assert not set(asked) & set(scenario.z_grid)
        assert result.noise_crossover_km == noise_crossover_km(scenario)

    @pytest.mark.filterwarnings("ignore:rate still positive")
    def test_strict_eps_out_barely_moves_rates(self):
        scenario = small_grid(scenario_by_name("gmcs-1ch-nonadj"), step=10.0, z_max=20.0)
        loose = run_sweep(scenario)
        strict = run_sweep(scenario, strict_eps_out=True)
        for a, b in zip(loose.rows, strict.rows):
            if a.rate > 0:
                assert abs(a.rate - b.rate) / a.rate < 1e-3


# SHA-256 of sweep_to_csv + sweep_to_json for each built-in sweep, without and
# with strict_eps_out. Built-in sweeps must stay bit-identical at 9
# significant digits; a change that moves any emitted value must update these
# on purpose.
EMISSION_SHA256 = {
    ("fig3-noise", False): "8be4b942908715c3a783ac5a19d1e97f3ca92f2b9a104a91277cb4c7903f7bbe",
    ("bb84-0dBm", False): "41983bbd97ffe000baebe624e998b38f630b5c16b67c8b06b7e7cb336cdf5687",
    ("gmcs-none", False): "ca783cc2aff7296e52e532a9801e0ef3d0172cda0b390d1f922c7cf8bf6cbe80",
    ("gmcs-1ch-nonadj", False): "272c41be994c87f5ef820a1afb05868cfc4b3a6e2c5d6ceac972d9ac348cf46c",
    ("gmcs-1ch-adj", False): "0f21de414aa7a55c4bf06f2680f911dae6c4fe42d74141369e897c16e4548602",
    ("gmcs-38ch", False): "f3651176be5c1a4992136b8808c9b85748a0ddbda270b7102b55c3318e314e7f",
    ("gmcs-1ch-100MHz-detector", False): "c62b2e4426a3ff6af49b40472e19ef920014b2cb4670b695d33c07e6e3e39a82",
    ("fig3-noise", True): "8be4b942908715c3a783ac5a19d1e97f3ca92f2b9a104a91277cb4c7903f7bbe",
    ("bb84-0dBm", True): "41983bbd97ffe000baebe624e998b38f630b5c16b67c8b06b7e7cb336cdf5687",
    ("gmcs-none", True): "ca783cc2aff7296e52e532a9801e0ef3d0172cda0b390d1f922c7cf8bf6cbe80",
    ("gmcs-1ch-nonadj", True): "6a3214dd028d89c01c6353c73f0d1ccd0755e494b75da96b22a652445fd7bb97",
    ("gmcs-1ch-adj", True): "326f9d0ffe2b753c88f315d13844b4172b25a81f7692218b945b8fa47fcfe20f",
    ("gmcs-38ch", True): "98f3165122f227ba7d548a61dae8c761f1e9b4edd0a8eab674c66c6ff8734361",
    ("gmcs-1ch-100MHz-detector", True): "bae7514cefb2f86e03942b96f5360527fcbcecfdd2924b77464dd4a6247ea4fb",
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("name", NAMES)
class TestBuiltinSweeps:
    def test_emission_digest(self, name, strict):
        result = run_sweep(scenario_by_name(name), strict_eps_out=strict)
        text = sweep_to_csv(result) + sweep_to_json(result)
        assert hashlib.sha256(text.encode()).hexdigest() == EMISSION_SHA256[(name, strict)]

    def test_secure_distance_matches_fresh_rates(self, name, strict):
        scenario = scenario_by_name(name)
        rate_fn = lambda z: evaluate(scenario, z, strict).rate  # noqa: E731
        fresh = secure_distance(scenario.z_grid, [rate_fn(z) for z in scenario.z_grid], rate_fn)
        assert run_sweep(scenario, strict_eps_out=strict).secure_distance_km == fresh
