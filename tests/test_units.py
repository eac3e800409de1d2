import math

import pytest
from hypothesis import given, strategies as st

from dwdm_qkd.units import (
    db_to_linear,
    dbm_to_watts,
    photon_energy,
)


def test_photon_energy_1550_matches_compat_constant():
    # hc/1550nm, compared against the rounded bench value 1.28e-19 J
    assert photon_energy(1550e-9) == pytest.approx(1.28e-19, rel=2e-3)


def test_db_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-80.0) == pytest.approx(1e-8)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(4.0) == pytest.approx(2.51188643e-3, rel=1e-8)


@given(st.floats(min_value=-120, max_value=120))
def test_db_to_linear_is_the_power_of_ten(db):
    assert db_to_linear(db) == pytest.approx(10 ** (db / 10), rel=1e-13)


@given(st.floats(min_value=-90, max_value=60))
def test_dbm_round_trip(dbm):
    assert 10 * math.log10(dbm_to_watts(dbm) / 1e-3) == pytest.approx(dbm, rel=1e-12, abs=1e-12)


def test_nonpositive_ratios_rejected():
    with pytest.raises(ValueError):
        photon_energy(0.0)
