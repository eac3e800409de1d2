"""Physical constants and dB/dBm unit conversions.

All internal computation uses linear SI units; decibel quantities exist
only at the I/O boundary.
"""
from __future__ import annotations

PLANCK_H = 6.62607015e-34  # J*s
SPEED_OF_LIGHT = 299792458.0  # m/s


def db_to_linear(db: float) -> float:
    """Convert a dB value to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def photon_energy(lambda_m: float) -> float:
    """Energy in joules of a photon at vacuum wavelength lambda_m (meters)."""
    if lambda_m <= 0:
        raise ValueError("wavelength must be positive")
    return PLANCK_H * SPEED_OF_LIGHT / lambda_m
