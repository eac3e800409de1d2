"""CSV and JSON emission for sweep results.

Numbers are serialized at 9 significant digits in both formats so the two
emissions of one sweep carry identical values and fixtures stay stable.
Both writers share one rounding pass, which rejects a NaN or an infinity:
JSON has no literal for either.
"""
from __future__ import annotations

import json
import math
from io import TextIOBase
from operator import itemgetter

from .noise import DomainError, NoiseBudget
from .scenarios import SweepResult

CSV_HEADER = "z_km,ase_window,leak_window,sasrs_window,total_window,eps_in,eps_out,rate"
_FIELDS = CSV_HEADER.split(",")
# the budget's columns of a row, between z_km and rate; total_window is n_spd_window
_BUDGET_COLUMNS = itemgetter(*[
    NoiseBudget._fields.index(name)
    for name in ("ase_window", "leak_window", "sasrs_window", "n_spd_window", "eps_in", "eps_out")
])
_DIGITS = "%.9g"
_CSV_ROW = ",".join([_DIGITS] * len(_FIELDS))
# one row laid out as json.dumps(doc, indent=2) lays it out, each value the
# text of _json_number
_JSON_ROW = "    {\n" + ",\n".join(f'      "{name}": %s' for name in _FIELDS) + "\n    }"


def round9(x: float) -> float:
    """x at 9 significant digits, the precision of every number the tool writes."""
    return float(_DIGITS % x)


def _json_number(cell: str) -> str:
    """repr(float(cell)), the text json.dumps writes, for a %.9g token.

    A normal double carries more than 15 significant digits, so the token's
    at most 9 digits are the shortest decimal that reads back as the same
    double, and float.__repr__ writes those digits; only the layout can
    differ. repr writes .0 after an integral value and writes exponents 9 to
    15 positionally, where %.9g writes e+09 to e+15. A two-digit negative
    exponent is laid out alike by both. A three-digit exponent, where
    subnormals live (4.94065646e-324 is repr's 5e-324), takes repr itself.
    """
    if "e" not in cell:
        return cell if "." in cell else cell + ".0"
    if cell[-4:-2] == "e-":
        return cell
    return repr(float(cell))


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} cannot be written: it must be finite")
    return value


def _rounded_text(result: SweepResult) -> str:
    """The sweep's rows as CSV lines: each row's fields in CSV_HEADER order
    at 9 significant digits, rows joined by newlines.

    The whole sweep goes through one finiteness check and one % over a
    template of n rows of %.9g slots: the CSV writer takes the text as it
    is, and the JSON writer splits it into its cells.
    """
    values: list[float] = []
    for z_km, budget, _, point, _ in result.rows:
        values.append(z_km)
        values += _BUDGET_COLUMNS(budget)
        values.append(point.rate)
    if not all(map(math.isfinite, values)):
        for i, value in enumerate(values):
            row = result.rows[i // len(_FIELDS)]
            _finite(f"{_FIELDS[i % len(_FIELDS)]} of the row at z_km = {row.z_km}", value)
    return "\n".join([_CSV_ROW] * len(result.rows)) % tuple(values)


def sweep_to_csv(result: SweepResult) -> str:
    text = _rounded_text(result)
    return f"{CSV_HEADER}\n{text}\n" if text else CSV_HEADER + "\n"


def sweep_to_json(result: SweepResult) -> str:
    """The document json.dumps(doc, indent=2) would write, byte for byte.

    It is built from text directly: with an indent, json.dumps runs its
    pure-Python encoder, which took longer than the sweep it wrote.
    """
    text = _rounded_text(result)
    cells = text.replace("\n", ",").split(",") if text else []
    # a cell with a point and no exponent is already the text json.dumps writes
    numbers = [cell if "." in cell and "e" not in cell else _json_number(cell) for cell in cells]
    rows = ",\n".join([_JSON_ROW] * len(result.rows)) % tuple(numbers)
    distance = round9(_finite("secure_distance_km", result.secure_distance_km))
    crossover = result.noise_crossover_km
    if crossover is not None:
        crossover = round9(_finite("noise_crossover_km", crossover))
    return (
        "{\n"
        f'  "scenario": {json.dumps(result.scenario)},\n'
        + (f'  "rows": [\n{rows}\n  ],\n' if rows else '  "rows": [],\n')
        + f'  "secure_distance_km": {distance!r},\n'
        f'  "noise_crossover_km": {"null" if crossover is None else repr(crossover)}\n'
        "}\n"
    )


def emit(result: SweepResult, fmt: str, destination: str | TextIOBase) -> None:
    """Write a sweep in the requested format to a path or open text stream."""
    if fmt == "csv":
        text = sweep_to_csv(result)
    elif fmt == "json":
        text = sweep_to_json(result)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    if isinstance(destination, (str, bytes)):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)
