"""CSV and JSON emission for sweep results, and JSON for point documents.

Numbers are serialized at 9 significant digits in both formats so the two
emissions of one sweep carry identical values and fixtures stay stable.
Both writers take their values from one pass, which rejects a NaN or an
infinity: JSON has no literal for either, and neither does the point writer.
"""
from __future__ import annotations

import json
import math
import re
from io import TextIOBase
from json.encoder import encode_basestring_ascii as _escape
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
# one row laid out as json.dumps(doc, indent=2) lays it out; see sweep_to_json
_JSON_ROW = "    {{\n" + ",\n".join(f'      "{name}": {{:.9}}' for name in _FIELDS) + "\n    }}"
# the cells whose {:.9} text is not repr's: a positive exponent, which repr
# writes out up to 15, and a three-digit negative one, where subnormals live
_RELAID = re.compile(r"[\d.]+e(?:\+\d+|-3\d\d)")
_SUBNORMAL_EXPONENT = re.compile(r"e-3\d\d")


def round9(x: float) -> float:
    """x at 9 significant digits, the precision of every number the tool writes."""
    return float(_DIGITS % x)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} cannot be written: it must be finite")
    return value


def _row_values(result: SweepResult) -> list[float]:
    """The sweep's rows as one flat list: each row's fields in CSV_HEADER
    order, row after row, all checked to be finite."""
    values: list[float] = []
    for z_km, budget, _, point, _ in result.rows:
        values.append(z_km)
        values += _BUDGET_COLUMNS(budget)
        values.append(point.rate)
    if not all(map(math.isfinite, values)):
        for i, value in enumerate(values):
            row = result.rows[i // len(_FIELDS)]
            _finite(f"{_FIELDS[i % len(_FIELDS)]} of the row at z_km = {row.z_km}", value)
    return values


def sweep_to_csv(result: SweepResult) -> str:
    text = "\n".join([_CSV_ROW] * len(result.rows)) % tuple(_row_values(result))
    return f"{CSV_HEADER}\n{text}\n" if text else CSV_HEADER + "\n"


def sweep_to_json(result: SweepResult) -> str:
    """The document json.dumps(doc, indent=2) would write, byte for byte.

    It is built from text directly: with an indent, json.dumps runs its
    pure-Python encoder, which took longer than the sweep it wrote. The rows
    are one str.format over a template of {:.9} slots. Like %.9g, .9 keeps 9
    significant digits, which are already the shortest decimal that reads
    back as the rounded double, and like repr it writes .0 after an integral
    value. Its text is repr(float("%.9g" % x)) except where it takes an
    exponent that repr does not (8 to 15) and where repr writes a subnormal
    with fewer digits. Two cheap searches, for a + and for a three-digit
    negative exponent, rule such cells out; otherwise they go through repr.
    """
    rows = ",\n".join([_JSON_ROW] * len(result.rows)).format(*_row_values(result))
    if "+" in rows or _SUBNORMAL_EXPONENT.search(rows):
        rows = _RELAID.sub(lambda cell: repr(float(cell[0])), rows)
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


def _json_scalar(name: str, value) -> str:
    """value's JSON literal as json.dumps writes it; a float must be finite."""
    if isinstance(value, float):
        return float.__repr__(_finite(name, value))
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{name} = {value!r} is not a JSON scalar")


def _json_list(name: str, values, indent: str) -> str:
    """A list of scalars as json.dumps(..., indent=2) lays it out at indent."""
    if not values:
        return "[]"
    items = f",\n{indent}  ".join([_json_scalar(f"{name}[{i}]", value) for i, value in enumerate(values)])
    return f"[\n{indent}  {items}\n{indent}]"


def point_to_json(doc: dict | list) -> str:
    """The text json.dumps(doc, indent=2) writes for one point document,
    written in one direct pass: with an indent, json.dumps runs its
    pure-Python encoder, which took longer than computing the point. doc
    is a dict of scalars and lists of scalars, or a list of scalars. A NaN
    or an infinity raises DomainError naming its key, where json.dumps
    would write NaN or Infinity; a str is escaped by the function
    json.dumps escapes it with."""
    if isinstance(doc, list):
        return _json_list("", doc, "")
    if not doc:
        return "{}"
    return "{\n" + ",\n".join([
        f"  {_escape(key)}: {_json_list(key, value, '  ') if isinstance(value, list) else _json_scalar(key, value)}"
        for key, value in doc.items()
    ]) + "\n}"


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
