"""CSV and JSON emission for sweep results, and JSON for point documents.

Numbers are serialized at 9 significant digits in both formats so the two
emissions of one sweep carry identical values and fixtures stay stable.
Every JSON document is one str.format over a template of {:.9} slots, whose
text _relay mends, so sweeps and points share one number writer. A NaN or
an infinity is rejected by name: JSON has no literal for either.
"""

import math
import re
from _json import encode_basestring_ascii as _escape
from io import TextIOBase
from operator import itemgetter

from .noise import DomainError, NoiseBudget
from .scenarios import SweepResult


class _Slot(str):
    """A str.format field in a JsonTemplate's shape, where any other str is a string value."""


# the slots of a JSON template: a float at 9 significant digits, a number
# echoed as given, and an int
ROUNDED, EXACT, COUNT = _Slot("{:.9}"), _Slot("{!r}"), _Slot("{:d}")
CSV_HEADER = "z_km,ase_window,leak_window,sasrs_window,total_window,eps_in,eps_out,rate"
_FIELDS = CSV_HEADER.split(",")
# the budget's columns of a row, between z_km and rate; total_window is n_spd_window
_BUDGET_COLUMNS = itemgetter(*[
    NoiseBudget._fields.index(name)
    for name in ("ase_window", "leak_window", "sasrs_window", "n_spd_window", "eps_in", "eps_out")
])
_CSV_ROW = ",".join(["%.9g"] * len(_FIELDS))
# the cells whose {:.9} text is not repr's: a positive exponent, which repr
# writes out up to 15, and a three-digit negative one, where subnormals live
_RELAID = re.compile(r"[\d.]+e(?:\+\d+|-3\d\d)")
_SUBNORMAL_EXPONENT = re.compile(r"e-3\d\d")


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} cannot be written: it must be finite")
    return value


def _relay(text: str) -> str:
    """JSON text of {:.9} and {!r} cells, each number as json.dumps writes
    float("%.9g" % x). Like %.9g, .9 keeps 9 significant digits, already the
    shortest decimal that reads back as the rounded double, and like repr it
    writes .0 after an integral value. Only where it takes an exponent that
    repr does not (8 to 15), or repr writes a subnormal with fewer digits, is
    its text not repr's. Two cheap searches rule such cells out; otherwise
    they go through repr, which leaves a cell that repr wrote as it is."""
    if "+" in text or _SUBNORMAL_EXPONENT.search(text):
        return _RELAID.sub(lambda cell: repr(float(cell[0])), text)
    return text


def _layout(shape, name: str, indent: str, names: list[str]) -> str:
    """shape as json.dumps(..., indent=2) lays it out at indent, as a
    str.format template; each slot's name is appended to names."""
    if isinstance(shape, _Slot):
        names.append(name)
        return shape
    if isinstance(shape, str):
        return _escape(shape).replace("{", "{{").replace("}", "}}")
    inner = indent + "  "
    if isinstance(shape, dict):
        items = [_layout(key, "", "", names) + ": " + _layout(value, key, inner, names) for key, value in shape.items()]
        opening, closing = "{{", "}}"
    else:
        items = [_layout(value, f"{name}[{i}]", inner, names) for i, value in enumerate(shape)]
        opening, closing = "[", "]"
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


class JsonTemplate:
    """The text json.dumps(doc, indent=2) writes for each document of one
    shape, and a newline, as one str.format template built once. shape is
    such a document with a slot in place of each number: ROUNDED, EXACT or
    COUNT. A slot in a list is named by its key and index, as in sigma[1]."""

    __slots__ = ("template", "names")

    def __init__(self, shape: dict | list):
        names: list[str] = []
        self.template = _layout(shape, "", "", names) + "\n"
        if _RELAID.search(self.template):
            raise ValueError(f"{shape!r} holds text that the number writer would rewrite")
        self.names = tuple(names)

    def fill(self, values: tuple) -> str:
        """The document with values in its slots, in order. A NaN or an
        infinity raises DomainError naming its slot."""
        if not all(map(math.isfinite, values)):
            for name, value in zip(self.names, values):
                _finite(name, value)
        return _relay(self.template.format(*values))


# one sweep row, laid out as it sits in the rows list of sweep_to_json
_JSON_ROW = "    " + _layout(dict.fromkeys(_FIELDS, ROUNDED), "", "    ", [])


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
    pure-Python encoder, which took longer than the sweep it wrote. Its
    numbers are one str.format over rows laid out as JsonTemplate lays out
    a point, and _relay writes them.
    """
    values = _row_values(result)
    values.append(_finite("secure_distance_km", result.secure_distance_km))
    crossover = result.noise_crossover_km
    if crossover is not None:
        values.append(_finite("noise_crossover_km", crossover))
    rows = ",\n".join([_JSON_ROW] * len(result.rows))
    numbers = (f'  "rows": [\n{rows}\n  ],\n' if rows else '  "rows": [],\n') + (
        f'  "secure_distance_km": {ROUNDED},\n  "noise_crossover_km": {"null" if crossover is None else ROUNDED}'
    )
    return f'{{\n  "scenario": {_escape(result.scenario)},\n{_relay(numbers.format(*values))}\n}}\n'


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
