"""Per-layer spans for the traced run.

Each named function is wrapped at every module attribute bound to it, so a
call through `from .gmcs import gmcs_point` in `scenarios` or `cli` is
counted as well. A span's self time is its duration minus its child spans.
A function that no longer exists is skipped, and its metrics are left out.
"""
from __future__ import annotations

import sys
import time

TARGETS = {
    "bb84": ("optimize_mu", "bb84_point", "bb84_point_from_rates"),
    "gmcs": ("gmcs_point", "total_excess_noise", "secure_distance"),
    "scenarios": ("run_sweep",),
    "noise": ("compute_noise_budget",),
    "output": ("sweep_to_json", "sweep_to_csv"),
    "config": ("parse_config",),
    "cli": ("build_parser", "main"),
}
# one key-rate evaluation: the outermost of these spans
RATE_SPANS = {"bb84.optimize_mu", "bb84.bb84_point", "gmcs.gmcs_point"}


class Tracer:
    def __init__(self, package: str = "dwdm_qkd"):
        self.package = package
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.rate_evals = 0  # outermost key-rate spans
        self.distance_rate_evals = 0  # of those, inside secure_distance
        self._stack: list = []  # child time of each open span
        self._open_rate = 0
        self._open_distance = 0
        self._patched: list = []

    def install(self) -> None:
        pkg = self.package
        modules = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for mod_name, fn_names in TARGETS.items():
            module = sys.modules.get(f"{pkg}.{mod_name}")
            for fn_name in fn_names:
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    continue
                key = f"{mod_name}.{fn_name}"
                self.calls[key], self.total_s[key], self.self_s[key] = 0, 0.0, 0.0
                wrapper = self._wrap(key, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        is_rate = key in RATE_SPANS
        is_distance = key == "gmcs.secure_distance"
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if is_rate:
                if not self._open_rate:
                    self.rate_evals += 1
                    if self._open_distance:
                        self.distance_rate_evals += 1
                self._open_rate += 1
            if is_distance:
                self._open_distance += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += span
                self.calls[key] += 1
                self.total_s[key] += span
                self.self_s[key] += span - child
                if is_rate:
                    self._open_rate -= 1
                if is_distance:
                    self._open_distance -= 1

        return wrapper
