"""In-memory spans around the calls into each layer of ``diractensor``.

The tracer wraps public functions from outside the package: each wrapper is
bound in place of the original under every name a ``diractensor`` module holds
it by (``diractensor.cli`` imports ``solve_bound_level``, ``sample_state`` and
others by name), so calls made inside the package are seen too.  A span is
(name, start, end, parent, op id, error).  A layer's self time is its span
durations minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# layer name -> (module, function); "analytic.energy" is counted, not timed,
# because one call takes about a microsecond
LAYERS = {
    "cli.main": ("diractensor.cli", "main"),
    "analytic.spectrum": ("diractensor.analytic", "spectrum"),
    "analytic.state_wavefunctions": ("diractensor.analytic", "state_wavefunctions"),
    "analytic.sample_state": ("diractensor.analytic", "sample_state"),
    "analytic.norm_quadrature": ("diractensor.analytic", "norm_quadrature"),
    "special.gauss_laguerre": ("diractensor.special", "gauss_laguerre"),
    "oracle.solve_bound_level": ("diractensor.oracle", "solve_bound_level"),
    "oracle.shoot_eigenvalue": ("diractensor.oracle", "shoot_eigenvalue"),
    "oracle.integrate_first_order": ("diractensor.oracle", "integrate_first_order"),
}
COUNTED = {
    "analytic.energy": ("diractensor.analytic", "energy"),
    "oracle.count_sign_changes": ("diractensor.oracle", "count_sign_changes"),
}
OP_SPAN = "bench.op"
SHOOT = "oracle.shoot_eigenvalue"


class Tracer:
    def __init__(self, closed_form_level):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._shooting = 0
        self._closed_form_level = closed_form_level
        self._patched: list[tuple] = []
        self.op_id = -1
        self.energy_calls = 0
        self.sign_changes_in_shoot = 0
        self.first_order_samples = 0
        self.first_order_renormalizations = 0
        self.first_order_bound = 0
        self.max_abs_de = 0.0

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = error
        self._stack.pop()

    def _timed(self, name: str, fn):
        on_result = {
            "oracle.solve_bound_level": self._after_level,
            "oracle.integrate_first_order": self._after_first_order,
        }.get(name)
        shoot = name == SHOOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            self._shooting += shoot
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(index, type(exc).__name__)
                raise
            finally:
                self._shooting -= shoot
            self.close(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        if name == "analytic.energy":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.energy_calls += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._shooting:
                    self.sign_changes_in_shoot += 1
                return fn(*args, **kwargs)
        return wrapper

    # --------------------------------------------------- public outputs
    def _after_level(self, args, kwargs, result):
        params, channel, component, n = args[:4]
        if component == "upper":
            expected = self._closed_form_level(params, channel, n)
            self.max_abs_de = max(self.max_abs_de, abs(result.energy_pair[0] - expected))

    def _after_first_order(self, args, kwargs, result):
        samples, report = result
        self.first_order_samples += len(samples.r)
        self.first_order_renormalizations += report.renormalizations
        self.first_order_bound += report.classification == "bound"

    # ---------------------------------------------------------- patching
    def install(self):
        """Bind a wrapper under every diractensor name that holds a traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "diractensor" or name.startswith("diractensor.")]
        for table, make in ((LAYERS, self._timed), (COUNTED, self._counted)):
            for name, (module_name, attr) in table.items():
                original = getattr(sys.modules[module_name], attr)
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # ----------------------------------------------------------- report
    def layer_metrics(self, pass_s: float) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per = {name: {"self": 0.0, "durations": [], "failed": 0} for name in [*LAYERS, OP_SPAN]}
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            entry = per[name]
            entry["self"] += (end - start) - child[i]
            entry["durations"].append(end - start)
            entry["failed"] += error is not None
        out = {}
        for name in LAYERS:
            entry = per[name]
            durations = entry["durations"]
            out[f"{name}.calls"] = (len(durations), "count")
            out[f"{name}.self_s"] = (entry["self"], "s")
            out[f"{name}.share"] = (entry["self"] / pass_s, "fraction")
            out[f"{name}.p50_ms"] = (statistics.median(durations) * 1e3 if durations else 0.0, "ms")
            out[f"{name}.failed"] = (entry["failed"], "count")
        out["analytic.energy.calls"] = (self.energy_calls, "count")
        levels = len(per["oracle.solve_bound_level"]["durations"])
        shoots = len(per[SHOOT]["durations"])
        first_order = len(per["oracle.integrate_first_order"]["durations"])
        out["oracle.shoot_eigenvalue.per_level"] = (shoots / levels if levels else 0.0, "1/level")
        out["oracle.count_sign_changes.per_level"] = (
            self.sign_changes_in_shoot / levels if levels else 0.0, "1/level")
        out["oracle.integrate_first_order.samples"] = (self.first_order_samples, "count")
        out["oracle.integrate_first_order.renormalizations"] = (
            self.first_order_renormalizations, "count")
        out["oracle.integrate_first_order.bound_frac"] = (
            self.first_order_bound / first_order if first_order else 0.0, "fraction")
        out["oracle.solve_bound_level.max_abs_dE"] = (self.max_abs_de, "energy")
        accounted = sum(entry["self"] for entry in per.values())
        out["bench.self_share"] = (per[OP_SPAN]["self"] / pass_s, "fraction")
        out["trace.accounted_share"] = (accounted / pass_s, "fraction")
        out["trace.spans"] = (len(self.spans), "count")
        return out
