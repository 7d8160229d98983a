"""Per-layer spans around the public functions of netbargain.

`Tracer.install()` replaces each listed function, in every netbargain
module that binds it, with a wrapper that records a span: its inclusive
duration and, by subtracting the spans opened inside it, its self time.
Spans are folded into per-name totals in memory while tracing is on and
cost one attribute test while it is off. The program is not modified on
disk; `uninstall()` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, attribute, span name); "Class.method" patches the class attribute
LAYERS = [
    ("instance", "load", "instance.load"),
    ("dynamics", "EdgeIndex.__init__", "dynamics.edgeindex_build"),
    ("dynamics", "EdgeIndex.offers", "dynamics.offers"),
    ("dynamics", "EdgeIndex.earnings", "dynamics.earnings"),
    ("dynamics", "EdgeIndex.best_excluding_reverse", "dynamics.best_excluding_reverse"),
    ("dynamics", "EdgeIndex.step_alpha", "dynamics.step_alpha"),
    ("dynamics", "run", "dynamics.run"),
    ("dynamics", "extract_pairing", "dynamics.extract_pairing"),
    ("matching", "classify", "matching.classify"),
    ("matching", "dual_check", "matching.dual_check"),
    ("nb", "fp_property_suite", "nb.fp_property_suite"),
    ("nb", "nb_from_fp", "nb.nb_from_fp"),
    ("nb", "solve_balance", "nb.solve_balance"),
    ("nb", "fp_from_nb", "nb.fp_from_nb"),
    ("nb", "certify", "nb.certify"),
    ("slack", "decompose", "slack.decompose"),
    ("slack", "check_fp_identities", "slack.check_fp_identities"),
    ("experiment", "reference_solution", "experiment.reference_solution"),
    ("experiment", "iterations_to_eps", "experiment.iterations_to_eps"),
    ("pathlab", "simplified_step", "pathlab.simplified_step"),
    ("pathlab", "mass_step", "pathlab.mass_step"),
    ("pathlab", "bounding_process", "pathlab.bounding_process"),
    ("pathlab", "sandwich_test", "pathlab.sandwich_test"),
    ("pathlab", "domination_test", "pathlab.domination_test"),
]

SMALL_STEP_EDGES = 100  # step_alpha calls on graphs with m <= this count as small


@dataclass
class SpanTotals:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.totals = {name: SpanTotals() for (_, _, name) in LAYERS}
        self.step_edge_steps = 0  # sum over step_alpha calls of directed edges x batch rows
        self.small_step_s = 0.0
        self.small_step_calls = 0
        self.steps_to_eps = 0
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                tot = tracer.totals[name]
                tot.calls += 1
                tot.incl_s += dur
                tot.self_s += dur - frame[0]
            if name == "dynamics.step_alpha":
                idx, alpha = args[0], args[1]
                tracer.step_edge_steps += alpha.size
                if idx.m <= SMALL_STEP_EDGES:
                    tracer.small_step_s += dur
                    tracer.small_step_calls += 1
            elif name == "experiment.iterations_to_eps" and result[0] is not None:
                tracer.steps_to_eps += int(result[0])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a netbargain module binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "netbargain" or k.startswith("netbargain.")]
        for (mod_name, attr, name) in LAYERS:
            home = sys.modules[f"netbargain.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for (owner, attr, original) in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    def per_layer(self, overhead_s: float, speed: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name: (value, unit); times are divided by the speed factor."""
        t = self.totals

        def per_call(name: str, scale: float) -> float:
            return t[name].incl_s / t[name].calls * scale if t[name].calls else 0.0

        step = t["dynamics.step_alpha"]
        out = {
            "instance.load_s": (t["instance.load"].incl_s, "s"),
            "dynamics.edgeindex_build_s": (t["dynamics.edgeindex_build"].incl_s, "s"),
            "dynamics.step_ns_per_edge": (
                step.incl_s / self.step_edge_steps * 1e9 if self.step_edge_steps else 0.0,
                "ns/edge",
            ),
            "dynamics.offers_self_s": (t["dynamics.offers"].self_s, "s"),
            "dynamics.best_excluding_reverse_self_s": (t["dynamics.best_excluding_reverse"].self_s, "s"),
            "dynamics.small_step_us": (
                self.small_step_s / self.small_step_calls * 1e6 if self.small_step_calls else 0.0,
                "us",
            ),
            "dynamics.step_calls": (step.calls, "count"),
            "dynamics.run_self_s": (t["dynamics.run"].self_s, "s"),
            "dynamics.earnings_self_s": (t["dynamics.earnings"].self_s, "s"),
            "dynamics.extract_pairing_s": (t["dynamics.extract_pairing"].incl_s, "s"),
            "matching.classify_self_s": (t["matching.classify"].self_s, "s"),
            "matching.classify_calls": (t["matching.classify"].calls, "count"),
            "matching.dual_check_s": (t["matching.dual_check"].incl_s, "s"),
            "nb.fp_property_suite_s": (t["nb.fp_property_suite"].incl_s, "s"),
            "nb.nb_from_fp_s": (t["nb.nb_from_fp"].incl_s, "s"),
            "nb.solve_balance_s": (t["nb.solve_balance"].incl_s, "s"),
            "nb.solve_balance_calls": (t["nb.solve_balance"].calls, "count"),
            "nb.fp_from_nb_s": (t["nb.fp_from_nb"].incl_s, "s"),
            "nb.certify_s": (t["nb.certify"].incl_s, "s"),
            "slack.decompose_s": (t["slack.decompose"].incl_s, "s"),
            "slack.check_fp_identities_s": (t["slack.check_fp_identities"].incl_s, "s"),
            "experiment.reference_solution_self_s": (t["experiment.reference_solution"].self_s, "s"),
            "experiment.iterations_to_eps_self_s": (t["experiment.iterations_to_eps"].self_s, "s"),
            "experiment.steps_to_eps": (self.steps_to_eps, "count"),
            "pathlab.simplified_step_us": (per_call("pathlab.simplified_step", 1e6), "us"),
            "pathlab.simplified_step_calls": (t["pathlab.simplified_step"].calls, "count"),
            "pathlab.mass_step_us": (per_call("pathlab.mass_step", 1e6), "us"),
            "pathlab.bounding_process_self_s": (t["pathlab.bounding_process"].self_s, "s"),
            "pathlab.sandwich_test_self_s": (t["pathlab.sandwich_test"].self_s, "s"),
            "pathlab.domination_test_self_s": (t["pathlab.domination_test"].self_s, "s"),
        }
        out = {k: (v if u == "count" else v / speed, u) for k, (v, u) in out.items()}
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
