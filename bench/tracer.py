"""Span tracer that wraps fracch's public functions from outside the package.

``from .energy import energy`` binds a name in each consumer module when that
module is imported, so patching only the defining module misses most calls.
``Tracer.install`` therefore replaces every binding of a traced function in
every loaded ``fracch`` module namespace, plus the public methods of the
classes named in ``TRACED_CLASSES``, with a wrapper that records one span
(name, start, end, parent, returned) per call.  Spans stay in memory until the
run ends and are then written out by the caller.

``layer_metrics`` turns a span list into the per-layer metrics of the
benchmark.  Layers are the fracch modules; ``diagnostics`` is deliberately
not wrapped (no benchmark workload calls it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "config", "mesh", "operators", "potentials", "energy",
          "evolution", "equilibrium")
TRACED_CLASSES = {"config": ("RunConfig",), "operators": ("OperatorSet",)}
# third-party names bound in a fracch namespace that are traced as a layer call
FOREIGN = {("equilibrium", "eigh"): "equilibrium.eigh"}


class Tracer:
    """Wraps functions and collects spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name_id, start, end, parent, returned]
        self._stack: list[int] = []
        self._name_ids: dict[str, int] = {}

    def wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        modules = {layer: importlib.import_module(f"fracch.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "fracch" or n.startswith("fracch.")) and m is not None]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])
        for (layer, attr), name in FOREIGN.items():
            mod = modules[layer]
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        for layer, classes in TRACED_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[layer], cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        setattr(cls, attr, self.wrap(obj, f"{layer}.{attr}"))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def _percentile_ms(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call (see bench/README.md)."""
    names = trace["names"]
    spans = trace["spans"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = names[s[0]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        total_s[name] = total_s.get(name, 0.0) + dur[i]

    def inside(ancestor: str, name: str) -> int:
        """Calls of ``name`` with a span named ``ancestor`` on their parent chain."""
        count = 0
        for s in spans:
            if names[s[0]] != name:
                continue
            p = s[3]
            while p >= 0 and names[spans[p][0]] != ancestor:
                p = spans[p][3]
            count += p >= 0
        return count

    step_spans = [i for i, s in enumerate(spans) if names[s[0]] == "evolution.step"]
    accepted = sum(1 for i in step_spans if spans[i][4])
    step_durs = [dur[i] for i in step_spans]
    m: dict[str, float] = {
        "config.parse_config.total_s": total_s.get("config.parse_config", 0.0),
        "config.build_context.total_s": total_s.get("config.build_context", 0.0),
        "mesh.self_s": sum(v for k, v in self_s.items() if k.startswith("mesh.")),
    }
    for fn in ("operators.assemble_gagliardo", "operators.solve_M", "operators.dual_norm_s",
               "operators.dual_norm_sigma", "operators.xnorm",
               "potentials.yosida_apply", "potentials.yosida_resolvent",
               "energy.energy", "energy.load_vector", "energy.weighted_mass",
               "energy.energy_gradient", "evolution.step"):
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    m["evolution.step.p50_ms"] = _percentile_ms(step_durs, 50)
    m["evolution.step.p95_ms"] = _percentile_ms(step_durs, 95)
    m["evolution.newton_iters_per_step"] = (
        inside("evolution.step", "energy.weighted_mass") / accepted if accepted else 0.0)
    m["evolution.step_accept_ratio"] = accepted / len(step_spans) if step_spans else 0.0
    m["evolution.evolve.self_s"] = self_s.get("evolution.evolve", 0.0)
    m["equilibrium.solve_stationary.total_s"] = total_s.get("equilibrium.solve_stationary", 0.0)
    m["equilibrium.newton_iters"] = inside("equilibrium.solve_semilinear", "energy.weighted_mass")
    m["equilibrium.residual_evals"] = inside("equilibrium.solve_semilinear", "energy.load_vector")
    for fn in ("default_equilibrium_seed", "kernel_and_projection", "pencil_eigenvalues",
               "isomorphism_check"):
        m[f"equilibrium.{fn}.self_s"] = self_s.get(f"equilibrium.{fn}", 0.0)
    m["equilibrium.eigh.calls"] = calls.get("equilibrium.eigh", 0)
    m["equilibrium.eigh.self_s"] = self_s.get("equilibrium.eigh", 0.0)
    m["cli.self_s"] = self_s.get("cli.main", 0.0)
    m["unattributed_s"] = wall_s - sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    return m
