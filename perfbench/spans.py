"""Per-layer spans recorded by wrapping rwspn's public layer functions.

Each target below is looked up by its public name in its defining module.
The wrapper replaces the function under every public name that binds it in
a loaded ``rwspn`` module, so calls are caught where the callers bind them
(``rwspn.rewrite.normalize_marking``, ``rwspn.cli.measure_series``, ...).
A target that no longer exists is listed in ``Tracer.absent`` and its
metrics read zero; nothing private (``_``-prefixed) is touched.

Every wrapped call is one span.  Spans nest through a stack: a span's self
time is its duration minus the durations of its direct child spans.  Spans
stay in memory as per-target accumulators; the metrics are computed once,
after the traced command returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TARGETS = {
    "canon": ("normalize", "normalize_marking", "brute_force_normal"),
    "rewrite": ("to_augmented", "fire_agg", "all_rewrites", "rule_app"),
    "net": ("enabled_instances", "fire"),
    "statespace": ("explore", "quotient_partition"),
    "ctmc": ("build_generator", "transient", "measure_series",
             "check_strong_lumpability", "lump_generator"),
}

# results kept for the metrics computed after the run
_KEEP_RESULT = ("canon.normalize", "canon.brute_force_normal",
                "statespace.explore", "ctmc.build_generator")
# normal-form nets seen by canon: those of the systems it returns, and the
# net handed to normalize_marking (already in normal form)
_CANON_NETS = ("canon.normalize", "canon.brute_force_normal", "canon.normalize_marking")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{name}": _Stat() for layer, names in TARGETS.items() for name in names}
        self.absent: list[str] = []
        self.layer_time = {layer: 0.0 for layer in TARGETS}  # outermost spans per layer
        self.root_time = 0.0  # spans called straight from the CLI
        self.kept: dict[str, list] = {name: [] for name in (*_KEEP_RESULT, *_CANON_NETS)}
        self.transients: list[tuple] = []  # (generator, details) per transient call
        self._stack: list[float] = []  # child time accumulated by each open span
        self._depth = dict.fromkeys(TARGETS, 0)

    def install(self) -> None:
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"rwspn.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                target = getattr(module, name, None)
                if not callable(target):
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._rebind(target, self._wrap(layer, f"{layer}.{name}", target))

    @staticmethod
    def _rebind(target, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "rwspn" and not modname.startswith("rwspn."):
                continue
            for attr, value in list(vars(module).items()):
                if value is target and not attr.startswith("_"):
                    setattr(module, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        kept = self.kept.get(name)
        net_arg = name == "canon.normalize_marking"
        params = list(inspect.signature(fn).parameters) if name == "ctmc.transient" else []
        details_at = params.index("details") if "details" in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            details = None
            if details_at is not None:
                details = args[details_at] if len(args) > details_at else kwargs.get("details")
                if details is None and len(args) <= details_at:
                    details = kwargs["details"] = {}
            depth[layer] += 1
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                child = stack.pop()
                depth[layer] -= 1
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_time += elapsed
                if not depth[layer]:
                    self.layer_time[layer] += elapsed
            if net_arg:
                kept.append(args[0] if args else kwargs.get("net"))
            elif kept is not None:
                kept.append(result)
            elif details is not None:
                gen = args[0] if args else kwargs.get("gen")
                self.transients.append((gen, details))
            return result

        return wrapper

    def metrics(self, wall_s: float, rss_growth_b: int) -> dict[str, float]:
        """Per-layer metrics of the traced command, whose wall time was
        ``wall_s`` and whose peak RSS grew by ``rss_growth_b`` bytes."""
        s = self.stats
        out: dict[str, float] = {}
        for name in ("canon.normalize", "canon.normalize_marking", "canon.brute_force_normal",
                     "net.enabled_instances", "net.fire"):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.s"] = s[name].total
        out["canon.share"] = self.layer_time["canon"] / wall_s
        nets = {getattr(x, "net", x) for name in _CANON_NETS for x in self.kept[name]}
        out["canon.distinct_nets"] = len(nets)

        out["rewrite.to_augmented.calls"] = s["rewrite.to_augmented"].calls
        out["rewrite.fire_agg.self_s"] = s["rewrite.fire_agg"].self_time
        out["rewrite.all_rewrites.self_s"] = s["rewrite.all_rewrites"].self_time
        out["rewrite.rule_app.calls"] = s["rewrite.rule_app"].calls
        out["rewrite.rule_app.self_s"] = s["rewrite.rule_app"].self_time

        systems = self.kept["statespace.explore"]
        states = sum(len(ts.states) for ts in systems)
        edges = sum(len(ts.edges) for ts in systems)
        explore_s = s["statespace.explore"].total
        out["statespace.explore.s"] = explore_s
        out["statespace.explore.self_s"] = s["statespace.explore"].self_time
        out["statespace.states"] = states
        out["statespace.edges"] = edges
        out["statespace.levels"] = sum(max(ts.levels, default=-1) + 1 for ts in systems)
        # every successor record of the BFS becomes one edge
        out["statespace.new_state_ratio"] = states / edges if edges else 0.0
        out["statespace.states_per_s"] = states / explore_s if explore_s else 0.0
        out["statespace.rss_per_state_b"] = rss_growth_b / states if states else 0.0
        out["statespace.quotient_partition.s"] = s["statespace.quotient_partition"].total

        out["ctmc.build_generator.s"] = s["ctmc.build_generator"].total
        out["ctmc.nnz"] = sum(gen.offdiag.nnz for gen in self.kept["ctmc.build_generator"])
        terms = [d.get("terms", 0) for _gen, d in self.transients]
        transient_s = s["ctmc.transient"].total
        out["ctmc.lambda"] = max((gen.max_exit_rate for gen, _d in self.transients), default=0.0)
        out["ctmc.transient.calls"] = s["ctmc.transient"].calls
        out["ctmc.transient.s"] = transient_s
        out["ctmc.transient.terms"] = sum(terms)
        matvecs = sum(max(k - 1, 0) for k in terms)
        out["ctmc.matvec_per_s"] = matvecs / transient_s if transient_s else 0.0
        out["ctmc.bytes_per_matvec"] = (
            _csr_matvec_bytes(self.transients[0][0]) if self.transients else 0.0
        )
        out["ctmc.max_mass_defect"] = max(
            (abs(d["raw_mass"] - 1.0) for _gen, d in self.transients if "raw_mass" in d),
            default=0.0,
        )
        out["ctmc.measure_series.self_s"] = s["ctmc.measure_series"].self_time
        out["ctmc.check_strong_lumpability.s"] = s["ctmc.check_strong_lumpability"].total
        out["ctmc.lump_generator.s"] = s["ctmc.lump_generator"].total

        out["cli.self_s"] = wall_s - self.root_time
        out["trace.absent_targets"] = len(self.absent)
        return out


def _csr_matvec_bytes(gen) -> float:
    """Bytes one uniformized mat-vec moves, computed from the generator's
    shape: the uniformized matrix has the off-diagonal pattern plus a full
    diagonal; values are float64; x is read and y written once."""
    n = gen.n
    nnz = gen.offdiag.nnz + n
    index = gen.offdiag.indices.itemsize
    return float(nnz * (8 + index) + (n + 1) * index + 2 * n * 8)
