"""The two instruments of the benchmark.

`StepTimer` is the only wrapper of an untraced run: it times each control
step.  `Tracer` wraps each layer's functions at the name its caller looks up,
records one span per call (name, start, end, parent span, control-step index)
in memory, and derives the per-layer metrics from them.  Both install their
wrappers on entry and put every original back on exit.

A name that does not exist in the code under test is not wrapped; the metrics
that depend on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

#: span name -> places (module, attribute path) where callers look it up
TARGETS = {
    "harness.run_scenario": [("seqmpc.harness", "run_scenario")],
    "harness.sweep": [("seqmpc.harness", "sweep")],
    "harness.compute_metrics": [("seqmpc.harness", "compute_metrics")],
    "harness.write_csv": [
        ("seqmpc.harness", "TimeSeries.write_csv"),
        ("seqmpc.harness", "write_sweep_csv"),
    ],
    "controller.build_references": [("seqmpc.harness", "build_references")],
    "controller.control_step": [("seqmpc.harness", "control_step")],
    "plant.plant_step": [("seqmpc.harness", "plant_step")],
    "kernels.integrate_plant": [("seqmpc._kernels", "integrate_plant")],
    "prediction.build_machine_subsystem": [
        (m, "build_machine_subsystem")
        for m in ("seqmpc.controller", "seqmpc.solver", "seqmpc.prediction")
    ],
    "prediction.build_grid_subsystem": [
        (m, "build_grid_subsystem")
        for m in ("seqmpc.controller", "seqmpc.solver", "seqmpc.prediction")
    ],
    "prediction.discretize": [
        (m, "discretize")
        for m in ("seqmpc.controller", "seqmpc.solver", "seqmpc.prediction")
    ],
    "prediction.build_multistep": [("seqmpc.controller", "build_multistep")],
    "solver.assemble_qp": [("seqmpc.controller", "assemble_qp")],
    "kernels.cholesky_lower": [("seqmpc._kernels", "cholesky_lower")],
    "solver.k_best": [("seqmpc.controller", "k_best")],
    "solver.sphere_decode": [("seqmpc.solver", "sphere_decode")],
    "kernels.sd_search": [("seqmpc._kernels", "sd_search")],
    "solver.select_pair": [("seqmpc.controller", "select_pair")],
    "prediction.predict_imbalance": [("seqmpc.controller", "predict_imbalance")],
    "prediction.imbalance_contributions": [
        (m, "imbalance_contributions") for m in ("seqmpc.solver", "seqmpc.prediction")
    ],
    "prediction.imbalance_path": [
        (m, "imbalance_path") for m in ("seqmpc.solver", "seqmpc.prediction")
    ],
}

MODEL_BUILD = (
    "prediction.build_machine_subsystem",
    "prediction.build_grid_subsystem",
    "prediction.discretize",
)
IMBALANCE = (
    "prediction.predict_imbalance",
    "prediction.imbalance_contributions",
    "prediction.imbalance_path",
)


def _nodes(args, decision):
    return decision.nodes_m + decision.nodes_n


def _candidates(args, cands):
    return len(cands)


def _is_override(args, pair):
    """Whether select_pair applied a pair other than the two best sequences."""
    machine_cands, grid_cands = args[1], args[2]
    return not (pair[0] == machine_cands.sequences[0] and pair[1] == grid_cands.sequences[0])


#: span name -> (note name, function of (args, result)) recorded per call
OBSERVERS = {
    "controller.control_step": ("nodes", _nodes),
    "solver.k_best": ("candidates", _candidates),
    "solver.select_pair": ("overrides", _is_override),
}
NODES, CANDIDATES, OVERRIDES = "note:nodes", "note:candidates", "note:overrides"

#: per-layer metric -> (unit, spans and notes it needs); all of them or it is absent
LAYER_METRICS = {
    "solver.k_best.us_per_step": ("us", ("solver.k_best",)),
    "solver.sphere_decode.calls_per_step": ("count", ("solver.sphere_decode",)),
    "solver.nodes_per_step.mean": ("count", (NODES,)),
    "solver.nodes_per_step.p99": ("count", (NODES,)),
    "solver.nodes_per_step.max": ("count", (NODES,)),
    "solver.nodes_per_candidate": ("count", (NODES, CANDIDATES)),
    "solver.assemble_qp.us_per_step": ("us", ("solver.assemble_qp",)),
    "solver.select_pair.us_per_step": ("us", ("solver.select_pair",)),
    "solver.select_pair.override_frac": ("ratio", (OVERRIDES,)),
    "kernels.sd_search.us_per_step": ("us", ("kernels.sd_search",)),
    "kernels.sd_search.us_per_node": ("us", ("kernels.sd_search", NODES)),
    "kernels.cholesky_lower.us_per_step": ("us", ("kernels.cholesky_lower",)),
    "kernels.integrate_plant.us_per_step": ("us", ("kernels.integrate_plant",)),
    "prediction.model_build.us_per_step": ("us", MODEL_BUILD),
    "prediction.discretize.calls_per_step": ("count", ("prediction.discretize",)),
    "prediction.build_multistep.us_per_step": ("us", ("prediction.build_multistep",)),
    "prediction.imbalance.us_per_step": ("us", IMBALANCE),
    "prediction.imbalance_path.calls_per_step": ("count", ("prediction.imbalance_path",)),
    "controller.control_step.self_us_per_step": ("us", ("controller.control_step",)),
    "controller.build_references.us_per_step": ("us", ("controller.build_references",)),
    "plant.plant_step.us_per_step": ("us", ("plant.plant_step",)),
    "harness.run_scenario.self_us_per_step": ("us", ("harness.run_scenario",)),
    "harness.compute_metrics.ms": ("ms", ("harness.compute_metrics",)),
    "harness.write_csv.ms": ("ms", ("harness.write_csv",)),
    "harness.sweep.cells": ("count", ("harness.sweep",)),
    "harness.sweep.cells_failed": ("count", ("harness.sweep",)),
    "harness.sweep.cell_s_p50": ("s", ("harness.sweep", "harness.run_scenario")),
    "harness.sweep.cell_s_max": ("s", ("harness.sweep", "harness.run_scenario")),
    "trace.overhead_frac": ("ratio", ()),
}


def resolve(module_name: str, path: str):
    """(owner, attribute) of a dotted path, or None when it does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


class Patches:
    """Attribute replacements that are all undone on exit."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def snapshot():
    """The object at every place where a wrapper may be installed."""
    out = {}
    for places in TARGETS.values():
        for place in places:
            target = resolve(*place)
            out[place] = vars(target[0])[target[1]] if target else None
    return out


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


_REF_FACTOR = (
    (2.0, 0.0, 0.0, 0.0),
    (0.3, 1.8, 0.0, 0.0),
    (-0.2, 0.4, 1.7, 0.0),
    (0.1, -0.3, 0.2, 1.9),
)
_REF_TARGET = (-2.0, -0.7, 0.6, 1.9)


def reference_pass():
    """A fixed depth-first search over {-1, 0, 1}^4 with numpy scalar
    arithmetic, the same kind of work as the decoder that dominates a
    control step, sharing no code with the program under test.  ~0.4 ms."""
    h = np.array(_REF_FACTOR)
    target = np.array(_REF_TARGET)
    n = h.shape[0]
    u = np.zeros(n, np.int64)
    tried = np.zeros(n, np.int64)
    prefix = np.zeros(n + 1)
    best = np.inf
    k = 0
    while k >= 0:
        if tried[k] >= 3:
            tried[k] = 0
            k -= 1
            continue
        v = tried[k] - 1
        tried[k] += 1
        s = 0.0
        for j in range(k):
            s += h[k, j] * u[j]
        resid = target[k] - (s + h[k, k] * v)
        d2 = prefix[k] + resid * resid
        if d2 > best + 50.0:
            continue
        u[k] = v
        if k == n - 1:
            best = min(best, d2)
            continue
        prefix[k + 1] = d2
        k += 1
    return best


class StepTimer:
    """Times every control step of an untraced run: one wrapper, nothing else.

    Records (start, end, simulated time, calibration) per step, and keeps the
    arguments and decision of the steps whose index is in `keep_steps`, so
    that they can be re-checked after the timed region.  With `calibrate`,
    each step is preceded by one `reference_pass`, timed outside the step,
    whose duration samples the host's speed at that moment.
    """

    def __init__(self, t_s: float, keep_steps=(), calibrate=False):
        self.t_s = t_s
        self.keep_steps = frozenset(keep_steps)
        self.calibrate = calibrate
        self.records = []
        self.kept = []  # (step index, args, kwargs, decision)
        self._patches = Patches()

    def __enter__(self):
        target = resolve("seqmpc.harness", "control_step")
        if target is None:
            raise RuntimeError("seqmpc.harness.control_step does not exist")
        self._patches.replace(*target, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _wrap(self, original):
        records, kept, keep, t_s = self.records, self.kept, self.keep_steps, self.t_s
        calibrate = self.calibrate
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            if calibrate:
                reference_pass()
            cal = clock() - start
            start += cal
            decision = original(*args, **kwargs)
            end = clock()
            sim_t = args[0].t
            records.append((start, end, sim_t, cal))
            if keep and round(sim_t / t_s) in keep:
                kept.append((round(sim_t / t_s), args, kwargs, decision))
            return decision

        return timed


class Tracer:
    """In-memory spans at every layer boundary of the library.

    Each span is (name, start_ns, end_ns, parent index, step) where `step`
    is the index of the latest control step begun in the current
    `run_scenario` call (-1 before the first); spans of one control step
    share it.  A few boundaries also record a deterministic count from the
    call's result (`OBSERVERS`).  Spans are kept in memory and written out
    by `write`.
    """

    def __init__(self):
        self.spans = []
        self.notes = {note: [] for note, _ in OBSERVERS.values()}  # (step, value)
        self.present = set()
        self.broken = set()  # notes whose result no longer has the expected shape
        self._stack = []
        self._step = -1
        self._patches = Patches()

    def __enter__(self):
        for name, places in TARGETS.items():
            for module_name, path in places:
                target = resolve(module_name, path)
                if target is not None:
                    self._patches.replace(*target, functools.partial(self._wrap, name))
                    self.present.add(name)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _wrap(self, name, original):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        tracer = self
        note, observe = OBSERVERS.get(name, (None, None))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name == "harness.run_scenario":
                tracer._step = -1
            elif name == "controller.control_step":
                tracer._step += 1
            step = tracer._step
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, step)
            if observe is not None:
                try:
                    tracer.notes[note].append((step, observe(args, result)))
                except (AttributeError, IndexError, TypeError):
                    tracer.broken.add(note)
            return result

        return traced

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def check_tree(self):
        """Problems with the span tree; empty when every span is closed, nests
        inside its parent without overlapping its siblings, and the self times
        under each control step add up to that step's span."""
        if self._stack or any(s is None for s in self.spans):
            return ["a span was left open"]
        problems = []
        last_end = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"span {i} ({name}) leaves its parent")
                if start < last_end.get(parent, p_start):
                    problems.append(f"span {i} ({name}) overlaps a sibling")
                last_end[parent] = end
        selfs = self.self_times()
        subtree = list(selfs)
        for i in range(len(self.spans) - 1, -1, -1):  # children follow their parent
            parent = self.spans[i][3]
            if parent >= 0:
                subtree[parent] += subtree[i]
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if selfs[i] < 0:
                problems.append(f"span {i} ({name}) has negative self time")
            if name == "controller.control_step" and subtree[i] != end - start:
                problems.append(f"control step span {i}: self times do not add up")
        return problems[:5]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,step\n")
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{step}\n")

    def layer_metrics(self, settle, sweep_rows, overhead_frac):
        """Per-layer metrics of the traced units: name -> (value, unit).

        The first `settle` steps of every run are outside the per-step
        window.  `sweep_rows` holds the rows of every traced sweep call.
        Metrics whose functions or notes are missing are left out.
        """
        selfs = self.self_times()
        steps = 0
        total = {}  # name -> inclusive ns in the window
        own = {}    # name -> self ns in the window
        calls = {}  # name -> calls in the window
        durations = {}  # name -> every inclusive duration in s
        run_self = all_steps = 0
        cells = []
        for i, (name, start, end, parent, step) in enumerate(self.spans):
            durations.setdefault(name, []).append((end - start) * 1e-9)
            if name == "harness.run_scenario":
                run_self += selfs[i]
                if parent >= 0 and self.spans[parent][0] == "harness.sweep":
                    cells.append((end - start) * 1e-9)
            elif name == "controller.control_step":
                all_steps += 1
            if step < settle:
                continue
            steps += name == "controller.control_step"
            total[name] = total.get(name, 0) + (end - start)
            own[name] = own.get(name, 0) + selfs[i]
            calls[name] = calls.get(name, 0) + 1
        if steps == 0:
            raise RuntimeError("the traced run measured no control step")
        window = {
            note: [v for step, v in values if step >= settle]
            for note, values in self.notes.items()
        }
        nodes = sorted(window["nodes"]) or [0]
        cells.sort()
        sweeps = max(1, len(durations.get("harness.sweep", [])))

        def us(table, *names):
            return sum(table.get(n, 0) for n in names) * 1e-3 / steps

        def mean_ms(name):
            values = durations.get(name, [])
            return 1e3 * sum(values) / len(values) if values else 0.0

        values = {
            "solver.k_best.us_per_step": us(total, "solver.k_best"),
            "solver.sphere_decode.calls_per_step": calls.get("solver.sphere_decode", 0) / steps,
            "solver.nodes_per_step.mean": sum(nodes) / steps,
            "solver.nodes_per_step.p99": nearest_rank(nodes, 99),
            "solver.nodes_per_step.max": nodes[-1],
            "solver.nodes_per_candidate": sum(nodes) / max(1, sum(window["candidates"])),
            "solver.assemble_qp.us_per_step": us(total, "solver.assemble_qp"),
            "solver.select_pair.us_per_step": us(total, "solver.select_pair"),
            "solver.select_pair.override_frac": sum(window["overrides"]) / steps,
            "kernels.sd_search.us_per_step": us(total, "kernels.sd_search"),
            "kernels.sd_search.us_per_node":
                total.get("kernels.sd_search", 0) * 1e-3 / max(1, sum(nodes)),
            "kernels.cholesky_lower.us_per_step": us(total, "kernels.cholesky_lower"),
            "kernels.integrate_plant.us_per_step": us(total, "kernels.integrate_plant"),
            "prediction.model_build.us_per_step": us(own, *MODEL_BUILD),
            "prediction.discretize.calls_per_step": calls.get("prediction.discretize", 0) / steps,
            "prediction.build_multistep.us_per_step": us(own, "prediction.build_multistep"),
            "prediction.imbalance.us_per_step": us(own, *IMBALANCE),
            "prediction.imbalance_path.calls_per_step":
                calls.get("prediction.imbalance_path", 0) / steps,
            "controller.control_step.self_us_per_step": us(own, "controller.control_step"),
            "controller.build_references.us_per_step": us(own, "controller.build_references"),
            "plant.plant_step.us_per_step": us(own, "plant.plant_step"),
            "harness.run_scenario.self_us_per_step": run_self * 1e-3 / max(1, all_steps),
            "harness.compute_metrics.ms": mean_ms("harness.compute_metrics"),
            "harness.write_csv.ms": mean_ms("harness.write_csv"),
            "harness.sweep.cells": len(sweep_rows) / sweeps,
            "harness.sweep.cells_failed":
                sum(row.get("status") != "ok" for row in sweep_rows) / sweeps,
            "harness.sweep.cell_s_p50": nearest_rank(cells, 50) if cells else 0.0,
            "harness.sweep.cell_s_max": cells[-1] if cells else 0.0,
            "trace.overhead_frac": overhead_frac,
        }
        have = self.present | {
            f"note:{note}"
            for span, (note, _) in OBSERVERS.items()
            if span in self.present and note not in self.broken
        }
        return {
            name: (values[name], unit)
            for name, (unit, needs) in LAYER_METRICS.items()
            if all(n in have for n in needs)
        }
