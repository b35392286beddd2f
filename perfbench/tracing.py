"""Span recorder for the traced run: wraps qamem's public functions from outside.

Each wrapped call records a span (name, start, end, parent).  Spans stay in
memory until :meth:`Tracer.write` stores them at the end of the run.  A
layer's self time is the time of its spans minus the time of their direct
children.  Nothing here is imported by an untraced run.

Functions that a module bound with ``from ... import`` are patched under
every name that refers to them (``qamem.retrieval.apply_circuit`` and so
on), so a call is recorded whichever module makes it.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

#: layer -> public functions wrapped in that layer's module
TRACED = {
    "simulator": ("apply", "apply_circuit", "section_marginal", "measure_section", "postselect"),
    "memory": ("build_memory_circuit", "build_memory_operator", "store_sequential"),
    "retrieval": (
        "analytic_distribution",
        "prepare_final_state",
        "retrieval_round_circuit",
        "simulate_distribution",
        "retrieve",
        "amplitude_amplify",
    ),
    "patterns": ("read_pattern_file",),
    "cli": ("main",),
    "thermo": ("potentials", "tune", "scan_transition"),
    "meanfield": ("classify_phase", "solve_single", "scan_phase_diagram"),
    "classical": ("hebb", "update_async", "capacity_experiment_seeded"),
}

#: names bound by ``from ... import`` that must route through the wrappers
BOUND = (
    ("memory", "apply_circuit"),
    ("retrieval", "apply_circuit"),
    ("retrieval", "section_marginal"),
    ("retrieval", "build_memory_circuit"),
    ("cli", "read_pattern_file"),
)

#: per-layer metrics: name -> unit, in the order they are reported
METRICS = {
    "setup.scipy_import_s": "s",
    "setup.qamem_import_s": "s",
    "simulator.self_s": "s",
    "simulator.gates": "count",
    "simulator.amp_updates": "count",
    "simulator.ns_per_amp_update": "ns",
    "simulator.peak_support": "count",
    "simulator.measure_s": "s",
    "memory.circuit_build_s": "s",
    "memory.store_s": "s",
    "retrieval.prepare_s": "s",
    "retrieval.round_build_s": "s",
    "retrieval.analytic_s": "s",
    "retrieval.prepares_per_retrieve": "ratio",
    "retrieval.retrieve_p50_ms": "ms",
    "retrieval.retrieve_tail_ms": "ms",
    "retrieval.amplify_s": "s",
    "patterns.read_s": "s",
    "patterns.read_us_per_pattern": "us",
    "cli.self_s": "s",
    "cli.request_p50_ms": "ms",
    "cli.request_tail_ms": "ms",
    "thermo.potentials_calls": "count",
    "thermo.ms_per_potentials": "ms",
    "thermo.tune_s": "s",
    "thermo.scan_s": "s",
    "meanfield.classify_s": "s",
    "meanfield.ms_per_cell": "ms",
    "meanfield.solve_single_s": "s",
    "classical.capacity_s": "s",
    "classical.update_async_s": "s",
    "classical.ms_per_trial": "ms",
    "trace.overhead_s": "s",
}


def tail(values):
    """(percentile, value): the highest of p99.9/p99/p90/p75 with at least ten
    samples beyond it; the median (50, value) below forty samples."""
    xs = sorted(values)
    for pct in (99.9, 99.0, 90.0, 75.0):
        if len(xs) * (100.0 - pct) / 100.0 >= 10:
            return pct, xs[min(len(xs) - 1, int(len(xs) * pct / 100.0))]
    return 50.0, statistics.median(xs) if xs else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per span; parent is -1 at top level
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.amp_updates = 0
        self.peak_support = 0
        self.patterns_read = 0
        self.trials = 0
        self.patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn, after=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_apply(self, args, kwargs, result):
        n_in = len(args[0].amps)
        self.amp_updates += n_in
        self.peak_support = max(self.peak_support, n_in, len(result.amps))

    def _after_read(self, args, kwargs, result):
        self.patterns_read += result.p

    def _after_capacity(self, args, kwargs, result):
        self.trials += sum(row.trials for row in result.rows)

    def install(self) -> None:
        """Replace every traced function under each name that refers to it."""
        import qamem.cli  # noqa: F401  (loads every module)

        modules = {layer: sys.modules[f"qamem.{layer}"] for layer in TRACED}
        hooks = {
            "simulator.apply": self._after_apply,
            "patterns.read_pattern_file": self._after_read,
            "classical.capacity_experiment_seeded": self._after_capacity,
        }
        wrappers = {}
        for layer, funcs in TRACED.items():
            for func in funcs:
                fn = getattr(modules[layer], func, None)
                if fn is None:
                    print(f"trace: qamem.{layer}.{func} not found", file=sys.stderr)
                    continue
                name = f"{layer}.{func}"
                wrappers[id(fn)] = self._wrap(name, fn, hooks.get(name))
        for mod in sys.modules.values():
            if not getattr(mod, "__name__", "").startswith("qamem"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    self.patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for layer, attr in BOUND:
            mod = sys.modules[f"qamem.{layer}"]
            if not hasattr(getattr(mod, attr, None), "__wrapped__"):
                raise RuntimeError(f"trace: qamem.{layer}.{attr} was not patched")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self.patched):
            setattr(mod, attr, value)
        self.patched.clear()

    # ------------------------------------------------------------ results

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for nid in self.span_name:
            counts[self.names[nid].split(".")[0]] += 1
        return dict(counts)

    def metrics(self, rounds: int, setup: dict, overhead_s: float) -> tuple[dict, dict]:
        """(per-layer metrics, notes); times and counts are per traced round."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        total = defaultdict(int)  # inclusive ns per function name
        own = defaultdict(int)  # self ns per function name
        calls = defaultdict(int)
        per_call = defaultdict(list)
        under_retrieve = 0
        retrieve_id = self.name_ids.get("retrieval.retrieve")
        prepare_id = self.name_ids.get("retrieval.prepare_final_state")
        for i in range(n):
            name = self.names[self.span_name[i]]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            if name in ("retrieval.retrieve", "cli.main"):
                per_call[name].append(dur[i] / 1e6)
            if self.span_name[i] == prepare_id:
                j = self.parent[i]
                while j >= 0 and self.span_name[j] != retrieve_id:
                    j = self.parent[j]
                under_retrieve += j >= 0

        def s(*names, which=total):
            return sum(which[x] for x in names) / 1e9 / rounds

        def layer_self(layer):
            return sum(v for k, v in own.items() if k.startswith(layer + ".")) / 1e9 / rounds

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        sim_self = layer_self("simulator")
        apply_ns = own["simulator.apply"]
        retrieve_p = per_call["retrieval.retrieve"]
        cli_p = per_call["cli.main"]
        retrieve_tail = tail(retrieve_p)
        cli_tail = tail(cli_p)
        cells = calls["meanfield.classify_phase"]
        out = {
            "setup.scipy_import_s": setup["scipy_import_s"],
            "setup.qamem_import_s": setup["qamem_import_s"],
            "simulator.self_s": sim_self,
            "simulator.gates": calls["simulator.apply"] / rounds,
            "simulator.amp_updates": self.amp_updates / rounds,
            "simulator.ns_per_amp_update": ratio(apply_ns, self.amp_updates),
            "simulator.peak_support": self.peak_support,
            "simulator.measure_s": s(
                "simulator.section_marginal", "simulator.measure_section", "simulator.postselect", which=own
            ),
            "memory.circuit_build_s": s("memory.build_memory_circuit"),
            "memory.store_s": s("memory.build_memory_operator", "memory.store_sequential"),
            "retrieval.prepare_s": s("retrieval.prepare_final_state"),
            "retrieval.round_build_s": s("retrieval.retrieval_round_circuit"),
            "retrieval.analytic_s": s("retrieval.analytic_distribution"),
            "retrieval.prepares_per_retrieve": ratio(under_retrieve, calls["retrieval.retrieve"]),
            "retrieval.retrieve_p50_ms": statistics.median(retrieve_p) if retrieve_p else 0.0,
            "retrieval.retrieve_tail_ms": retrieve_tail[1],
            "retrieval.amplify_s": s("retrieval.amplitude_amplify"),
            "patterns.read_s": s("patterns.read_pattern_file"),
            "patterns.read_us_per_pattern": ratio(total["patterns.read_pattern_file"], self.patterns_read, 1e-3),
            "cli.self_s": layer_self("cli"),
            "cli.request_p50_ms": statistics.median(cli_p) if cli_p else 0.0,
            "cli.request_tail_ms": cli_tail[1],
            "thermo.potentials_calls": calls["thermo.potentials"] / rounds,
            "thermo.ms_per_potentials": ratio(total["thermo.potentials"], calls["thermo.potentials"], 1e-6),
            "thermo.tune_s": s("thermo.tune"),
            "thermo.scan_s": s("thermo.scan_transition"),
            "meanfield.classify_s": s("meanfield.classify_phase"),
            "meanfield.ms_per_cell": ratio(total["meanfield.classify_phase"], cells, 1e-6),
            "meanfield.solve_single_s": s("meanfield.solve_single"),
            "classical.capacity_s": s("classical.capacity_experiment_seeded"),
            "classical.update_async_s": s("classical.update_async"),
            "classical.ms_per_trial": ratio(total["classical.capacity_experiment_seeded"], self.trials, 1e-6),
            "trace.overhead_s": overhead_s,
        }
        notes = {
            "traced_rounds": rounds,
            "spans": n,
            "span_counts": self.span_counts(),
            "retrieve_samples": len(retrieve_p),
            "retrieve_tail_percentile": retrieve_tail[0],
            "request_samples": len(cli_p),
            "request_tail_percentile": cli_tail[0],
        }
        return out, notes

    def write(self, path, notes: dict) -> None:
        """Write every span (name, start_ns, end_ns, parent index) as gzip JSON."""
        doc = {
            "notes": notes,
            "names": self.names,
            "spans": [
                [self.span_name[i], self.start[i], self.end[i], self.parent[i]] for i in range(len(self.span_name))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
