"""Traced runs: time each layer's public calls and turn spans into metrics.

The program already emits spans (``round``, engine stages, kernel
``chunk`` tasks, ``sweep``/``sweep_cell``, ``http_request``) and
registry counters.  :class:`Probe` adds one span around each layer's
public entry points from outside the program — it wraps the methods
for the duration of the traced phase and restores them afterwards — so
every layer has a measured boundary without any instrumentation inside
``src/``.  Probe spans are named ``bench.<layer>.<call>``;
:class:`Spans` reads both kinds of span back and :func:`layer_metrics`
reduces them to the per-layer metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

PREFIX = "bench."

#: Per-layer metrics: what each one measures and which end-to-end
#: metric it should move on which workload (exported with the values).
LAYER_METRICS: Dict[str, Dict[str, Any]] = {}


def _layer(name: str, definition: str, *moves: Tuple[str, str]) -> None:
    LAYER_METRICS[name] = {
        "layer": "repro." + name.split(".")[0],
        "definition": definition,
        "moves": [{"metric": metric, "workload": workload} for metric, workload in moves],
    }


_DEPLOY = ("fig5-dist", "uniform-2k")
_layer("api.step_s", "mean Simulation.step call (one round as the session sees it)",
       ("job_s", "fig5-dist"), ("round_ms_p50", "fig5-dist"), ("svc_step_ms_p50", "service-mix"))
_layer("api.step_self_s", "mean Simulation.step minus the engine or runtime round and apply_moves",
       ("job_s", "fig5-dist"), ("round_ms_p50", "fig5-dist"), ("svc_step_ms_p50", "service-mix"))
_layer("api.dark_frac", "share of round-span time covered by no span inside it, program or probe layer span",
       *[("job_s", w) for w in _DEPLOY])
_layer("api.result_s", "mean Deployer.result call (final sensing ranges)",
       *[("job_s", w) for w in _DEPLOY])
_layer("api.checkpoint_s", "mean Simulation.checkpoint call (eviction)", ("svc_step_ms_p95", "service-mix"))
_layer("api.restore_s", "mean Simulation.restore call (resurrection)", ("svc_step_ms_p95", "service-mix"))
_layer("api.checkpoint_bytes", "mean serialized checkpoint size", ("svc_step_ms_p95", "service-mix"))
_layer("engine.round_s", "mean RoundEngine.compute_round call",
       ("job_s", "uniform-2k"), ("svc_step_ms_p50", "service-mix"), ("throughput_per_s", "sweep-grid"))
for _stage in ("query", "candidates", "kth", "clip", "finish", "emit", "summary"):
    _layer(f"engine.{_stage}_s", f"'{_stage}' stage spans per engine round", ("job_s", "uniform-2k"))
_layer("engine.thread_efficiency", "kernel chunk-span time over threads x clip wall time",
       ("job_s", "uniform-2k"))
_layer("engine.candidates_per_node", "repro_grid_candidates_total per node per round",
       ("job_s", "uniform-2k"))
_layer("engine.pieces", "repro_piece_pool_pieces_total per round", ("job_s", "uniform-2k"))
_layer("runtime.round_s", "mean DistributedRoundEngine.run_round call", ("job_s", "fig5-dist"))
for _stage in ("gather", "circle_check", "clip", "summary"):
    _layer(f"runtime.{_stage}_s", f"'{_stage}' stage spans per runtime round (absent when the engine emits none)",
           ("job_s", "fig5-dist"))
_layer("runtime.messages", "protocol messages per deployment", ("job_s", "fig5-dist"))
_layer("runtime.transmissions", "radio transmissions per deployment", ("job_s", "fig5-dist"))
_layer("runtime.bytes_sent", "bytes sent per deployment", ("job_s", "fig5-dist"))
_layer("network.apply_moves_s", "mean SensorNetwork.apply_moves call", ("job_s", "fig5-dist"))
_layer("network.build_s", "mean SensorNetwork construction", *[("setup_s", w) for w in _DEPLOY])
for _call in ("create", "step", "result", "delete"):
    _layer(f"service.{_call}_s", f"mean SessionManager.{_call} call in the server process",
           ("svc_step_ms_p50", "service-mix"), ("throughput_per_s", "service-mix"))
_layer("service.http_overhead_ms", "mean client step latency minus mean SessionManager.step",
       ("svc_step_ms_p50", "service-mix"), ("throughput_per_s", "service-mix"))
_layer("service.step_wait_s", "mean SessionManager.step minus simulation, restore and eviction time",
       ("svc_step_ms_p95", "service-mix"))
_layer("service.live_hit_ratio", "share of steps whose session was live (no resurrection)",
       ("svc_step_ms_p95", "service-mix"))
_layer("service.evictions", "checkpoint evictions per step request", ("svc_step_ms_p95", "service-mix"))
_layer("service.resurrections", "resurrections per step request", ("svc_step_ms_p95", "service-mix"))
_layer("scenarios.cell_s_p50", "median sweep_cell span", ("throughput_per_s", "sweep-grid"))
_layer("scenarios.cell_s_max", "slowest sweep_cell span", ("throughput_per_s", "sweep-grid"))
_layer("scenarios.pool_efficiency", "sum of cell spans over jobs x sweep wall time",
       ("throughput_per_s", "sweep-grid"))
_layer("scenarios.straggler_s", "time from the first worker's last cell end to the last's",
       ("throughput_per_s", "sweep-grid"))
_layer("scenarios.store_s", "SweepRunner.store time per sweep", ("throughput_per_s", "sweep-grid"))
_layer("obs.trace_overhead_frac", "traced over untraced end-to-end time, minus 1",
       ("job_s", "fig5-dist"), ("job_s", "uniform-2k"),
       ("svc_step_ms_p50", "service-mix"), ("job_s", "sweep-grid"))

#: The per-layer metrics each workload exercises.  A traced run that
#: comes back without one of them fails a check, so a lost measurement
#: shows in ``failed`` instead of reading as 0 on the result line.
_COMMON = ("api.step_s", "api.step_self_s", "api.dark_frac", "api.result_s",
           "network.apply_moves_s", "network.build_s", "obs.trace_overhead_frac")
EXERCISED: Dict[str, Tuple[str, ...]] = {
    "fig5-dist": _COMMON + ("runtime.round_s", "runtime.messages",
                            "runtime.transmissions", "runtime.bytes_sent"),
    "uniform-2k": _COMMON + tuple(
        name for name in LAYER_METRICS
        if name.startswith("engine.")
    ),
    "service-mix": _COMMON + ("api.checkpoint_s", "api.restore_s", "api.checkpoint_bytes",
                              "engine.round_s") + tuple(
        name for name in LAYER_METRICS if name.startswith("service.")
    ),
    "sweep-grid": _COMMON + ("engine.round_s",) + tuple(
        name for name in LAYER_METRICS if name.startswith("scenarios.")
    ),
}


# ----------------------------------------------------------------------
# Probe: spans around public calls, installed from outside the program
# ----------------------------------------------------------------------
class Probe:
    """Wraps public methods in ``bench.*`` spans; ``with Probe(): ...``.

    Spans cost nothing while tracing is off, but the probe is still only
    installed for the traced phase.  A wrapper that re-enters itself on
    the same thread (a subclass calling ``super()``) records one span.
    A target the program no longer defines is listed in ``missing``.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []
        self._active = threading.local()
        self.missing: List[str] = []

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        from repro.api.checkpoint import SimulationCheckpoint
        from repro.api.deployers import Deployer
        from repro.api.session import Simulation
        from repro.engine.base import RoundEngine
        from repro.network.network import SensorNetwork
        from repro.runtime import sparse as _sparse_runtime  # noqa: F401 - registers subclasses
        from repro.runtime.engines import DistributedRoundEngine
        from repro.scenarios.sweep import SweepRunner
        from repro.service.manager import SessionManager

        self._wrap(Simulation, "step", "api.step")
        self._wrap(Simulation, "checkpoint", "api.checkpoint")
        self._wrap(Simulation, "restore", "api.restore")
        self._wrap(SimulationCheckpoint, "to_json", "api.checkpoint_json", size=True)
        self._wrap_family(Deployer, "result", "api.result")
        self._wrap_family(RoundEngine, "compute_round", "engine.round")
        self._wrap_family(DistributedRoundEngine, "run_round", "runtime.round")
        self._wrap(SensorNetwork, "apply_moves", "network.apply_moves")
        self._wrap(SensorNetwork, "__init__", "network.build")
        self._wrap(SweepRunner, "store", "scenarios.store")
        for call in ("create", "step", "result", "delete"):
            self._wrap(SessionManager, call, f"service.{call}")
        # The manager's resurrect and evict paths, so a step's own wait
        # can be told apart from the restore and eviction it triggers.
        self._wrap(SessionManager, "_ensure_live", "service.ensure_live")
        self._wrap(SessionManager, "_evict", "service.evict")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap_family(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
        owners = [cls for cls in _family(base) if attr in cls.__dict__]
        if not owners:
            self.missing.append(f"{base.__name__}.{attr}")
        for cls in owners:
            self._wrap(cls, attr, name)

    def _wrap(self, owner: type, attr: str, name: str, size: bool = False) -> None:
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        span_name = PREFIX + name
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self._timed(original.__func__, span_name)))
        elif inspect.iscoroutinefunction(original):
            setattr(owner, attr, _timed_async(original, span_name))
        else:
            setattr(owner, attr, self._timed(original, span_name, size))

    def _timed(self, fn: Callable, span_name: str, size: bool = False) -> Callable:
        from repro.obs import trace as _trace

        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names = getattr(active, "names", None)
            if names is None:
                names = active.names = set()
            if span_name in names:
                return fn(*args, **kwargs)
            names.add(span_name)
            try:
                with _trace.span(span_name):
                    out = fn(*args, **kwargs)
                    if size:
                        _trace.annotate(bytes=len(out))
                    return out
            finally:
                names.discard(span_name)

        return wrapper


def _timed_async(fn: Callable, span_name: str) -> Callable:
    from repro.obs import trace as _trace

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        with _trace.span(span_name):
            return await fn(*args, **kwargs)

    return wrapper


def _family(base: type) -> List[type]:
    """``base`` and every subclass of it defined so far."""
    seen: List[type] = []
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
class Spans:
    """Span rows from one or more collectors, indexed for the reductions."""

    def __init__(self, rows: Iterable[Dict[str, Any]]) -> None:
        self.rows = list(rows)
        self.by_id = {row["id"]: row for row in self.rows}
        self.by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self.children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for row in self.rows:
            self.by_name[row["name"]].append(row)
            self.children[row["parent"]].append(row)

    def named(self, name: str) -> List[Dict[str, Any]]:
        return self.by_name.get(name, [])

    def probe(self, name: str) -> List[Dict[str, Any]]:
        return self.named(PREFIX + name)

    def mean_dur(self, name: str) -> Optional[float]:
        rows = self.probe(name)
        return sum(r["dur"] for r in rows) / len(rows) if rows else None

    def descendants(self, row: Dict[str, Any], stop: Callable[[Dict], bool] = None):
        """Every span under ``row``; with ``stop``, don't descend past matches."""
        stack = list(self.children.get(row["id"], ()))
        while stack:
            child = stack.pop()
            yield child
            if stop is None or not stop(child):
                stack.extend(self.children.get(child["id"], ()))

    def nearest_probe(self, row: Dict[str, Any]) -> Optional[str]:
        """Name of the closest enclosing ``bench.*`` span, if any."""
        parent = self.by_id.get(row["parent"])
        while parent is not None:
            if parent["name"].startswith(PREFIX):
                return parent["name"][len(PREFIX):]
            parent = self.by_id.get(parent["parent"])
        return None

    def self_time(self, row: Dict[str, Any], minus: Tuple[str, ...]) -> float:
        """``row``'s duration minus its nearest descendants named in ``minus``."""
        names = {PREFIX + name for name in minus}
        inner = sum(
            child["dur"]
            for child in self.descendants(row, stop=lambda r: r["name"] in names)
            if child["name"] in names
        )
        return row["dur"] - inner

    def uncovered(self, row: Dict[str, Any]) -> float:
        """Time in ``row`` that no span below it, program or probe, accounts for."""
        start, end = row["ts"], row["ts"] + row["dur"]
        intervals = sorted(
            (max(start, child["ts"]), min(end, child["ts"] + child["dur"]))
            for child in self.descendants(row)
        )
        covered, reach = 0.0, start
        for low, high in intervals:
            low = max(low, reach)
            if high > low:
                covered += high - low
                reach = high
        return row["dur"] - covered


def stage_per_round(spans: Spans, layer: str, stage: str) -> Optional[float]:
    """Summed ``stage`` spans inside ``layer`` rounds, per round."""
    rounds = spans.probe(f"{layer}.round")
    stages = [
        row for row in spans.named(stage)
        if spans.nearest_probe(row) == f"{layer}.round"
    ]
    if not rounds or not stages:
        return None
    return sum(row["dur"] for row in stages) / len(rounds)


def layer_metrics(spans: Spans, context: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every declared per-layer metric; ``None`` where the run has no data.

    ``context`` carries what spans cannot: ``threads`` (kernel workers),
    ``jobs`` (pool size), ``sweeps``, ``registry`` counter deltas with
    ``nodes``, ``communication`` totals per deployment, client-side
    service figures and ``trace_overhead_frac``.
    """
    out: Dict[str, Optional[float]] = {name: None for name in LAYER_METRICS}

    out["api.step_s"] = spans.mean_dur("api.step")
    steps = spans.probe("api.step")
    if steps:
        own = [spans.self_time(r, ("engine.round", "runtime.round", "network.apply_moves"))
               for r in steps]
        out["api.step_self_s"] = sum(own) / len(own)
    rounds = spans.named("round")
    if rounds:
        out["api.dark_frac"] = (
            sum(spans.uncovered(r) for r in rounds) / sum(r["dur"] for r in rounds)
        )
    out["api.result_s"] = spans.mean_dur("api.result")
    out["api.checkpoint_s"] = spans.mean_dur("api.checkpoint")
    out["api.restore_s"] = spans.mean_dur("api.restore")
    blobs = spans.probe("api.checkpoint_json")
    if blobs:
        out["api.checkpoint_bytes"] = sum(r["args"]["bytes"] for r in blobs) / len(blobs)

    out["engine.round_s"] = spans.mean_dur("engine.round")
    for stage in ("query", "candidates", "kth", "clip", "finish", "emit", "summary"):
        out[f"engine.{stage}_s"] = stage_per_round(spans, "engine", stage)
    clips = [r for r in spans.named("clip") if spans.nearest_probe(r) == "engine.round"]
    if clips:
        chunks = sum(
            child["dur"]
            for clip in clips
            for child in spans.descendants(clip)
            if child["name"] == "chunk"
        )
        wall = sum(r["dur"] for r in clips)
        out["engine.thread_efficiency"] = chunks / (context["threads"] * wall)
    engine_rounds = len(spans.probe("engine.round"))
    registry = context.get("registry")
    if registry and engine_rounds:
        out["engine.candidates_per_node"] = (
            registry["repro_grid_candidates_total"] / (registry["nodes"] * engine_rounds)
        )
        out["engine.pieces"] = registry["repro_piece_pool_pieces_total"] / engine_rounds

    out["runtime.round_s"] = spans.mean_dur("runtime.round")
    for stage in ("gather", "circle_check", "clip", "summary"):
        out[f"runtime.{stage}_s"] = stage_per_round(spans, "runtime", stage)
    for key, value in (context.get("communication") or {}).items():
        out[f"runtime.{key}"] = value

    out["network.apply_moves_s"] = spans.mean_dur("network.apply_moves")
    out["network.build_s"] = spans.mean_dur("network.build")

    for call in ("create", "step", "result", "delete"):
        out[f"service.{call}_s"] = spans.mean_dur(f"service.{call}")
    manager_steps = spans.probe("service.step")
    if manager_steps:
        waits = [
            spans.self_time(r, ("service.ensure_live", "service.evict"))
            for r in manager_steps
        ]
        compute = sum(r["dur"] for r in steps)
        out["service.step_wait_s"] = (sum(waits) - compute) / len(manager_steps)
        client = context.get("service_client") or {}
        if client.get("step_mean_s") is not None:
            out["service.http_overhead_ms"] = 1e3 * (
                client["step_mean_s"] - out["service.step_s"]
            )
        for key in ("live_hit_ratio", "evictions", "resurrections"):
            out[f"service.{key}"] = client.get(key)

    cells = spans.named("sweep_cell")
    sweeps = spans.named("sweep")
    if cells and sweeps:
        durations = [r["dur"] for r in cells]
        out["scenarios.cell_s_p50"] = statistics.median(durations)
        out["scenarios.cell_s_max"] = max(durations)
        out["scenarios.pool_efficiency"] = sum(durations) / (
            context["jobs"] * sum(r["dur"] for r in sweeps)
        )
        stragglers = []
        for sweep in sweeps:
            last_end: Dict[int, float] = {}
            for cell in spans.descendants(sweep):
                if cell["name"] == "sweep_cell":
                    end = cell["ts"] + cell["dur"]
                    last_end[cell["pid"]] = max(last_end.get(cell["pid"], end), end)
            if last_end:
                stragglers.append(max(last_end.values()) - min(last_end.values()))
        out["scenarios.straggler_s"] = sum(stragglers) / len(stragglers)
        out["scenarios.store_s"] = (
            sum(r["dur"] for r in spans.probe("scenarios.store")) / len(sweeps)
        )

    out["obs.trace_overhead_frac"] = context.get("trace_overhead_frac")
    return out


def check(ledger: Any, values: Dict[str, Optional[float]], workload: str) -> None:
    """Fail a check for every probe target the program lacks and for every
    metric the workload exercises that came back without a value."""
    with Probe() as probe:
        missing = list(probe.missing)
    for target in missing:
        ledger.check(False, f"{workload}: probe target {target} not found")
    for name in EXERCISED[workload]:
        ledger.check(values.get(name) is not None, f"{workload}: no value for {name}")


def report(outcome: Any, collector: Any, values: Dict[str, Optional[float]],
           workload: str, seed: int, environment: Dict[str, Any]) -> None:
    """Check the values, write the Chrome trace and the per-layer JSON and
    fill ``outcome``.

    A metric the run has no data for is ``absent`` in the JSON and
    reads 0 on the result line, which must carry every declared metric;
    if the workload exercises that metric, a check fails too.
    """
    from harness import catalog, out_path
    from repro.obs.trace import validate_chrome_trace

    check(outcome.ledger, values, workload)

    base = f"{workload}-s{seed}"
    trace_path = out_path(f"{base}.trace.json")
    collector.write(str(trace_path))
    validate_chrome_trace(json.loads(trace_path.read_text()))
    declared = catalog()
    layers: Dict[str, Dict[str, Any]] = defaultdict(dict)
    for name, info in LAYER_METRICS.items():
        value = values.get(name)
        layers[info["layer"]][name] = {
            "value": value,
            "absent": value is None,
            "unit": declared[name]["unit"],
            "better": declared[name]["better"],
            "definition": info["definition"],
            "moves": info["moves"],
        }
    layer_path = out_path(f"{base}.layers.json")
    layer_path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "environment": environment, "layers": layers},
        indent=1,
    ) + "\n")
    outcome.metrics = {k: (0.0 if v is None else v) for k, v in values.items()}
    outcome.details = {
        "chrome_trace": str(trace_path),
        "layers": str(layer_path),
        "absent": sorted(k for k, v in values.items() if v is None),
    }
