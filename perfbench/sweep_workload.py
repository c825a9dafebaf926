"""``sweep-grid``: a cold-cache ``SweepRunner`` grid over a process pool.

The grid is the ``open_field`` default grid (N in {20, 60, 100} x k in
{1, 2, 3}) plus ``obstacle_field`` and ``l_hall_obstacles`` at k=2:
11 cells whose costs span about 30x, handed to the pool in an order the
seed shuffles.  One operation is one whole sweep with ``jobs`` = the
cores available and an empty cache directory.  A run makes a fixed
number of sweeps and reports the fastest, as contention only ever slows
a sweep down, less the steal time the hypervisor took while it ran
(``harness.stolen_s``).  Between the first sweep and the others, every
cell runs in-process with ``spec.run()``; each pooled cell must equal it.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from typing import Any, Dict, List, Tuple

import harness
from repro.scenarios.registry import get_family
from repro.scenarios.sweep import SweepRunner

#: Cold sweeps an untraced run of ``harness.BUDGET_S`` seconds makes.
SWEEPS = 2


def grid(seed: int) -> List[Any]:
    """The 11 cells at their family seeds, in the order ``seed`` shuffles them.

    The seed picks the order cells are handed to the pool, which sets how
    unevenly the workers finish.  Changing the cells' own seeds instead
    would change their round counts, and with them the grid's total
    cost by tens of percent, which is input variance rather than speed.
    """
    specs = (
        get_family("open_field").grid()
        + get_family("obstacle_field").grid(k=2)
        + get_family("l_hall_obstacles").grid(k=2)
    )
    random.Random(seed).shuffle(specs)
    return specs


class Sweeps:
    """Repeated cold-cache sweeps of one grid."""

    def __init__(self, specs: List[Any], jobs: int) -> None:
        self.specs = specs
        self.jobs = jobs
        self.walls: List[float] = []
        self.stolen: List[float] = []
        self.reports: List[Any] = []

    def sweep(self) -> None:
        cache = harness.out_path(f"sweep-cache-{len(self.walls)}")
        shutil.rmtree(cache, ignore_errors=True)
        try:
            stolen = harness.stolen_s()
            began = time.perf_counter()
            report = SweepRunner(cache_dir=cache, jobs=self.jobs).run(self.specs)
            self.walls.append(time.perf_counter() - began)
            self.stolen.append(harness.stolen_s() - stolen)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        self.reports.append(report)


def _label(spec: Any) -> str:
    return f"{spec.name} N={spec.node_count} k={spec.k}"


def serial_runs(specs: List[Any]) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Every cell run in-process with ``spec.run()``: results and seconds."""
    results, seconds = [], []
    for spec in specs:
        began = time.perf_counter()
        results.append(spec.run())
        seconds.append(time.perf_counter() - began)
    return results, seconds


def _check(ledger: harness.Ledger, seed: int, specs: List[Any], reports: List[Any],
           expected: List[Dict[str, Any]]) -> Dict[str, List[Any]]:
    """Every cell of every sweep equals the in-process run of its spec."""
    cells: Dict[str, List[Any]] = {}
    for reports_cells, spec, result in zip(zip(*(r.results for r in reports)), specs, expected):
        label = f"sweep-grid {_label(spec)}"
        ledger.check(all(cell == result for cell in reports_cells),
                     f"{label}: pooled result differs from spec.run()")
        harness.check_deployment(ledger, result, spec.build_region(), spec.k, label)
        cells[_label(spec)] = [result["rounds_executed"], max(result["sensing_ranges"])]
    for report in reports:
        ledger.check(report.misses == len(specs), "sweep-grid: a cold sweep hit the cache")
    reference = harness.reference_for("sweep-grid", seed)
    if reference is not None:
        for label, (rounds, max_range) in cells.items():
            want = reference["cells"].get(label)
            if ledger.check(want is not None, f"sweep-grid {label}: no reference"):
                ledger.check(rounds == want[0],
                             f"sweep-grid {label}: rounds {rounds} != reference {want[0]}")
                ledger.check_close(max_range, want[1], f"sweep-grid {label}: max_range")
    return cells


def run(name: str, seed: int, seconds: float, traced: bool,
        environment: Dict[str, Any]) -> harness.Outcome:
    ledger = harness.Ledger()
    outcome = harness.Outcome(ledger)
    specs = grid(seed)
    plain = Sweeps(specs, harness.cores())
    if traced:
        return _run_traced(seed, plain, ledger, outcome, environment)

    # The serial pass runs between the first sweep and the others, so the
    # sweeps a run takes its fastest from are spread over half a minute.
    setup_s = harness.measure_setup(name, seed)
    plain.sweep()
    expected, serial = serial_runs(specs)
    for _ in range(harness.repeats(SWEEPS, seconds) - 1):
        plain.sweep()
    ledger.operations(len(plain.walls) * len(specs))
    cells = _check(ledger, seed, specs, plain.reports, expected)
    outcome.outputs = {"cells": cells}
    job_s = min(wall - stolen for wall, stolen in zip(plain.walls, plain.stolen))
    outcome.metrics = {
        "setup_s": setup_s,
        "job_s": job_s,
        "throughput_per_s": len(specs) / job_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "max_range": statistics.mean(cell[1] for cell in cells.values()),
    }
    outcome.details = {
        "sweeps_s": plain.walls,
        "stolen_s": plain.stolen,
        "sweep_s": min(plain.walls),
        "jobs": plain.jobs,
        "cell_ms_p50": 1e3 * statistics.median(serial),
        "serial_cell_s_total": sum(serial),
    }
    return outcome


def _run_traced(seed, plain, ledger, outcome, environment):
    """One cold sweep untraced, then one traced."""
    from layer_probe import Probe, Spans, layer_metrics, report
    from repro.obs import trace as _trace

    plain.sweep()
    traced = Sweeps(plain.specs, plain.jobs)
    with Probe(), _trace.tracing() as collector:
        traced.sweep()
    reports = plain.reports + traced.reports
    ledger.operations(len(reports) * len(plain.specs))
    expected, _ = serial_runs(plain.specs)
    outcome.outputs = {"cells": _check(ledger, seed, plain.specs, reports, expected)}
    context = {
        "threads": environment["kernel_threads"],
        "jobs": plain.jobs,
        "trace_overhead_frac": min(traced.walls) / min(plain.walls) - 1.0,
    }
    values = layer_metrics(Spans(collector.rows()), context)
    report(outcome, collector, values, "sweep-grid", seed, environment)
    return outcome
