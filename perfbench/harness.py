"""Shared plumbing for the benchmark workloads.

Everything a workload needs besides the program itself: the pinned
environment, fixed repeat counts, machine-speed calibration, steal
time, percentiles, peak memory, the reference outputs, the correctness
ledger and the result line.  Nothing here imports ``repro`` at module level, so ``run.py`` can pin the
environment before the program is first imported.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

#: The default seed.  ``references.json`` holds its outputs and those of
#: seed 1, which was kept out of every tuning run.
DEFAULT_SEED = 0

#: Inherited knobs that change how the program runs.  Every run drops
#: them, so a stray ``REPRO_ENGINE=legacy`` or ``REPRO_TRACE=1`` in the
#: caller's shell cannot change what is measured.
SCRUBBED_PREFIX = "REPRO_"

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The measurement budget (``run_seconds`` in ``BENCHMARK.json``) the
#: workloads' fixed repeat counts are chosen for.
BUDGET_S = 12

#: Relative tolerance for floating-point reference outputs.
REFERENCE_RTOL = 1e-9


def pin_environment() -> List[str]:
    """Drop every inherited ``REPRO_*`` variable; returns the names dropped."""
    dropped = sorted(key for key in os.environ if key.startswith(SCRUBBED_PREFIX))
    for key in dropped:
        del os.environ[key]
    return dropped


def program_available() -> bool:
    """Whether the checkout holds the program's source tree."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_source() -> None:
    """Import ``repro`` from the checkout, here and in every child process."""
    sys.path.insert(0, str(SRC))
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        str(SRC) if not existing else os.pathsep.join([str(SRC), existing])
    )


def environment_record(dropped: Sequence[str]) -> Dict[str, Any]:
    """What every result records about the machine and the program tiers."""
    import numpy

    from repro.engine.jit_kernels import kernel_tier, numba_available
    from repro.engine.kernels import kernel_threads

    return {
        "cores": cores(),
        "kernel_tier": kernel_tier(),
        "kernel_threads": kernel_threads(),
        "numba_available": numba_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scrubbed_env": list(dropped),
    }


def cores() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def repeats(per_budget: int, seconds: float) -> int:
    """How many times a run of ``seconds`` repeats a fixed unit of work.

    ``per_budget`` is the count for a run of ``BUDGET_S`` seconds.  The
    count follows the budget only, never the program's speed, so a
    faster program is measured over the same work as a slower one.
    """
    return max(1, round(per_budget * seconds / BUDGET_S))


def stolen_s() -> float:
    """Seconds the hypervisor has taken from an average CPU of this machine.

    The kernel counts this steal time (``/proc/stat``) apart from every
    process's own; a window's wall time minus the steal that fell in it
    is the time the machine was the program's.  0 where not counted.
    """
    try:
        with open("/proc/stat") as stat:
            steal = int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return steal / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds of the workload's set-up, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
#: Fastest time of one calibration sample, by thread count, on the
#: machine the bounds were set on (2 cores, numpy tier).  Timing metrics
#: are reported at that machine's speed.
CALIBRATION_REF_S = {1: 0.0016, 2: 0.0065}
_CAL_RNG = random.Random(20120618)
_CAL_PLANES = [
    (math.cos(a), math.sin(a), 0.3 + 0.4 * _CAL_RNG.random())
    for a in (_CAL_RNG.uniform(0.0, 2.0 * math.pi) for _ in range(24))
]


def _clip(polygon, nx, ny, offset):
    """Sutherland-Hodgman: keep the part of ``polygon`` with n.p <= offset."""
    out = []
    for i, (x1, y1) in enumerate(polygon):
        x0, y0 = polygon[i - 1]
        d0 = nx * x0 + ny * y0 - offset
        d1 = nx * x1 + ny * y1 - offset
        if d0 <= 0.0:
            out.append((x0, y0))
        if (d0 < 0.0) != (d1 < 0.0):
            t = d0 / (d0 - d1)
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return out


def _python_work(points) -> float:
    """Pure-Python polygon clipping plus a small numpy distance sort."""
    import numpy as np

    checksum = 0.0
    for shift in range(20):
        polygon = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        for nx, ny, offset in _CAL_PLANES:
            polygon = _clip(polygon, nx, ny, offset + 0.001 * shift)
        checksum += len(polygon)
    distances = np.hypot(points[:, None, 0] - points[None, :, 0],
                         points[:, None, 1] - points[None, :, 1])
    return checksum + float(np.sort(distances, axis=1)[:, 2].sum())


def _numpy_work(values) -> float:
    """Array sorts and arithmetic; numpy releases the GIL for these."""
    import numpy as np

    checksum = 0.0
    for _ in range(3):
        checksum += float(np.sort(values)[100]) + float(np.hypot(values, values[::-1]).sum())
    return checksum


class Calibration:
    """Times a fixed workload next to the measured work to gauge machine speed.

    The machine's speed comes and goes in bursts of a second or so and
    drifts over minutes; the calibration code never touches the program,
    so timing a unit of work relative to a calibration sample taken
    beside it cancels the machine's state but not a change to the
    program.  ``threads`` matches the work's parallelism: 1 runs
    pure-Python clipping on the calling thread, 2 or more run numpy
    array work on that many threads at once.
    """

    def __init__(self, threads: int = 1) -> None:
        import numpy as np

        self.threads = 1 if threads <= 1 else 2
        self.reference = CALIBRATION_REF_S[self.threads]
        self._points = np.random.default_rng(7).random((150, 2))
        self._arrays = [np.random.default_rng(i).random(60_000) for i in range(self.threads)]
        self._pool = None
        if self.threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.threads, thread_name_prefix="calibration")
        self.sample()  # warm-up

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def sample(self) -> float:
        began = time.perf_counter()
        if self._pool is None:
            _python_work(self._points)
        else:
            list(self._pool.map(_numpy_work, self._arrays))
        return time.perf_counter() - began

    def at_reference(self, seconds: float, calibration_s: float) -> float:
        """``seconds`` of work measured beside a ``calibration_s`` sample,
        as it would read on the reference machine."""
        return seconds * self.reference / calibration_s


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident memory of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Correctness ledger
# ----------------------------------------------------------------------
class Ledger:
    """Counts attempted and failed operations and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def operations(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check_close(self, actual: float, expected: float, what: str) -> bool:
        scale = max(abs(expected), 1e-300)
        return self.check(
            abs(actual - expected) <= REFERENCE_RTOL * scale,
            f"{what}: {actual!r} != reference {expected!r}",
        )

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_deployment(
    ledger: Ledger, payload: Dict[str, Any], region: Any, k: int, label: str
) -> None:
    """The paper's invariants on one deployment result payload.

    Every point of the area must lie in at least ``k`` sensing disks
    (checked on a 100 x 100 sample grid) and every node must lie inside
    the region.
    """
    from repro.analysis.coverage import coverage_fraction

    positions = [tuple(p) for p in payload["final_positions"]]
    ranges = payload["sensing_ranges"]
    fraction = coverage_fraction(positions, ranges, region, k, resolution=100)
    ledger.check(fraction >= 1.0, f"{label}: k-coverage fraction {fraction:.6f} < 1")
    outside = [p for p in positions if not region.contains(p)]
    ledger.check(not outside, f"{label}: {len(outside)} node(s) outside the region")


# ----------------------------------------------------------------------
# Reference outputs
# ----------------------------------------------------------------------
def load_references() -> Dict[str, Any]:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def reference_for(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """Recorded outputs for ``(workload, seed)``, or ``None`` if none."""
    return load_references().get(workload, {}).get(str(seed))


def record_reference(workload: str, seed: int, outputs: Dict[str, Any]) -> None:
    references = load_references()
    references.setdefault(workload, {})[str(seed)] = outputs
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def out_path(name: str) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT / name


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class Outcome:
    """What one workload run produced: metrics, checks, outputs, notes."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        #: ``{name: value}`` of the metrics the driver reads.
        self.metrics: Dict[str, float] = {}
        #: Workload facts printed beside the metrics under workload
        #: names (``deploy_s``, ``rounds``, ``msgs_per_node``, ...).
        self.details: Dict[str, Any] = {}
        #: Outputs comparable to ``references.json``.
        self.outputs: Dict[str, Any] = {}


def catalog() -> Dict[str, Dict[str, Any]]:
    """``BENCHMARK.json``'s metrics by name (the single declaration)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for group in ("end_to_end", "per_layer"):
        for entry in spec[group]:
            metrics[entry["name"]] = dict(entry, group=group)
    return metrics


def result_line(outcome: Outcome, traced: bool) -> Dict[str, Any]:
    """The driver's last line: every declared metric of the run's group."""
    declared = catalog()
    group = "per_layer" if traced else "end_to_end"
    names = [name for name, entry in declared.items() if entry["group"] == group]
    missing = [name for name in names if name not in outcome.metrics]
    extra = [name for name in outcome.metrics if name not in names]
    if missing or extra:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}"
        )
    ledger = outcome.ledger
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": declared[name]["unit"]}
            for name in names
        },
    }


def print_table(workload: str, outcome: Outcome, traced: bool) -> None:
    """Human-readable metric table (name, value, unit, better direction)."""
    declared = catalog()
    print(f"== {workload} ({'traced, per-layer' if traced else 'untraced, end-to-end'})")
    for name, value in outcome.metrics.items():
        entry = declared.get(name, {})
        print(
            f"  {name:<28} {value:>14.6g} {entry.get('unit', ''):<8} "
            f"{entry.get('better', '')}"
        )
    for name, value in outcome.details.items():
        print(f"  {name:<28} {value!r}")
    ledger = outcome.ledger
    print(
        f"  checks: {ledger.attempted - ledger.failed}/{ledger.attempted} passed, "
        f"fail_frac {ledger.fail_frac:.4f}"
    )
    for failure in ledger.failures:
        print(f"  FAILED: {failure}")
