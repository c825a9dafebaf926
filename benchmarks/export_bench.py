"""Perf-trajectory exporter and its one regression gate.

``--suite {pr4,sparse,service,pr9} --out PATH`` measures a workload
suite and writes it as a JSON baseline.  The committed
``benchmarks/BENCH_PR4/6/7/8/9.json`` files are the recorded
trajectory; recording never writes to a default path.

Every gate reads the baseline and a fresh measurement as flat
``{row label: value}`` dicts (:func:`flatten`) and judges each recorded
row by the first entry of :data:`ROW_RULES` its label matches:

* seconds: ``now <= baseline * scale * factor``;
* ``*speedup*``: ``now >= baseline / 2``;
* scaling exponent: ``now < 2`` (sub-quadratic);
* session creates/s: ``now >= baseline / (scale * factor)``;
* evicted session bytes ``<=`` live session bytes;
* the eviction-equivalence bit holds;
* skipped rows print why (a removed backend, untimed housekeeping, a
  kernel tier this machine cannot build); reported rows have no bound.

``scale`` is the ratio of a fixed scalar-geometry calibration workload
on the checking machine vs the recording one, so a uniformly slower
runner does not trip a gate while an engine regression still does.  One
line is printed per recorded row, and a recorded row the fresh
measurement lacks fails.  Three entry points share the gate:

* ``--check BASELINE [--factor 2.0]`` re-measures the suite the
  baseline's ``label`` names;
* ``--check-overhead PR9_BASELINE [--overhead-factor 1.02]`` replays the
  numpy/threads=1 N=2000 cells with tracing off, on the process CPU
  clock, with a one-sided scale (a faster machine keeps the absolute
  budget) and up to five best-of retries;
* ``--compare-tiers JIT.json NUMPY.json [--tier-factor 1.1]`` gates the
  kernel-bound round rows of two PR7-format recordings, jit first and
  numpy second: ``jit <= numpy * scale * factor``.

``--profile [--threads 1,2,4] [--profile-out PATH]`` prints one sparse
round's per-stage seconds per size, summed from its stage trace spans.

Usage::

    PYTHONPATH=src python benchmarks/export_bench.py --check benchmarks/BENCH_PR7.json
    PYTHONPATH=src python benchmarks/export_bench.py --check-overhead benchmarks/BENCH_PR9.json
    PYTHONPATH=src python benchmarks/export_bench.py --compare-tiers jit.json benchmarks/BENCH_PR7.json
    PYTHONPATH=src python benchmarks/export_bench.py --suite sparse --out BENCH_PR7_new.json
    PYTHONPATH=src python benchmarks/export_bench.py --profile --threads 1,2 --profile-out profile.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

#: Sizes of the tier × threads matrix (PR9 suite).  50k is left to the
#: PR7 baseline — the matrix re-measures every cell, and the point here
#: is tier/thread deltas, which 10k already resolves.
PR9_SIZES = (2000, 10000)
#: Allowed jit-over-numpy ratio in ``--compare-tiers`` (after machine
#: calibration): the jit tier must never be meaningfully slower than
#: the numpy reference on a kernel-bound stage.
TIER_COMPARE_FACTOR = 1.1
#: The kernel-bound rows ``--compare-tiers`` gates.
TIER_ROWS = ("sparse_centralized_round_seconds", "sparse_distributed_round_seconds")
#: Allowed telemetry-disabled slowdown vs the committed PR9 baseline:
#: the hooks' disabled path is one module-global check, so 2% covers it
#: with margin on a quiet machine.  CI passes a looser ``--overhead-
#: factor`` to absorb shared-runner noise.
OVERHEAD_FACTOR = 1.02
#: Best-of re-measurements ``--check-overhead`` may take.
OVERHEAD_RETRIES = 5

ROUND_SIZES = (50, 200, 500)
#: Distributed backends the PR4 suite measures.
DISTRIBUTED_ENGINES = ("legacy", "sparse")
#: Removed distributed backends whose recorded PR4 rows are replayed
#: against their successor's measurement (same workload, same bound).
DISTRIBUTED_SUCCESSORS = {"batched": "sparse"}

#: Sparse-tier sizes: density-scaled gamma keeps the expected ring
#: population constant, so round cost tracks the candidate-pair volume
#: rather than N².  50k is far beyond the dense engines' memory wall.
SPARSE_SIZES = (2000, 10000, 50000)
#: Largest size the reference comparison rows run at (the dense and
#: per-agent references beyond this are pointlessly slow on a CI runner).
SPARSE_COMPARE_SIZE = 2000

#: The canonical N=200 k=2 corner-cluster distributed transient — the
#: round-level backend's acceptance workload.  Single source of truth,
#: shared with ``test_bench_microbenchmarks.test_distributed_deployment
#: _n200_k2`` so the committed baseline and the tracked pytest
#: benchmark can never drift onto different workloads.
TRANSIENT_WORKLOAD = dict(
    node_count=200,
    comm_range=0.25,
    placement_seed=11,
    k=2,
    alpha=1.0,
    epsilon=1e-3,
    max_rounds=6,
    seed=11,
)


def build_transient_deployment(engine_name: str) -> Callable[[], object]:
    """Zero-arg callable running the canonical distributed transient."""
    from repro.api import Simulation
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square

    region = unit_square()
    params = TRANSIENT_WORKLOAD

    def deploy():
        network = SensorNetwork.from_corner_cluster(
            region,
            params["node_count"],
            comm_range=params["comm_range"],
            rng=np.random.default_rng(params["placement_seed"]),
        )
        config = LaacadConfig(
            k=params["k"],
            alpha=params["alpha"],
            epsilon=params["epsilon"],
            max_rounds=params["max_rounds"],
            seed=params["seed"],
            engine=engine_name,
        )
        return Simulation(network=network, config=config, kind="distributed").run()

    return deploy


#: Clock behind ``_best_of``.  ``--check-overhead`` swaps in
#: ``time.process_time`` for its single-threaded cells: CPU time is
#: immune to scheduler preemption (the dominant noise on shared
#: runners) yet counts every cycle a hot-path hook would add.
_CLOCK = time.perf_counter


def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = _CLOCK()
        fn()
        best = min(best, _CLOCK() - start)
    return best


def _uniform_network(n: int, seed: int = 7):
    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square

    region = unit_square()
    return SensorNetwork(
        region, region.random_points(n, rng=np.random.default_rng(seed)), comm_range=0.25
    )


def _round(kind: str, engine_name: str, network) -> Callable[[], object]:
    """Zero-arg callable running one k=2 round of ``engine_name``.

    ``kind`` is ``"centralized"`` (region computation) or
    ``"distributed"`` (one protocol round: gather + regions).
    """
    from repro.core.config import LaacadConfig
    from repro.engine import make_engine
    from repro.runtime.engines import make_distributed_engine
    from repro.runtime.scheduler import SynchronousScheduler

    config = LaacadConfig(k=2, engine=engine_name)
    if kind == "centralized":
        return make_engine(engine_name, network, config).compute_round
    scheduler = SynchronousScheduler()
    engine = make_distributed_engine(engine_name, network, config, scheduler)
    scheduler.begin_round()
    return lambda: engine.run_round(0)


def measure_centralized_rounds() -> Dict[str, float]:
    """One batched-engine round of region computation per network size."""
    return {
        str(n): _best_of(_round("centralized", "batched", _uniform_network(n)))
        for n in ROUND_SIZES
    }


def measure_distributed_rounds() -> Dict[str, Dict[str, float]]:
    """One protocol round (gather + regions) per backend per size."""
    return {
        engine_name: {
            str(n): _best_of(_round("distributed", engine_name, _uniform_network(n)))
            for n in ROUND_SIZES
        }
        for engine_name in DISTRIBUTED_ENGINES
    }


def measure_distributed_deployment() -> Dict[str, float]:
    """The N=200 k=2 corner-cluster distributed transient (6 rounds)."""
    return {
        engine_name: _best_of(build_transient_deployment(engine_name), repeats=2)
        for engine_name in DISTRIBUTED_ENGINES
    }


def measure_calibration() -> float:
    """Machine-speed yardstick: a fixed scalar-geometry workload.

    The regression check normalises the absolute baseline times by the
    ratio of this measurement (check machine vs baseline machine), so a
    uniformly slower runner does not trip the gate while a genuine
    round-engine regression — which leaves this scalar workload
    untouched — still does.
    """
    from repro.regions.shapes import unit_square
    from repro.voronoi.dominating import compute_dominating_region

    region = unit_square()
    sites = region.random_points(200, rng=np.random.default_rng(2))

    def workload():
        for site in sites[:60]:
            others = [p for p in sites if p is not site]
            compute_dominating_region(site, others, region, 2)

    return _best_of(workload, repeats=5)


def measure_sweep() -> float:
    """Serial 2x2 scenario sweep, cold content-addressed cache."""
    from repro.scenarios import SweepRunner, expand_grid, make_scenario

    base = make_scenario("open_field", node_count=20, max_rounds=10)
    specs = expand_grid(base, {"k": [1, 2], "node_count": [15, 25]})
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(cache_dir=Path(cache_dir), jobs=1)
        start = time.perf_counter()
        runner.run(specs)
        return time.perf_counter() - start


def collect(include_sweep: bool = True) -> Dict[str, object]:
    distributed_rounds = measure_distributed_rounds()
    deployment = measure_distributed_deployment()
    payload: Dict[str, object] = {
        "bench_format_version": 1,
        "label": "PR4",
        "calibration_seconds": measure_calibration(),
        "workloads": {
            "centralized_round_seconds": measure_centralized_rounds(),
            "distributed_round_seconds": distributed_rounds,
            "distributed_deployment_n200_seconds": deployment,
            "distributed_speedup_n200": deployment["legacy"] / deployment["sparse"],
        },
    }
    if include_sweep:
        payload["workloads"]["sweep_2x2_seconds"] = measure_sweep()
    return payload


def _density_scaled_network(n: int, seed: int = 7):
    """Uniform deployment whose gamma shrinks with sqrt(1/N).

    ``gamma = sqrt(12 * area / (pi * N))`` keeps ~12 expected nodes per
    transmission disk at every size, the constant-density regime the
    sparse tier targets.
    """
    import math

    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square

    region = unit_square()
    gamma = math.sqrt(12.0 * 1.0 / (math.pi * n))
    return SensorNetwork(
        region,
        region.random_points(n, rng=np.random.default_rng(seed)),
        comm_range=gamma,
    )


def _sparse_repeats(n: int) -> int:
    # Single-shot readings are noise-prone enough (background load
    # spikes) to distort the recorded baseline, so every size takes the
    # best of several runs; small sizes are cheap enough for three.
    return 2 if n >= 50000 else 3


def _sparse_rounds(kind: str, sizes) -> Dict[str, float]:
    return {
        str(n): _best_of(
            _round(kind, "sparse", _density_scaled_network(n)),
            repeats=_sparse_repeats(n),
        )
        for n in sizes
    }


def measure_sparse_centralized_rounds(sizes=SPARSE_SIZES) -> Dict[str, float]:
    """One sparse-engine centralized round per density-scaled size."""
    return _sparse_rounds("centralized", sizes)


def measure_sparse_distributed_rounds(sizes=SPARSE_SIZES) -> Dict[str, float]:
    """One sparse-backend distributed protocol round per size."""
    return _sparse_rounds("distributed", sizes)


def measure_reference_rounds() -> Dict[str, float]:
    """The reference points for the speedup rows (N=2000 only).

    Centralized: the dense ``batched`` engine.  Distributed: the
    ``legacy`` agents, the protocol's oracle.
    """
    return {
        kind: _best_of(
            _round(kind, engine_name, _density_scaled_network(SPARSE_COMPARE_SIZE)),
            repeats=2,
        )
        for kind, engine_name in (("centralized", "batched"), ("distributed", "legacy"))
    }


def collect_sparse() -> Dict[str, object]:
    import math

    centralized = measure_sparse_centralized_rounds()
    distributed = measure_sparse_distributed_rounds()
    reference = measure_reference_rounds()
    n_hi, n_lo = str(SPARSE_SIZES[-1]), str(SPARSE_SIZES[-2])
    exponent = math.log(distributed[n_hi] / distributed[n_lo]) / math.log(
        SPARSE_SIZES[-1] / SPARSE_SIZES[-2]
    )
    from repro.engine.jit_kernels import kernel_tier

    compare = str(SPARSE_COMPARE_SIZE)
    return {
        "bench_format_version": 1,
        "label": "PR7",
        "kernel_tier": kernel_tier(),
        "calibration_seconds": measure_calibration(),
        "workloads": {
            "sparse_centralized_round_seconds": centralized,
            "sparse_distributed_round_seconds": distributed,
            "batched_round_n2000_seconds": {
                "centralized": reference["centralized"]
            },
            "legacy_distributed_round_n2000_seconds": reference["distributed"],
            "sparse_speedup_n2000_centralized": reference["centralized"]
            / centralized[compare],
            "sparse_speedup_n2000_distributed": reference["distributed"]
            / distributed[compare],
            "sparse_distributed_scaling_exponent": exponent,
        },
    }


@contextmanager
def _kernel_env() -> Iterator[Callable[..., None]]:
    """Yield ``set(tier=, threads=)`` for the kernel knobs; restore both on exit.

    ``REPRO_KERNELS`` and ``REPRO_KERNEL_THREADS`` pick the tier and the
    worker count of every sparse round measured inside the block.
    """
    from repro.engine.jit_kernels import KERNELS_ENV
    from repro.engine.kernels import KERNEL_THREADS_ENV

    saved = {key: os.environ.get(key) for key in (KERNELS_ENV, KERNEL_THREADS_ENV)}

    def set_env(tier: Optional[str] = None, threads: object = None) -> None:
        if tier is not None:
            os.environ[KERNELS_ENV] = tier
        if threads is not None:
            os.environ[KERNEL_THREADS_ENV] = str(threads)

    try:
        yield set_env
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _stage_items(stages: Dict[str, float]):
    """Stage → seconds pairs, hottest first."""
    return sorted(stages.items(), key=lambda kv: -kv[1])


def _profiled_round(kind: str, n: int) -> Tuple[float, Dict[str, float]]:
    """One sparse round; returns ``(total_seconds, {stage: seconds})``.

    The round runs under a private trace collector, and a stage's
    seconds are the summed durations of its same-named spans — the
    round's top-level spans, since nothing encloses the round here.
    """
    from repro.obs import trace

    run = _round(kind, "sparse", _density_scaled_network(n))
    with trace.collecting() as collector:
        start = time.perf_counter()
        run()
        total = time.perf_counter() - start
    stages: Dict[str, float] = {}
    for row in collector.rows():
        if row["parent"] == 0:
            stages[row["name"]] = stages.get(row["name"], 0.0) + row["dur"]
    return total, stages


def profile_sparse(sizes=SPARSE_SIZES, thread_counts=None, out=None) -> int:
    """Per-stage breakdown of one sparse round per size (``--profile``).

    Prints the stage-name → seconds breakdown of one traced round, for
    both the centralized and the distributed path.  With
    ``thread_counts`` (the ``--threads`` sweep) every round runs once
    per worker count and each stage additionally reports its parallel
    efficiency ``t_1 / (t_n * n)`` against the serial measurement.
    With ``out`` (``--profile-out``) the same measurements are also
    written as machine-readable JSON — one row per (kind, size, threads)
    with the total, the stage dict and the kernel tier and worker count
    it ran under — so two profile runs can be diffed by a script.
    """
    from repro.engine.jit_kernels import kernel_tier
    from repro.engine.kernels import kernel_threads

    print(f"kernel tier: {kernel_tier()}")
    counts = list(thread_counts) if thread_counts else [None]
    rows = []
    with _kernel_env() as set_env:
        for n in sizes:
            for kind in ("centralized", "distributed"):
                serial_stages: Dict[str, float] = {}
                for threads in counts:
                    set_env(threads=threads)
                    total, stages = _profiled_round(kind, n)
                    rows.append(
                        {
                            "kind": kind,
                            "n": n,
                            "threads": threads,
                            "total_seconds": total,
                            "stages": dict(_stage_items(stages)),
                            "meta": {"threads": kernel_threads(), "tier": kernel_tier()},
                        }
                    )
                    tag = "" if threads is None else f" threads={threads}"
                    print(f"{kind} n={n}{tag}: {total:.3f}s  "
                          + "  ".join(f"{name}={secs:.3f}"
                                      for name, secs in _stage_items(stages)))
                    if threads == counts[0] and threads is not None:
                        serial_stages = stages
                    elif threads is not None and serial_stages:
                        effs = "  ".join(
                            f"{name}={serial_stages[name] / (secs * threads):.2f}"
                            for name, secs in _stage_items(stages)
                            if name in serial_stages and secs > 0.0
                        )
                        print(f"{kind} n={n} threads={threads} efficiency: {effs}")
    if out is not None:
        payload = {
            "profile_format_version": 1,
            "kernel_tier": kernel_tier(),
            "rows": rows,
        }
        Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


def _available_tiers():
    from repro.engine.jit_kernels import numba_available

    return ("numpy", "jit") if numba_available() else ("numpy",)


def _pr9_matrix_cell(sizes) -> Dict[str, Dict[str, float]]:
    """Round seconds for one (tier, threads) cell of the PR9 matrix.

    The tier and worker count are taken from the environment — the
    caller owns ``REPRO_KERNELS`` / ``REPRO_KERNEL_THREADS`` so the
    same cell code serves recording and checking.
    """
    return {
        "sparse_centralized_round_seconds": measure_sparse_centralized_rounds(sizes),
        "sparse_distributed_round_seconds": measure_sparse_distributed_rounds(sizes),
    }


def collect_pr9() -> Dict[str, object]:
    """The tier × threads matrix plus the thread-scaling sweep."""
    from repro.engine.jit_kernels import numba_available
    from repro.engine.kernels import _available_cores

    cores = _available_cores()
    thread_counts = sorted({1, cores})
    tiers: Dict[str, object] = {}
    with _kernel_env() as set_env:
        for tier in _available_tiers():
            per_thread: Dict[str, object] = {}
            for threads in thread_counts:
                set_env(tier=tier, threads=threads)
                per_thread[str(threads)] = _pr9_matrix_cell(PR9_SIZES)
            tiers[tier] = {"threads": per_thread}

        # Thread-scaling sweep on the best available tier: distributed
        # N=10k round at 1, 2, 4, ... cores; saturation is the largest
        # count still buying >= 10% over the previous one.
        sweep_tier = "jit" if numba_available() else "numpy"
        sweep_counts = [1]
        while sweep_counts[-1] * 2 <= cores:
            sweep_counts.append(sweep_counts[-1] * 2)
        if sweep_counts[-1] != cores:
            sweep_counts.append(cores)
        n_probe = PR9_SIZES[-1]
        seconds: Dict[str, float] = {}
        for threads in sweep_counts:
            set_env(tier=sweep_tier, threads=threads)
            seconds[str(threads)] = measure_sparse_distributed_rounds(
                (n_probe,)
            )[str(n_probe)]
    saturation = sweep_counts[0]
    for prev, cur in zip(sweep_counts, sweep_counts[1:]):
        if seconds[str(cur)] < seconds[str(prev)] * 0.9:
            saturation = cur
        else:
            break
    serial = seconds[str(sweep_counts[0])]
    return {
        "bench_format_version": 1,
        "label": "PR9",
        "available_cores": cores,
        "numba_available": numba_available(),
        "calibration_seconds": measure_calibration(),
        "tiers": tiers,
        "thread_scaling": {
            "tier": sweep_tier,
            "workload": f"sparse_distributed_round_n{n_probe}",
            "seconds": seconds,
            "efficiency": {
                key: serial / (value * int(key)) for key, value in seconds.items()
            },
            "saturation_threads": saturation,
        },
    }


def measure_pr9_matrix(baseline: Dict) -> Dict[str, object]:
    """Re-measure every (tier, threads) cell a PR9 baseline recorded.

    Tiers this machine cannot build (jit without numba) are left out;
    their rows are skipped by :data:`ROW_RULES`.
    """
    from repro.engine.jit_kernels import numba_available

    tiers: Dict[str, object] = {}
    calibration = measure_calibration()
    with _kernel_env() as set_env:
        for tier, tier_data in baseline["tiers"].items():
            if tier == "jit" and not numba_available():
                continue
            cells = {}
            for threads, cell in tier_data["threads"].items():
                set_env(tier=tier, threads=threads)
                sizes = tuple(int(n) for n in cell["sparse_distributed_round_seconds"])
                cells[threads] = _pr9_matrix_cell(sizes)
            tiers[tier] = {"threads": cells}
    return {"calibration_seconds": calibration, "tiers": tiers}


#: Concurrent sessions hosted during the service load test.  The live
#: cap keeps ~94% of them evicted at any moment, so the measured step
#: latency includes resurrection — the honest steady-state cost of a
#: multi-tenant deployment over budget.
SERVICE_SESSION_COUNT = 1000
SERVICE_MAX_LIVE = 64
#: In-flight client requests during the step-latency sweep.  Latency is
#: measured per call under this contention, not under a 1000-deep queue
#: whose p99 would just re-measure queue depth.
SERVICE_STEP_CONCURRENCY = 16
SERVICE_SCENARIO = dict(node_count=8, k=1, max_rounds=8, epsilon=2e-3)
#: Sessions sampled for the idle-memory comparison.
SERVICE_MEMORY_SAMPLE = 32


def measure_service_load() -> Dict[str, object]:
    """Creates/sec and step-latency percentiles at 1000 sessions."""
    import asyncio

    from repro.service import SessionManager

    async def main() -> Dict[str, object]:
        manager = SessionManager(
            max_live_sessions=SERVICE_MAX_LIVE, max_workers=SERVICE_STEP_CONCURRENCY
        )
        names = [f"bench-{i}" for i in range(SERVICE_SESSION_COUNT)]
        start = time.perf_counter()
        await asyncio.gather(
            *(
                manager.create(name, **dict(SERVICE_SCENARIO, seed=i))
                for i, name in enumerate(names)
            )
        )
        create_elapsed = time.perf_counter() - start

        gate = asyncio.Semaphore(SERVICE_STEP_CONCURRENCY)
        latencies: list = []

        async def step_once(name: str) -> None:
            async with gate:
                begin = time.perf_counter()
                await manager.step(name, include_events=False)
                latencies.append(time.perf_counter() - begin)

        await asyncio.gather(*(step_once(name) for name in names))
        stats = manager.stats()
        await manager.close()
        samples = np.asarray(latencies)
        return {
            "concurrent_sessions": SERVICE_SESSION_COUNT,
            "session_creates_per_second": SERVICE_SESSION_COUNT / create_elapsed,
            "step_latency_seconds": {
                "p50": float(np.percentile(samples, 50)),
                "p99": float(np.percentile(samples, 99)),
                "mean": float(samples.mean()),
            },
            "total_evictions": stats["total_evictions"],
            "total_resurrections": stats["total_resurrections"],
        }

    return asyncio.run(main())


def measure_service_idle_memory() -> Dict[str, float]:
    """Idle-session footprint: live Simulation vs evicted checkpoint blob.

    Live bytes are tracemalloc-measured over a sample of constructed
    (and briefly stepped) simulations; evicted bytes are the serialized
    checkpoint's length — exactly what the manager keeps resident for
    an evicted session.
    """
    import gc
    import tracemalloc

    from repro.api import Simulation

    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sims = [
        Simulation(**dict(SERVICE_SCENARIO, seed=i))
        for i in range(SERVICE_MEMORY_SAMPLE)
    ]
    for sim in sims:
        sim.step()
        sim.step()
    gc.collect()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    live_bytes = (after - before) / len(sims)
    evicted_bytes = sum(sim.checkpoint().nbytes for sim in sims) / len(sims)
    return {
        "live_session_idle_bytes": live_bytes,
        "evicted_session_idle_bytes": evicted_bytes,
        "eviction_memory_ratio": evicted_bytes / live_bytes,
    }


def measure_service_equivalence() -> bool:
    """Evict-every-round through the manager == direct in-process run."""
    import asyncio

    from repro.api import Simulation
    from repro.service import SessionManager

    scenario = dict(SERVICE_SCENARIO, seed=17, max_rounds=12)

    async def serviced() -> Dict:
        manager = SessionManager()
        await manager.create("equiv", **scenario)
        while not manager.info("equiv")["done"]:
            await manager.step("equiv", include_events=False)
            await manager.evict("equiv")
        result = await manager.result("equiv")
        await manager.close()
        return result

    return asyncio.run(serviced()) == Simulation(**scenario).run().to_dict()


def collect_service() -> Dict[str, object]:
    workloads: Dict[str, object] = {}
    workloads.update(measure_service_load())
    workloads.update(measure_service_idle_memory())
    workloads["eviction_equivalence"] = measure_service_equivalence()
    return {
        "bench_format_version": 1,
        "label": "PR8",
        "calibration_seconds": measure_calibration(),
        "workloads": workloads,
    }


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
def _rows(tree: Dict, prefix: str = "") -> Iterator[Tuple[str, object]]:
    for key, value in tree.items():
        label = f"{prefix}[{key}]" if prefix else key
        if isinstance(value, dict):
            yield from _rows(value, label)
        else:
            yield label, value


def flatten(payload: Dict) -> Dict[str, object]:
    """A recorded or fresh measurement as ``{row label: value}``.

    Nested workload dicts join as ``key[sub]``; the rows of a PR9
    matrix cell are prefixed ``tier/threads=N``.
    """
    if "tiers" in payload:
        return {
            f"{tier}/threads={threads} {label}": value
            for tier, tier_data in payload["tiers"].items()
            for threads, cell in tier_data["threads"].items()
            for label, value in _rows(cell)
        }
    return dict(_rows(payload["workloads"]))


def _fmt(value: object) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


# Row rules: ``rule(base, now, scale, factor, current) -> (ok, bound)``.
def _seconds(base, now, scale, factor, current):
    return now <= base * scale * factor, f"<= {base * scale * factor:.4g}"


def _speedup(base, now, scale, factor, current):
    return now >= base / 2.0, f">= {base / 2.0:.4g}"


def _subquadratic(base, now, scale, factor, current):
    return now < 2.0, "< 2"


def _rate(base, now, scale, factor, current):
    return now >= base / (scale * factor), f">= {base / (scale * factor):.4g}"


def _below_live(base, now, scale, factor, current):
    live = current["live_session_idle_bytes"]
    return now <= live, f"<= live {live:.4g}"


def _holds(base, now, scale, factor, current):
    return bool(now), "must hold"


def _reported(base, now, scale, factor, current):
    return True, "not gated"


#: Row label pattern → rule, first full match wins.  A string rule is
#: the reason the row is not replayed (printed, never failed).
ROW_RULES = (
    (r"batched_round_n2000_seconds\[distributed\]",
     "retired: the dense distributed backend was removed; the distributed "
     "speedup row now takes legacy as its reference"),
    (r"sweep_2x2_seconds",
     "not replayed: its wall-clock is process and cache housekeeping"),
    (r"concurrent_sessions|total_\w+|eviction_memory_ratio"
     r"|live_session_idle_bytes|step_latency_seconds\[mean\]", _reported),
    (r".*speedup.*", _speedup),
    (r".*scaling_exponent", _subquadratic),
    (r"session_creates_per_second", _rate),
    (r"evicted_session_idle_bytes", _below_live),
    (r"eviction_equivalence", _holds),
    (r".*seconds.*", _seconds),
)


def _rule(label: str):
    from repro.engine.jit_kernels import numba_available

    if label.startswith("jit/") and not numba_available():
        return "skipped: numba is not importable here; the numba CI leg checks it"
    for pattern, rule in ROW_RULES:
        if re.fullmatch(pattern, label):
            return rule
    raise ValueError(f"no gate rule for recorded row {label!r}")


def _measured_row(label: str) -> Tuple[str, str]:
    """(fresh row a recorded row replays against, printed label)."""
    if label.startswith("distributed_"):
        for old, new in DISTRIBUTED_SUCCESSORS.items():
            if f"[{old}]" in label:
                return (label.replace(f"[{old}]", f"[{new}]"),
                        label.replace(f"[{old}]", f"[{old}->{new}]"))
    return label, label


def _judge(baseline: Dict, current: Dict, scale: float, factor: float):
    """``(printed label, ok, detail)`` for every recorded row."""
    for label, base in baseline.items():
        rule = _rule(label)
        measured, shown = _measured_row(label)
        if isinstance(rule, str):
            yield shown, True, f"baseline {_fmt(base)}  {rule}"
        elif measured not in current:
            yield shown, False, "MISSING from the fresh measurement"
        else:
            now = current[measured]
            ok, bound = rule(base, now, scale, factor, current)
            status = "ok" if ok else "REGRESSION"
            yield shown, ok, f"baseline {_fmt(base)} now {_fmt(now)} ({bound})  {status}"


def gate(
    baseline: Dict,
    current: Dict,
    scale: float,
    factor: float,
    remeasure: Optional[Callable[[], Dict]] = None,
    retries: int = 0,
) -> int:
    """Judge every recorded row, print one line each; returns an exit code.

    With ``remeasure``, up to ``retries`` fresh readings are taken while
    any row is over its bound, keeping each row's minimum — a converging
    best-of for seconds rows: noise only adds time, while a genuine
    regression raises the floor itself.
    """
    verdicts = list(_judge(baseline, current, scale, factor))
    for _ in range(retries):
        if all(ok for _, ok, _ in verdicts):
            break
        again = remeasure()
        current = {key: min(value, again.get(key, value)) for key, value in current.items()}
        verdicts = list(_judge(baseline, current, scale, factor))
    for shown, _, detail in verdicts:
        print(f"{shown:58s} {detail}")
    failures = [shown for shown, ok, _ in verdicts if not ok]
    if failures:
        print(f"\nFAILED: {len(failures)} row(s) out of bound: {', '.join(failures)}")
        return 1
    print(f"\nOK: all {len(verdicts)} recorded rows within their bounds")
    return 0


def _scale(current: Dict, baseline: Dict) -> float:
    scale = current["calibration_seconds"] / baseline["calibration_seconds"]
    print(f"machine-speed scale vs baseline: {scale:.2f}x "
          f"(calibration {current['calibration_seconds']:.3f}s "
          f"vs {baseline['calibration_seconds']:.3f}s)\n")
    return scale


#: ``--check``: baseline label → fresh measurement shaped like it.  The
#: lambdas here and in :data:`SUITES` look their collector up at call
#: time, so a test can substitute a stub for it.
CHECK_MEASUREMENTS = {
    "PR4": lambda baseline: collect(include_sweep=False),
    "PR6": lambda baseline: collect_sparse(),
    "PR7": lambda baseline: collect_sparse(),
    "PR8": lambda baseline: collect_service(),
    "PR9": lambda baseline: measure_pr9_matrix(baseline),
}


def check(baseline_path: Path, factor: float) -> int:
    """Re-measure the baseline's suite and gate it; returns an exit code."""
    baseline = json.loads(Path(baseline_path).read_text())
    current = CHECK_MEASUREMENTS[baseline["label"]](baseline)
    scale = _scale(current, baseline)
    return gate(flatten(baseline), flatten(current), scale, factor)


def check_overhead(baseline_payload: Dict, factor: float) -> int:
    """Telemetry-disabled overhead gate (``--check-overhead``).

    Replays the numpy/threads=1 N=2000 cells of a PR9-format baseline
    with tracing off — the default hot-path configuration.  With no
    active collector every span site costs one module-global check,
    which must be invisible at round granularity.
    """
    from repro.obs import trace

    if trace.tracing_active():
        raise RuntimeError("--check-overhead must run with tracing off")
    n = str(PR9_SIZES[0])

    def cell_rows(cell: Dict) -> Dict[str, object]:
        return flatten({"tiers": {"numpy": {"threads": {"1": cell}}}})

    recorded = baseline_payload["tiers"]["numpy"]["threads"]["1"]
    baseline = cell_rows({key: {n: per_size[n]} for key, per_size in recorded.items()})

    # The cells are single-threaded and CPU-bound, so measure them on
    # the process CPU clock: time stolen by other processes (the
    # dominant noise on shared runners) does not count, while an extra
    # hot-path check — pure CPU work — counts in full.  The baseline's
    # wall-clock seconds bound its CPU seconds, so the budget only gets
    # tighter.
    global _CLOCK
    saved_clock = _CLOCK
    _CLOCK = time.process_time
    try:
        # One-sided calibration: a slower machine gets a larger budget,
        # a faster one keeps the absolute recorded seconds — hook cost
        # cannot be negative, and the scalar calibration workload and
        # the numpy-bound rounds need not speed up by the same ratio.
        raw_scale = measure_calibration() / baseline_payload["calibration_seconds"]
        scale = max(1.0, raw_scale)
        print(f"machine-speed scale vs baseline: {raw_scale:.2f}x "
              f"(applied: {scale:.2f}x, one-sided)\n")
        with _kernel_env() as set_env:
            set_env(tier="numpy", threads=1)

            def measure() -> Dict[str, object]:
                return cell_rows(_pr9_matrix_cell((int(n),)))

            # Single readings wobble ±20% under background load while the
            # floor — what a hot-path check would raise — is stable, so
            # the gate converges on a best-of.
            return gate(baseline, measure(), scale, factor,
                        remeasure=measure, retries=OVERHEAD_RETRIES)
    finally:
        _CLOCK = saved_clock


def compare_tiers(jit_path: Path, numpy_path: Path, factor: float) -> int:
    """Gate the jit tier against the numpy tier (``--compare-tiers``).

    Both arguments are PR7-format baselines whose ``kernel_tier`` must
    read ``jit`` and ``numpy`` respectively.  Every kernel-bound round
    row of the numpy file must satisfy ``jit <= numpy * machine_scale *
    factor`` — a jit build slower than the numpy reference is a
    regression, not an optimisation.
    """
    jit, ref = (json.loads(Path(path).read_text()) for path in (jit_path, numpy_path))
    for path, payload, tier in ((jit_path, jit, "jit"), (numpy_path, ref, "numpy")):
        if payload.get("kernel_tier") != tier:
            print(f"FAILED: {path} was recorded on kernel tier "
                  f"{payload.get('kernel_tier')!r}, expected {tier!r}")
            return 1
    baseline = {
        label: value for label, value in flatten(ref).items()
        if label.startswith(TIER_ROWS)
    }
    return gate(baseline, flatten(jit), _scale(jit, ref), factor)


#: ``--suite`` name → collector of the baseline it records.
SUITES = {
    "pr4": lambda: collect(),
    "sparse": lambda: collect_sparse(),
    "service": lambda: collect_service(),
    "pr9": lambda: collect_pr9(),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the recorded suite (required to record)")
    parser.add_argument("--suite", choices=tuple(SUITES), default="pr4",
                        help="which workload suite to record (default pr4)")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare fresh measurements against a committed "
                             "baseline (the suite is picked from its label)")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown factor in --check mode (default 2.0)")
    parser.add_argument("--compare-tiers", type=Path, nargs=2, default=None,
                        metavar=("JIT_BASELINE", "NUMPY_BASELINE"),
                        help="gate a jit-tier PR7-format baseline against the "
                             "numpy-tier one (jit must not be slower than "
                             "numpy * machine_scale * --tier-factor)")
    parser.add_argument("--tier-factor", type=float, default=TIER_COMPARE_FACTOR,
                        help="allowed jit/numpy ratio in --compare-tiers "
                             f"(default {TIER_COMPARE_FACTOR})")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-stage wall-clock breakdown of one "
                             "sparse round per size, read from its stage spans")
    parser.add_argument("--threads", type=str, default=None, metavar="N,N,...",
                        help="with --profile: sweep REPRO_KERNEL_THREADS over "
                             "these counts and report per-stage scaling "
                             "efficiency (start the list at 1)")
    parser.add_argument("--profile-out", type=Path, default=None, metavar="PATH",
                        help="with --profile: also write the breakdown as "
                             "machine-readable JSON for profile diffing")
    parser.add_argument("--check-overhead", type=Path, default=None,
                        metavar="PR9_BASELINE",
                        help="gate the telemetry-disabled hot path: replay the "
                             "numpy/threads=1 N=2000 cells of a PR9-format "
                             "baseline with tracing off and fail on "
                             "any slowdown beyond --overhead-factor")
    parser.add_argument("--overhead-factor", type=float, default=OVERHEAD_FACTOR,
                        help="allowed telemetry-disabled slowdown in "
                             f"--check-overhead (default {OVERHEAD_FACTOR})")
    args = parser.parse_args(argv)

    if args.profile:
        thread_counts = (
            [int(part) for part in args.threads.split(",") if part.strip()]
            if args.threads
            else None
        )
        return profile_sparse(thread_counts=thread_counts, out=args.profile_out)
    if args.compare_tiers is not None:
        return compare_tiers(*args.compare_tiers, factor=args.tier_factor)
    if args.check_overhead is not None:
        return check_overhead(
            json.loads(args.check_overhead.read_text()), args.overhead_factor
        )
    if args.check is not None:
        return check(args.check, args.factor)
    if args.out is None:
        parser.error("recording a suite needs --out PATH; the committed "
                     "BENCH_*.json baselines are not overwritten by default")

    payload = SUITES[args.suite]()
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for label, value in flatten(payload).items():
        print(f"{label:58s} {_fmt(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
