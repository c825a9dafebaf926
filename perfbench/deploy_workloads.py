"""Deployment-to-convergence workloads: ``fig5-dist`` and ``uniform-2k``.

One operation is one whole deployment: build the session, step it until
the stopping rule holds, finalize the result.  Each workload has one
fixed placement; a seed relabels its nodes in an order it draws, so the
input changes from seed to seed while its geometry, and with it the
rounds to convergence and the cost, stays the same.  A run deploys the
input a fixed number of times and reports its fastest deployment, read
at a reference machine speed (``harness.Calibration``).
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Any, Dict, List

import harness
from repro.api import Simulation
from repro.scenarios.registry import make_scenario
from repro.scenarios.spec import ScenarioSpec


def _fig5_dist() -> ScenarioSpec:
    return make_scenario(
        "corner_cluster",
        node_count=100,
        k=2,
        comm_range=0.25,
        pipeline="distributed",
        max_rounds=250,
    )


def _uniform_2k() -> ScenarioSpec:
    n = 2000
    return ScenarioSpec(
        name="uniform-2k",
        node_count=n,
        k=2,
        comm_range=math.sqrt(12.0 / (math.pi * n)),
        engine="sparse",
        seed=7,
    )


SPECS = {"fig5-dist": _fig5_dist, "uniform-2k": _uniform_2k}

#: Deployments in a run of ``harness.BUDGET_S`` seconds.  A fixed count,
#: so the figure does not depend on how fast the program is.
REPEATS = 2

#: Threads the calibration runs on: the sparse engine's kernels use every
#: core, the batched distributed round one.
CALIBRATION_THREADS = {"fig5-dist": 1, "uniform-2k": 2}


def relabelled(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """``spec`` with its placement's nodes in an order ``seed`` draws.

    Rounds to convergence range from 24 to 34 over uniform placements of
    2000 nodes, and a deployment's time with them.  New placements per
    seed would make the benchmark's spread over seeds measure the inputs
    rather than the code, so the seed changes the node order instead:
    the order every array, neighbour list and message loop walks.
    """
    positions = [list(p) for p in spec.build_network().positions()]
    random.Random(seed * 1_000_003 + spec.seed).shuffle(positions)
    return spec.replace(placement={"kind": "explicit", "positions": positions})


def spec_for(name: str, seed: int) -> ScenarioSpec:
    return relabelled(SPECS[name](), seed)


def build(name: str, seed: int) -> Simulation:
    """The workload's set-up: its network and engine, ready for round 1."""
    return Simulation.from_spec(spec_for(name, seed))


class Deployments:
    """Whole deployments of one input, each timed round by round.

    With a ``calibration``, each round and the final ``result()`` are
    also read at the reference machine's speed, against the faster of
    the calibration samples taken just before and just after them, and
    a deployment's reference time is the sum of those readings.
    """

    def __init__(self, spec: ScenarioSpec, calibration: Any = None) -> None:
        self.spec = spec
        self.calibration = calibration
        # One entry per deployment: first round to result() seconds, the
        # same at reference speed, each round's seconds, and the payload.
        self.deploy_s: List[float] = []
        self.deploy_ref_s: List[float] = []
        self.round_s: List[List[float]] = []
        self.payloads: List[Dict[str, Any]] = []

    def deploy(self) -> None:
        sim = Simulation.from_spec(self.spec)
        rounds: List[float] = []
        reference = 0.0
        before = self._sample()
        while not sim.done:
            tick = time.perf_counter()
            sim.step()
            rounds.append(time.perf_counter() - tick)
            after = self._sample()
            reference += self._at_reference(rounds[-1], before, after)
            before = after
        tick = time.perf_counter()
        result = sim.result()
        finish = time.perf_counter() - tick
        reference += self._at_reference(finish, before, self._sample())
        self.deploy_s.append(sum(rounds) + finish)
        self.deploy_ref_s.append(reference)
        self.round_s.append(rounds)
        self.payloads.append(result.to_dict())

    def _sample(self) -> float:
        return self.calibration.sample() if self.calibration else 0.0

    def _at_reference(self, seconds: float, before: float, after: float) -> float:
        if not self.calibration:
            return seconds
        return self.calibration.at_reference(seconds, min(before, after))

    def job_s(self, at_reference: bool = False) -> float:
        """The fastest whole deployment.

        Contention only ever slows a deployment down, so the fastest of
        a fixed number of repeats is the steadiest reading of the code.
        """
        return min(self.deploy_ref_s if at_reference else self.deploy_s)

    def fastest_rounds(self) -> List[float]:
        return self.round_s[self.deploy_s.index(self.job_s())]


def _outputs(payload: Dict[str, Any]) -> Dict[str, Any]:
    outputs = {
        "rounds": payload["rounds_executed"],
        "max_range": max(payload["sensing_ranges"]),
    }
    if payload.get("communication"):
        outputs["messages"] = payload["communication"]["messages"]
    return outputs


def _check(ledger: harness.Ledger, name: str, seed: int, runs: Deployments
           ) -> Dict[str, Any]:
    """Checks every deployment of the input; returns its outputs."""
    spec, first = runs.spec, runs.payloads[0]
    ledger.check(all(p == first for p in runs.payloads[1:]),
                 f"{name}: repeated deployments differ")
    ledger.check(first["converged"], f"{name}: did not converge in {spec.max_rounds} rounds")
    harness.check_deployment(ledger, first, spec.build_region(), spec.k, name)
    got = _outputs(first)
    want = harness.reference_for(name, seed)
    if want is not None:
        ledger.check(got["rounds"] == want["rounds"],
                     f"{name}: {got['rounds']} rounds != reference {want['rounds']}")
        ledger.check_close(got["max_range"], want["max_range"], f"{name}: max_range")
        if "messages" in want:
            ledger.check(got.get("messages") == want["messages"],
                         f"{name}: messages {got.get('messages')} != reference {want['messages']}")
    return got


def run(name: str, seed: int, seconds: float, traced: bool,
        environment: Dict[str, Any]) -> harness.Outcome:
    ledger = harness.Ledger()
    outcome = harness.Outcome(ledger)
    if traced:
        return _run_traced(name, seed, ledger, outcome, environment)
    setup_s = harness.measure_setup(name, seed)
    with harness.Calibration(CALIBRATION_THREADS[name]) as calibration:
        runs = Deployments(spec_for(name, seed), calibration)
        for _ in range(harness.repeats(REPEATS, seconds)):
            runs.deploy()
    ledger.operations(len(runs.payloads))
    outcome.outputs = _check(ledger, name, seed, runs)
    job_ref = runs.job_s(at_reference=True)
    outcome.metrics = {
        "setup_s": setup_s,
        "job_s": job_ref,
        "throughput_per_s": 1.0 / job_ref,
        "peak_rss_mb": harness.peak_rss_mb(),
        "max_range": outcome.outputs["max_range"],
    }
    rounds = runs.fastest_rounds()
    job_s = runs.job_s()
    outcome.details = {
        "deploy_s": job_s,
        "round_ms_p50": 1e3 * statistics.median(rounds),
        "round_ms_p90": 1e3 * harness.percentile(rounds, 90),
        "rounds_per_s": len(rounds) / job_s,
        "rounds": outcome.outputs["rounds"],
        "deployments_s": runs.deploy_s,
        "deployments_ref_s": runs.deploy_ref_s,
    }
    if "messages" in outcome.outputs:
        nodes = runs.payloads[0]["node_count"]
        outcome.details["msgs_per_node"] = outcome.outputs["messages"] / nodes
    return outcome


def _run_traced(name: str, seed: int, ledger: harness.Ledger,
                outcome: harness.Outcome, environment: Dict[str, Any]) -> harness.Outcome:
    """One deployment untraced, then one traced."""
    from layer_probe import Probe, Spans, layer_metrics, report
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    spec = spec_for(name, seed)
    plain = Deployments(spec)
    plain.deploy()
    traced = Deployments(spec)
    counters = ("repro_grid_candidates_total", "repro_piece_pool_pieces_total")
    before = {c: _metrics.REGISTRY.counter(c).value for c in counters}
    with Probe(), _trace.tracing() as collector:
        traced.deploy()
    registry = {c: _metrics.REGISTRY.counter(c).value - before[c] for c in counters}
    overhead = traced.job_s() / plain.job_s() - 1.0
    plain.payloads.extend(traced.payloads)
    ledger.operations(len(plain.payloads))
    outcome.outputs = _check(ledger, name, seed, plain)

    first = plain.payloads[0]
    registry["nodes"] = first["node_count"]
    context = {
        "threads": environment["kernel_threads"],
        "registry": registry,
        "trace_overhead_frac": overhead,
    }
    communication = first.get("communication")
    if communication:
        context["communication"] = {
            key: communication[key] for key in ("messages", "transmissions", "bytes_sent")
        }
    values = layer_metrics(Spans(collector.rows()), context)
    report(outcome, collector, values, name, seed, environment)
    return outcome
