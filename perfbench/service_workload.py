"""``service-mix``: ``repro serve`` driven by a closed loop of two clients.

The server runs as a subprocess with ``--max-live-sessions 32`` and
hosts 200 sessions (N=40, k=2, engine at the library default).  Each of
two client threads owns half of the sessions and sends its next request
only when the previous one has answered.  One ``step`` request runs one
round.  A session that is done or has used its quota of steps gets
``GET result``, then ``DELETE``, then a fresh create in its slot, so
writes interleave with steps.

The session choice is a synthetic assumption: no trace of real traffic
exists, and the repository's own service benchmark steps every session
once, uniformly.  A client picks one of its 12 hot sessions with
probability 0.8 (the usual 80/20 skew) and one of its 88 cold ones
otherwise.  The hot sets of both clients together fill three quarters
of the live cap, so hot sessions tend to stay live while the rest of
the cap turns over, and a cold pick nearly always pays a checkpoint
resurrection.  The step quota of 5 makes hot sessions finish whole
lifecycles within a run; without recycling, about half of all steps
would land on finished sessions.  The untraced run prints the resulting
live-hit ratio (about 0.65) and resurrections per step (about 0.37).
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
from repro.api import Simulation
from repro.regions.shapes import unit_square

SESSIONS = 200
CLIENTS = 2
MAX_LIVE = 32
HOT_PER_CLIENT = (3 * MAX_LIVE // 4) // CLIENTS
HOT_SHARE = 0.8
STEP_QUOTA = 5
NODES = 40
K = 2
HTTP_TIMEOUT = 60.0


def scenario(seed: int, slot: int, generation: int) -> Dict[str, Any]:
    return {"node_count": NODES, "k": K, "seed": seed * 100_003 + slot * 1_009 + generation}


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--max-live-sessions", str(MAX_LIVE)]
        if trace_path is None:
            command = [sys.executable, "-u", "-m", "repro"] + serve_args
        else:
            command = [sys.executable, "-u", str(harness.HERE / "serve_traced.py")]
            command += serve_args + ["--trace-out", trace_path]
        # The server's stderr goes to ours: a pipe nobody drains could
        # fill up and stall the server mid-run.
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=str(harness.ROOT),
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(self, method: str, path: str, body: Optional[Dict] = None
                ) -> Tuple[int, Any, float]:
        """One request on a fresh connection: (status, JSON body, seconds)."""
        began = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = json.loads(response.read() or b"null")
            return response.status, data, time.perf_counter() - began
        finally:
            connection.close()

    def stop(self) -> None:
        """Interrupt the server (it writes its trace on the way out) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------
class Slot:
    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.name = ""
        self.steps = 0
        self.done = False
        self.resurrections = 0
        self.spent = 0.0  # request seconds of the current session so far
        self.created_in_loop = False


class Client:
    """One connection's closed loop over the slots it owns."""

    def __init__(self, server: Server, seed: int, index: int) -> None:
        self.server = server
        self.seed = seed
        self.rng = random.Random(seed * 7_919 + index)
        self.slots = [Slot(i) for i in range(index, SESSIONS, CLIENTS)]
        self.requests = 0
        self.failed = 0
        self.failures: List[str] = []
        self.latencies: List[float] = []
        self.step_latencies: List[float] = []
        self.step_hits = 0
        self.lifecycles: List[float] = []
        self.results: List[Dict[str, Any]] = []

    def _call(self, method: str, path: str, body: Optional[Dict] = None
              ) -> Tuple[Any, float]:
        """One request: (JSON body or ``None`` on failure, seconds)."""
        self.requests += 1
        try:
            status, data, seconds = self.server.request(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.failed += 1
            self.failures.append(f"{method} {path}: {exc!r}")
            return None, 0.0
        self.latencies.append(seconds)
        if not 200 <= status < 300:
            self.failed += 1
            self.failures.append(f"{method} {path}: HTTP {status} {data}")
            return None, seconds
        return data, seconds

    def create(self, slot: Slot, in_loop: bool) -> None:
        slot.generation += 1
        slot.name = f"s{slot.index}-g{slot.generation}"
        body = {"name": slot.name, "scenario": scenario(self.seed, slot.index, slot.generation)}
        _, seconds = self._call("POST", "/sessions", body)
        slot.steps, slot.done, slot.resurrections = 0, False, 0
        slot.spent, slot.created_in_loop = seconds, in_loop

    def create_all(self) -> None:
        for slot in self.slots:
            self.create(slot, in_loop=False)

    def pick(self) -> Slot:
        if self.rng.random() < HOT_SHARE:
            return self.slots[self.rng.randrange(HOT_PER_CLIENT)]
        return self.slots[self.rng.randrange(HOT_PER_CLIENT, len(self.slots))]

    def loop(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            slot = self.pick()
            if slot.done or slot.steps >= STEP_QUOTA:
                self.recycle(slot)
                continue
            data, seconds = self._call("POST", f"/sessions/{slot.name}/step", {"rounds": 1})
            if data is None:
                continue
            self.step_latencies.append(seconds)
            info = data["session"]
            self.step_hits += info["resurrections"] == slot.resurrections
            slot.resurrections = info["resurrections"]
            slot.steps += 1
            slot.done = info["done"]
            slot.spent += seconds

    def recycle(self, slot: Slot) -> None:
        result, seconds = self._call("GET", f"/sessions/{slot.name}/result")
        slot.spent += seconds
        if result is not None:
            self.results.append(result)
        _, seconds = self._call("DELETE", f"/sessions/{slot.name}")
        if slot.created_in_loop:
            self.lifecycles.append(slot.spent + seconds)
        self.create(slot, in_loop=True)


def _parallel(functions) -> None:
    threads = [threading.Thread(target=fn) for fn in functions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _setup(seed: int, trace_path: Optional[str]) -> Tuple[Server, List[Client], float]:
    """Start a server and create every session; returns the set-up seconds."""
    began = time.perf_counter()
    server = Server(trace_path)
    clients = [Client(server, seed, i) for i in range(CLIENTS)]
    _parallel([c.create_all for c in clients])
    return server, clients, time.perf_counter() - began


def _drive(server: Server, clients: List[Client], seconds: float) -> Dict[str, Any]:
    """The closed-loop window; afterwards each client's ``latencies`` hold
    only the window's requests."""
    for client in clients:
        client.latencies.clear()
    _, before, _ = server.request("GET", "/stats")
    stolen = harness.stolen_s()
    began = time.perf_counter()
    deadline = began + seconds
    _parallel([lambda c=c: c.loop(deadline) for c in clients])
    wall = time.perf_counter() - began
    stolen = harness.stolen_s() - stolen
    _, after, _ = server.request("GET", "/stats")
    steps = max(1, sum(len(c.step_latencies) for c in clients))
    return {
        "wall": wall,
        "stolen": stolen,
        "evictions": (after["total_evictions"] - before["total_evictions"]) / steps,
        "resurrections": (after["total_resurrections"] - before["total_resurrections"]) / steps,
    }


def _check_eviction_equivalence(server: Server, ledger: harness.Ledger, seed: int
                                ) -> Dict[str, Any]:
    """A session evicted after every round must equal a direct run bit for bit."""
    spec = scenario(seed, SESSIONS, 0)
    ok = ledger.check(
        server.request("POST", "/sessions", {"name": "check", "scenario": spec})[0] == 201,
        "service-mix: check session create failed",
    )
    done = False
    while ok and not done:
        status, data, _ = server.request("POST", "/sessions/check/step", {"rounds": 1})
        ok = status == 200 and server.request("POST", "/sessions/check/evict")[0] == 200
        done = ok and data["session"]["done"]
    ledger.check(ok, "service-mix: stepping the evict-every-round session failed")
    status, served, _ = server.request("GET", "/sessions/check/result")
    direct = json.loads(json.dumps(Simulation(**spec).run().to_dict()))
    ledger.check(
        status == 200 and served == direct,
        "service-mix: evict-every-round session differs from a direct run",
    )
    return {"rounds": direct["rounds_executed"], "max_range": max(direct["sensing_ranges"])}


def _check_results(ledger: harness.Ledger, clients: List[Client]) -> None:
    region = unit_square()
    for client in clients:
        for payload in client.results:
            harness.check_deployment(ledger, payload, region, K, "service-mix result")


def _ledger_requests(ledger: harness.Ledger, clients: List[Client]) -> None:
    for client in clients:
        ledger.operations(client.requests, client.failed, "requests")
        ledger.failures.extend(client.failures[:5])


def _reference(ledger: harness.Ledger, seed: int, outputs: Dict[str, Any]) -> None:
    reference = harness.reference_for("service-mix", seed)
    if reference is not None:
        ledger.check(outputs["rounds"] == reference["rounds"],
                     f"service-mix: check session rounds {outputs['rounds']} != reference")
        ledger.check_close(outputs["max_range"], reference["max_range"], "service-mix: max_range")


def run(name: str, seed: int, seconds: float, traced: bool,
        environment: Dict[str, Any]) -> harness.Outcome:
    ledger = harness.Ledger()
    outcome = harness.Outcome(ledger)
    if traced:
        return _run_traced(seed, seconds, ledger, outcome, environment)

    setups = []
    for _ in range(harness.SETUP_REPEATS - 1):
        server, _, took = _setup(seed, None)
        server.stop()
        setups.append(took)
    server, clients, took = _setup(seed, None)
    setups.append(took)
    try:
        totals = _drive(server, clients, seconds)
        outcome.outputs = _check_eviction_equivalence(server, ledger, seed)
    finally:
        server.stop()
    _ledger_requests(ledger, clients)
    _check_results(ledger, clients)
    _reference(ledger, seed, outcome.outputs)

    steps = [s for c in clients for s in c.step_latencies]
    lifecycles = [s for c in clients for s in c.lifecycles]
    ledger.check(bool(lifecycles), "service-mix: no session finished a lifecycle in the run")
    latencies = [s for c in clients for s in c.latencies]
    # The window less the steal time the hypervisor took while it ran;
    # requests were slowed in proportion.
    own = (totals["wall"] - totals["stolen"]) / totals["wall"]
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "job_s": own * statistics.mean(latencies),
        "throughput_per_s": len(latencies) / (own * totals["wall"]),
        "peak_rss_mb": harness.peak_rss_mb(),
        "max_range": outcome.outputs["max_range"],
    }
    outcome.details = {
        "latency_s": statistics.mean(latencies),
        "svc_req_per_s": len(latencies) / totals["wall"],
        "stolen_s": totals["stolen"],
        "lifecycle_s": statistics.median(lifecycles) if lifecycles else None,
        "svc_step_ms_p50": 1e3 * statistics.median(steps),
        "svc_step_ms_p95": 1e3 * harness.percentile(steps, 95),
        "step_samples": len(steps),
        "lifecycles": len(lifecycles),
        "live_hit_ratio": sum(c.step_hits for c in clients) / len(steps),
        "resurrections_per_step": totals["resurrections"],
        "evictions_per_step": totals["evictions"],
    }
    return outcome


def _run_traced(seed, seconds, ledger, outcome, environment):
    from layer_probe import Spans, layer_metrics, report
    from repro.obs.trace import TraceCollector

    server, plain, _ = _setup(seed, None)
    try:
        _drive(server, plain, seconds / 2)
    finally:
        server.stop()
    trace_rows = harness.out_path(f"service-mix-s{seed}.server.jsonl")
    server, clients, _ = _setup(seed, str(trace_rows))
    try:
        totals = _drive(server, clients, seconds / 2)
        outcome.outputs = _check_eviction_equivalence(server, ledger, seed)
    finally:
        server.stop()
    _ledger_requests(ledger, plain + clients)
    _check_results(ledger, plain + clients)
    _reference(ledger, seed, outcome.outputs)

    collector = TraceCollector()
    collector.adopt(json.loads(line) for line in trace_rows.read_text().splitlines())
    trace_rows.unlink()

    def mean_latency(group):
        samples = [s for c in group for s in c.latencies]
        return sum(samples) / len(samples)

    steps = [s for c in clients for s in c.step_latencies]
    context = {
        "threads": environment["kernel_threads"],
        "service_client": {
            "step_mean_s": sum(steps) / len(steps),
            "live_hit_ratio": sum(c.step_hits for c in clients) / len(steps),
            "evictions": totals["evictions"],
            "resurrections": totals["resurrections"],
        },
        "trace_overhead_frac": mean_latency(clients) / mean_latency(plain) - 1.0,
    }
    values = layer_metrics(Spans(collector.rows()), context)
    report(outcome, collector, values, "service-mix", seed, environment)
    return outcome
