"""Stage spans of the sparse engines: names, nesting, and the untraced path.

The sparse engines time their stages with :func:`repro.obs.trace.span`
only.  ``perfbench/layer_probe.py`` and ``benchmarks/export_bench.py
--profile`` read the stage seconds off these spans by name, so the
names and their place in the span tree are pinned here: one span per
stage entry, each a direct child of its ``round`` span, with the
kernels' chunk spans nested inside the stages.  Untraced, a stage site
must read no clock and create no span object.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Simulation
from repro.obs import trace

CENTRALIZED_STAGES = {"query", "candidates", "kth", "clip", "finish", "emit", "summary"}
DISTRIBUTED_STAGES = {"gather", "circle_check", "clip", "summary"}
#: The lossy gather is one ``gather`` span (its circle checks interleave
#: with the loss draws and are not split out).
LOSSY_DISTRIBUTED_STAGES = {"gather", "clip", "summary"}

CASES = {
    "centralized": (dict(kind="laacad"), CENTRALIZED_STAGES),
    "distributed": (dict(kind="distributed"), DISTRIBUTED_STAGES),
    "distributed-lossy": (
        dict(kind="distributed", drop_probability=0.2),
        LOSSY_DISTRIBUTED_STAGES,
    ),
}


@pytest.fixture(autouse=True)
def _tracing_off():
    trace.stop_tracing()
    yield
    trace.stop_tracing()


def _simulation(case):
    kwargs, _ = CASES[case]
    return Simulation(node_count=40, k=2, seed=3, engine="sparse", **kwargs)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stage_spans_nest_under_the_round(case):
    sim = _simulation(case)
    with trace.collecting() as collector:
        sim.step()
    rows = collector.rows()
    (round_row,) = [row for row in rows if row["name"] == "round"]
    children = {row["name"] for row in rows if row["parent"] == round_row["id"]}
    assert children == CASES[case][1]

    by_id = {row["id"]: row for row in rows}
    for row in rows:
        if row["name"] in CASES[case][1]:
            assert row["parent"] == round_row["id"], row
        if row["name"] == "chunk":
            assert by_id[row["parent"]]["name"] in CASES[case][1], row


def test_stage_entries_accumulate_per_name():
    """The level loop re-enters stages; every entry is its own span."""
    sim = _simulation("centralized")
    with trace.collecting() as collector:
        sim.step()
    names = [row["name"] for row in collector.rows()]
    assert names.count("clip") == names.count("finish") > 1
    assert names.count("emit") == names.count("summary") == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_untraced_round_reads_no_clock(case, monkeypatch):
    sim = _simulation(case)
    assert not trace.tracing_active()

    def forbidden(*args, **kwargs):  # pragma: no cover - the assertion is the call
        raise AssertionError("an untraced round must not read the span clock")

    monkeypatch.setattr(time, "perf_counter", forbidden)
    monkeypatch.setattr(trace, "_Span", forbidden)
    sim.step()
    sim.step()
    assert sim.state.rounds_executed == 2
