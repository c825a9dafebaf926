"""Figure 6: convergence of LAACAD (max/min circumradius vs rounds).

Same setup as Figure 5 (corner cluster); the output series are, per
coverage order k and per round, the maximum and minimum circumradii over
all dominating regions.  The paper's observations to check: the maximum
trace is monotonically non-increasing, the minimum trace generally grows,
and the two nearly coincide at convergence (especially for larger k).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.traces import is_monotone_nonincreasing, relative_gap
from repro.experiments.common import (
    ExperimentResult,
    execute_scenarios,
    resolve_engine,
    resolve_scale,
)
from repro.scenarios import expand_grid, make_scenario


def run_fig6_convergence(
    node_count: Optional[int] = None,
    k_values: Sequence[int] = (1, 2, 3, 4),
    cluster_fraction: float = 0.15,
    comm_range: float = 0.25,
    max_rounds: Optional[int] = None,
    epsilon: float = 1e-3,
    alpha: float = 1.0,
    seed: int = 11,
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Produce the Figure 6 convergence traces.

    Rows contain one entry per (k, round) with the max/min circumradius;
    the metadata carries the per-k summary (monotonicity of the max
    trace, final max/min gap, rounds to convergence).  ``engine``
    selects the round backend (default: REPRO_ENGINE, else the
    centralized pipeline's default).
    """
    scale = resolve_scale()
    if engine is None:
        engine = resolve_engine()
    if node_count is None:
        node_count = 100 if scale == "full" else 60
    if max_rounds is None:
        max_rounds = 250 if scale == "full" else 120
    base = make_scenario(
        "corner_cluster",
        node_count=node_count,
        comm_range=comm_range,
        alpha=alpha,
        epsilon=epsilon,
        max_rounds=max_rounds,
        seed=seed,
        engine=engine,
    ).override("placement.cluster_fraction", cluster_fraction)
    specs = expand_grid(base, {"k": list(k_values)})
    results = execute_scenarios(specs)

    rows: List[Dict] = []
    summaries: Dict[str, Dict] = {}
    for k, result in zip(k_values, results):
        history = result["history"]
        max_trace = [stats["max_circumradius"] for stats in history]
        min_trace = [stats["min_circumradius"] for stats in history]
        for stats in history:
            rows.append(
                {
                    "k": k,
                    "round": stats["round_index"],
                    "max_circumradius": stats["max_circumradius"],
                    "min_circumradius": stats["min_circumradius"],
                    "max_displacement": stats["max_displacement"],
                }
            )
        summaries[str(k)] = {
            "rounds": result["rounds_executed"],
            "converged": result["converged"],
            # Proposition 4 guarantees monotonicity in exact arithmetic; the
            # tolerance absorbs the ~1e-4 wobble the clipping cascades and
            # Welzl restarts introduce for large k.
            "max_trace_monotone": is_monotone_nonincreasing(max_trace, tolerance=1e-4),
            "final_gap_relative": relative_gap(max_trace, min_trace),
            "final_max_circumradius": max_trace[-1] if max_trace else 0.0,
            "final_min_circumradius": min_trace[-1] if min_trace else 0.0,
        }

    return ExperimentResult(
        name="fig6_convergence",
        description=(
            "Per-round maximum and minimum circumradii for k = 1..4 from the "
            "corner-cluster start (Figure 6)"
        ),
        rows=rows,
        metadata={
            "node_count": node_count,
            "k_values": list(k_values),
            "alpha": alpha,
            "max_rounds": max_rounds,
            "seed": seed,
            "scale": scale,
            "engine": base.resolved_engine(),
            "summaries": summaries,
        },
    )
