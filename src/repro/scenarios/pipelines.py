"""Execution pipelines: how a :class:`ScenarioSpec` is turned into numbers.

Each pipeline is a pure function ``spec -> result dict``; the dict must
be JSON-serializable (the sweep cache stores it verbatim and the spec
layer normalizes it through a JSON round-trip).  Pipelines are looked up
in a registry so new simulation kinds plug in without touching the sweep
machinery::

    from repro.scenarios import register_pipeline

    def run_my_pipeline(spec):
        return {"answer": 42}

    register_pipeline("my_pipeline", run_my_pipeline)

Built-in pipelines:

* ``laacad`` — the centralized Algorithm 1 iteration (the workhorse of
  Figures 5-8 and the tables);
* ``static`` — no movement: nodes keep their placement and size their
  sensing ranges to their dominating regions (the lifetime baselines);
* ``distributed`` — the message-passing runtime, with optional node
  failures and message loss;
* ``voronoi`` — structural summary of the k-order Voronoi partition
  (Figure 1);
* ``rings`` — the Algorithm 2 expanding-ring probe at the central
  lattice node (Figure 2);
* ``localized_compare`` — localized vs global dominating-region
  agreement (the locality ablation).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from repro.scenarios.spec import ScenarioSpec

PipelineFn = Callable[[ScenarioSpec], Dict[str, Any]]

_PIPELINES: Dict[str, PipelineFn] = {}


def register_pipeline(name: str, fn: PipelineFn) -> None:
    """Register (or replace) a pipeline under ``name``."""
    _PIPELINES[name] = fn


def available_pipelines() -> List[str]:
    """Sorted names of every registered pipeline."""
    return sorted(_PIPELINES)


def execute_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run the pipeline a spec names; raises for unknown pipelines."""
    try:
        pipeline = _PIPELINES[spec.pipeline]
    except KeyError:
        raise ValueError(
            f"unknown pipeline {spec.pipeline!r}; "
            f"available: {', '.join(available_pipelines())}"
        ) from None
    return pipeline(spec)


# ----------------------------------------------------------------------
# Deployment pipelines (centralized / static / distributed)
# ----------------------------------------------------------------------
def _run_deployment(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute a deployment scenario through the ``repro.api`` session.

    All three deployment pipelines share one code path and one
    serializer (``SimulationResult.to_dict``), so their payloads can
    never drift apart again.  When the checkpoint environment is
    configured (the CLI's ``--checkpoint-every``/``--checkpoint-dir``,
    or a :class:`~repro.scenarios.sweep.SweepRunner` checkpoint
    directory), the run writes a full checkpoint every N rounds and
    resumes from a matching one — resumption is bitwise-identical, so
    the determinism contract behind the result cache is preserved.
    """
    from repro.api.checkpoint import (
        checkpoint_path_for,
        resolve_checkpoint_dir,
        resolve_checkpoint_every,
    )
    from repro.api.session import Simulation

    every = resolve_checkpoint_every()
    checkpoint_dir = resolve_checkpoint_dir()
    if every and checkpoint_dir is not None:
        path = checkpoint_path_for(checkpoint_dir, spec.digest())
        session = Simulation.resume_or_start(spec, path)
        result = session.run(checkpoint_every=every, checkpoint_path=path)
        try:
            path.unlink()
        except OSError:
            pass
    else:
        result = Simulation.from_spec(spec).run()
    return result.to_dict()


def run_laacad_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """Centralized Algorithm 1 run."""
    return _run_deployment(spec)


def run_static_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """No-movement deployment: ranges sized to the dominating regions."""
    return _run_deployment(spec)


def run_distributed_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """Message-passing protocol run with failures and message loss.

    ``spec.engine`` selects the distributed round backend: ``sparse``
    (the default for this pipeline) gathers over grid-bucketed
    candidate pairs, ``legacy`` steps one scalar agent per node.
    ``sparse`` agrees with ``legacy`` to the 1e-9 tolerance contract
    (exact round counts and communication counters, including the
    loss-model RNG draw order), so the two are cached under different
    digests (see ``ScenarioSpec.canonical_json``).  ``batched`` is
    centralized-only and raises ValueError.
    """
    return _run_deployment(spec)


def run_voronoi_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """Structural summary of the k-order Voronoi partition (Figure 1)."""
    from repro.geometry.polygon import polygon_area
    from repro.voronoi.korder import KOrderVoronoiDiagram

    if spec.placement.get("kind", "random") != "random":
        raise ValueError(
            "the voronoi pipeline draws generator sites uniformly at random; "
            f"placement {spec.placement.get('kind')!r} is not supported"
        )
    region = spec.build_region()
    rng = np.random.default_rng(spec.resolved_placement_seed())
    sites = region.random_points(spec.node_count, rng=rng)
    seed_resolution = int(spec.extra.get("seed_resolution", 60))
    diagram = KOrderVoronoiDiagram(
        sites, region, spec.k, seed_resolution=seed_resolution
    )
    cells = diagram.cells()
    areas = [
        sum(polygon_area(list(piece)) for piece in pieces)
        for pieces in cells.values()
    ]
    dominating_areas = [
        diagram.dominating_region(i).area for i in range(spec.node_count)
    ]
    return {
        "node_count": spec.node_count,
        "num_cells": int(diagram.num_cells()),
        "cell_count_bound": int(diagram.cell_count_bound()),
        "total_cell_area": float(diagram.total_cell_area()),
        "region_area": float(region.area),
        "mean_cell_area": float(np.mean(areas)) if areas else 0.0,
        "mean_dominating_area": float(np.mean(dominating_areas)),
        "max_dominating_area": float(np.max(dominating_areas)),
    }


def run_rings_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """Algorithm 2 expanding-ring probe at the central node (Figure 2)."""
    from repro.core.dominating import localized_dominating_region
    from repro.geometry.primitives import distance

    region = spec.build_region()
    network = spec.build_network(region)
    positions = network.positions()
    if len(positions) <= spec.k:
        raise ValueError("the lattice is too sparse for the requested k values")
    xmin, ymin, xmax, ymax = region.bbox
    center_point = ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
    central = min(
        range(len(positions)), key=lambda i: distance(positions[i], center_point)
    )
    computation = localized_dominating_region(
        network,
        central,
        spec.k,
        ring_granularity=float(spec.extra.get("ring_granularity", 1.0)),
        circle_check_samples=int(spec.extra.get("circle_check_samples", 72)),
    )
    return {
        "node_count": len(positions),
        "central_node": int(central),
        "ring_radius": float(computation.ring_radius),
        "hops": int(computation.hops),
        "neighbors_used": int(computation.neighbors_used),
        "competitors_in_region": int(computation.region.competitors_used),
        "dominating_area": float(computation.region.area),
        "circumradius": float(computation.region.chebyshev_center()[1]),
    }


def run_localized_compare_pipeline(spec: ScenarioSpec) -> Dict[str, Any]:
    """Localized (Algorithm 2) vs global dominating regions on one network."""
    from repro.core.dominating import localized_dominating_region
    from repro.voronoi.dominating import compute_dominating_region

    region = spec.build_region()
    network = spec.build_network(region)
    positions = network.positions()
    max_diff = 0.0
    hops: List[int] = []
    neighbors_used: List[int] = []
    for node in network.nodes:
        others = [p for j, p in enumerate(positions) if j != node.node_id]
        global_region = compute_dominating_region(
            node.position, others, region, spec.k
        )
        local = localized_dominating_region(network, node.node_id, spec.k)
        diff = abs(
            global_region.circumradius(node.position)
            - local.region.circumradius(node.position)
        )
        max_diff = max(max_diff, diff)
        hops.append(local.hops)
        neighbors_used.append(local.neighbors_used)
    return {
        "node_count": len(positions),
        "max_range_difference": float(max_diff),
        "max_hops": int(max(hops)) if hops else 0,
        "mean_hops": float(np.mean(hops)) if hops else 0.0,
        "mean_neighbors_used": float(np.mean(neighbors_used)) if neighbors_used else 0.0,
    }


register_pipeline("laacad", run_laacad_pipeline)
register_pipeline("static", run_static_pipeline)
register_pipeline("distributed", run_distributed_pipeline)
register_pipeline("voronoi", run_voronoi_pipeline)
register_pipeline("rings", run_rings_pipeline)
register_pipeline("localized_compare", run_localized_compare_pipeline)
