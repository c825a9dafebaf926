"""The original per-node round computation behind the engine protocol.

This is, verbatim, the region loop the original run-to-completion
driver inlined: every alive node independently runs either the exact
global computation (with the Lemma-1 pre-filter) or the Algorithm-2
expanding ring.  It is
kept as the reference backend: the equivalence suite asserts the
batched engine reproduces its results bitwise.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.engine.base import RoundEngine, register_engine
from repro.voronoi.dominating import DominatingRegion, compute_dominating_region


@register_engine
class LegacyRoundEngine(RoundEngine):
    """Scalar per-node reference backend."""

    name = "legacy"

    def compute_regions(self) -> Tuple[Dict[int, DominatingRegion], int]:
        # Lazy import: see the matching note in ``repro.engine.batch``.
        from repro.core.dominating import localized_dominating_region

        regions: Dict[int, DominatingRegion] = {}
        max_hops = 0
        network = self.network
        config = self.config
        alive = network.alive_nodes()
        if config.use_localized:
            for node in alive:
                computation = localized_dominating_region(
                    network,
                    node.node_id,
                    config.k,
                    ring_granularity=config.ring_granularity,
                    circle_check_samples=config.circle_check_samples,
                )
                regions[node.node_id] = computation.region
                max_hops = max(max_hops, computation.hops)
        else:
            positions = {n.node_id: n.position for n in alive}
            for node in alive:
                others = [p for j, p in positions.items() if j != node.node_id]
                regions[node.node_id] = compute_dominating_region(
                    node.position,
                    others,
                    network.region,
                    config.k,
                    prefilter=config.prefilter,
                )
        return regions, max_hops
