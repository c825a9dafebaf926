"""Sparse distributed backend: grid-fed rings, cross-node clipping.

The production backend of the message-passing protocol (the
distributed pipeline's default).  Its oracle is
:class:`~repro.runtime.engines.LegacyDistributedEngine`, whose agents
walk every node's expanding ring message by message.  This backend
executes the same protocol at the round level:

* candidates come from :class:`~repro.network.neighbors.SpatialGrid`
  batch queries — the grid is built with the same cell size the scan
  order contract uses, so a bucket walk enumerates ring members in
  exactly the legacy scan order;
* with a **loss-free channel** the gather runs *level-synchronously*:
  all still-searching nodes share the same ring radius schedule, so one
  array pass per ring level accounts every node's new exchanges (bulk
  :meth:`~repro.runtime.scheduler.SynchronousScheduler.record_many` —
  loss-free accounting is a sum, so bulk order cannot change it) and
  one vectorised Algorithm-2 circle check retires all dominated nodes
  at once.  No RNG is consumed on a loss-free channel, so draw order
  is trivially preserved;
* with a **lossy channel** the engine walks each node's rings in turn
  (``_expanding_rings``), fetching candidates lazily from the grid with
  a doubling horizon — the RNG draw-order contract below holds bit for
  bit;
* the per-node clipping sweeps are replaced by one
  :func:`~repro.engine.sparse_kernels.clip_cells_batch` call over all
  nodes, and the per-round summary (Chebyshev centers, displacements,
  move proposals) by :func:`~repro.engine.sparse_kernels.mec_batch`.

The RNG draw-order contract
---------------------------
With a lossy channel, *which* reply is dropped is decided by one
``Generator.random()`` draw per transmission, so exact communication
counters require this backend to consume the scheduler RNG
draw-for-draw in the legacy agents' order.  That order is:

1. nodes step in ascending node-id order (dead nodes draw nothing);
2. per node, rings expand by ``gamma * ring_granularity`` per step and
   a ring's members are visited in the spatial grid's scan order —
   ascending ``(cell_x, cell_y, node_id)`` with ``cell =
   floor(coordinate / cell_size)`` — restricted to alive non-self nodes
   within ``dist_sq <= rho^2 + 1e-15`` (the grid's inclusion test);
3. per not-yet-known member: one draw for the flooded query, one for
   the reply (a dropped reply leaves the member unknown, so it is
   re-attempted — two more draws — in every later ring).

The lossy gather reproduces (2) by querying a grid with the contract's
cell size (its bucket walk *is* the scan order) and (3) by drawing all
of a ring's samples with a single ``Generator.random(2 * attempts)``
call, which produces the identical stream as that many scalar calls.

Numerical contract: **tolerance, not bitwise** (DESIGN.md "Sparse
engine tier") — positions/ranges/areas within 1e-9 of the legacy
backend, identical round counts and exact communication counters
(``tests/test_engine_sparse_equivalence.py``).  The gather decisions
themselves (ring membership, hop counts, circle checks, loss draws)
reuse the legacy agent's arithmetic, so the tolerance enters only
through the fused clipping, the MEC and the squared-distance "closer"
test of the level-synchronous circle check.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.jit_kernels import closer_counts, segment_ids
from repro.engine.kernels import BatchedRegionContainment
from repro.engine.pieces import LazyRegions, materialize_pieces
from repro.engine.sparse_kernels import clip_cells_batch, mec_batch
from repro.geometry.primitives import Point
from repro.network.neighbors import SpatialGrid
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.engines import (
    DistributedEngineRound,
    DistributedRoundEngine,
    register_distributed_engine,
    summarize_protocol_round,
)
from repro.runtime.messages import POSITION_REPORT_BYTES, RING_QUERY_BYTES
from repro.voronoi.dominating import DominatingRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork
    from repro.runtime.scheduler import SynchronousScheduler

__all__ = ["SparseDistributedEngine"]

#: Same process-wide counter as the centralized engine's candidates
#: stage — get-or-create on the shared registry returns one object.
_GRID_CANDIDATES = _metrics.counter(
    "repro_grid_candidates_total",
    "Candidate neighbors returned by spatial-grid radius queries",
)


def _extend_schedule(rhos: List[float], thresholds: List[float], upto: int, step: float) -> None:
    """Grow the shared ring-radius schedule to ``upto`` levels.

    Radii are accumulated by repeated addition (``rho += step``) so the
    floats match the legacy per-node loop bit for bit; the thresholds
    are the grid inclusion test ``rho^2 + 1e-15``.
    """
    while len(rhos) < upto:
        rho = (rhos[-1] if rhos else 0.0) + step
        rhos.append(rho)
        thresholds.append(rho * rho + 1e-15)


@register_distributed_engine
class SparseDistributedEngine(DistributedRoundEngine):
    """Grid-bucketed, level-synchronous protocol rounds."""

    name = "sparse"

    def __init__(
        self,
        network: "SensorNetwork",
        config: "LaacadConfig",
        scheduler: "SynchronousScheduler",
    ) -> None:
        super().__init__(network, config, scheduler)
        # Sample directions of the Algorithm-2 half-radius circle check,
        # computed with math.cos/math.sin so the sample points are
        # bitwise the legacy agent's.
        samples = config.circle_check_samples
        self._circle_cos = np.asarray(
            [math.cos(2.0 * math.pi * i / samples) for i in range(samples)]
        )
        self._circle_sin = np.asarray(
            [math.sin(2.0 * math.pi * i / samples) for i in range(samples)]
        )
        # Interleaved (query, reply) sizes, tiled per ring batch.
        self._exchange_sizes = np.asarray(
            [RING_QUERY_BYTES, POSITION_REPORT_BYTES], dtype=np.int64
        )
        # Vectorised free-area containment for the circle samples,
        # decision-exact against region.contains.
        self._containment = BatchedRegionContainment(network.region)

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> DistributedEngineRound:
        network = self.network
        config = self.config
        area = network.region
        area_pieces = area.convex_pieces()
        gamma = network.comm_range
        step = gamma * config.ring_granularity
        max_radius = 2.0 * area.diameter + step

        positions = np.asarray(network.positions(), dtype=float)
        alive = network.alive_mask()
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        if alive_rows.size == 0:
            self.last_regions = {}
            return summarize_protocol_round(network, config, {})

        # Same cell size as the scan-order contract: bucket-walk order
        # IS the legacy ring-member visiting order.
        grid = SpatialGrid(positions, cell_size=max(gamma, 1e-6))
        if self.scheduler.drop_probability > 0.0:
            with _trace.span("gather"):
                gathered = self._gather_lossy(
                    grid, positions, alive, step, max_radius, gamma
                )
        else:
            gathered = self._gather_lossfree(
                grid, positions, alive, step, max_radius, gamma
            )
        known_ids, known_indptr, rho_final = gathered
        round_summary = self._clip_and_summarize(
            positions, alive_rows, known_ids, known_indptr, rho_final, area_pieces
        )
        self.last_regions = round_summary.regions
        return round_summary

    # ------------------------------------------------------------------
    # Loss-free gather: level-synchronous over all nodes
    # ------------------------------------------------------------------
    def _gather_lossfree(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        alive: np.ndarray,
        step: float,
        max_radius: float,
        gamma: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All nodes' expanding rings, one ring level at a time.

        Loss-free delivery means every ring member is attempted exactly
        once — at the first level whose radius reaches it — and always
        answers, so per level the new exchanges of *all* still-active
        nodes can be accounted with one bulk ``record_many`` (the
        counters are order-independent sums) and the known sets grow by
        exactly the level's ring members.  No loss draws exist, so no
        RNG ordering constraint applies.
        """
        scheduler = self.scheduler
        sizes = self._exchange_sizes
        count = positions.shape[0]
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        n_alive = alive_rows.shape[0]
        active = np.ones(n_alive, dtype=bool)
        rho_final = np.zeros(n_alive)
        rhos: List[float] = []
        thresholds: List[float] = []

        # Delivered pairs, appended level by level (owner-grouped, scan
        # order within a level — the legacy delivery order).
        acc_owner: List[np.ndarray] = []
        acc_cand: List[np.ndarray] = []
        # Flat known positions for the vectorised circle checks.
        known_owner = np.zeros(0, dtype=np.int64)
        known_x = np.zeros(0)
        known_y = np.zeros(0)
        # Candidate pairs of the current fetch horizon.
        pair_owner = np.zeros(0, dtype=np.int64)
        pair_cand = np.zeros(0, dtype=np.int64)
        pair_ring = np.zeros(0, dtype=np.int64)
        pair_hops = np.zeros(0, dtype=np.int64)

        fetched_levels = 0
        level = 0
        while active.any():
            level += 1
            _extend_schedule(rhos, thresholds, level, step)
            rho = rhos[level - 1]
            if level > fetched_levels:
                # Fetch the next horizon block (doubling span) for the
                # still-active owners.  All pairs of earlier rings have
                # been processed, so the old pair state is obsolete.
                with _trace.span("gather"):
                    span = max(2, fetched_levels)
                    new_fetched = level + span - 1
                    _extend_schedule(rhos, thresholds, new_fetched, step)
                    radius = rhos[new_fetched - 1]
                    rows_active = np.nonzero(active)[0]
                    owners_nodes = alive_rows[rows_active]
                    cand, indptr = grid.query_radius_many(
                        positions[owners_nodes], radius
                    )
                    _GRID_CANDIDATES.inc(int(cand.shape[0]))
                    ow_row = rows_active[
                        segment_ids(np.diff(indptr), cand.shape[0])
                    ]
                    ow_node = alive_rows[ow_row]
                    keep = alive[cand] & (cand != ow_node)
                    cand = cand[keep]
                    ow_row = ow_row[keep]
                    ow_node = ow_node[keep]
                    dx = px[cand] - px[ow_node]
                    dy = py[cand] - py[ow_node]
                    dist_sq = dx * dx + dy * dy
                    hops = np.maximum(
                        1, np.ceil(np.hypot(dx, dy) / gamma - 1e-9)
                    ).astype(np.int64)
                    # Ring index: first level whose inclusion threshold
                    # admits the pair (identical float schedule as the
                    # scalar rho accumulation).
                    ring = (
                        np.searchsorted(
                            np.asarray(thresholds[:new_fetched]),
                            dist_sq,
                            side="left",
                        )
                        + 1
                    )
                    fresh = ring >= level
                    order = np.lexsort((ring[fresh], ow_row[fresh]))
                    pair_owner = ow_row[fresh][order]
                    pair_cand = cand[fresh][order]
                    pair_ring = ring[fresh][order]
                    pair_hops = hops[fresh][order]
                    fetched_levels = new_fetched

            mask = (pair_ring == level) & active[pair_owner]
            if mask.any():
                with _trace.span("gather"):
                    level_hops = pair_hops[mask]
                    scheduler.record_many(
                        np.repeat(level_hops, 2),
                        np.tile(sizes, level_hops.shape[0]),
                    )
                    lvl_owner = pair_owner[mask]
                    lvl_cand = pair_cand[mask]
                    acc_owner.append(lvl_owner)
                    acc_cand.append(lvl_cand)
                    known_owner = np.concatenate((known_owner, lvl_owner))
                    known_x = np.concatenate((known_x, px[lvl_cand]))
                    known_y = np.concatenate((known_y, py[lvl_cand]))

            # Algorithm-2 stop checks for every active node at once.
            with _trace.span("circle_check"):
                rows_active = np.nonzero(active)[0]
                sel = active[known_owner]
                ko = known_owner[sel]
                by_owner = np.argsort(ko, kind="stable")
                ko = ko[by_owner]
                row_local = np.full(n_alive, -1, dtype=np.int64)
                row_local[rows_active] = np.arange(rows_active.shape[0])
                local = row_local[ko]
                counts_local = np.bincount(local, minlength=rows_active.shape[0])
                kptr = np.concatenate(([0], np.cumsum(counts_local))).astype(
                    np.int64
                )
                dominated = self._circle_dominated_many(
                    px[alive_rows[rows_active]],
                    py[alive_rows[rows_active]],
                    rho / 2.0,
                    known_x[sel][by_owner],
                    known_y[sel][by_owner],
                    kptr,
                )
                stopping = dominated | (rho >= max_radius)
                stop_rows = rows_active[stopping]
                rho_final[stop_rows] = rho
                active[stop_rows] = False

        # Assemble per-node known lists in delivery order.
        if acc_owner:
            all_owner = np.concatenate(acc_owner)
            all_cand = np.concatenate(acc_cand)
            seq = np.concatenate(
                [
                    np.full(chunk.shape[0], i, dtype=np.int64)
                    for i, chunk in enumerate(acc_owner)
                ]
            )
            order = np.lexsort((seq, all_owner))
            known_counts = np.bincount(all_owner, minlength=n_alive)
            known_ids = all_cand[order]
        else:
            known_counts = np.zeros(n_alive, dtype=np.int64)
            known_ids = np.zeros(0, dtype=np.int64)
        known_indptr = np.concatenate(([0], np.cumsum(known_counts))).astype(np.int64)
        return known_ids, known_indptr, rho_final

    def _circle_dominated_many(
        self,
        sx: np.ndarray,
        sy: np.ndarray,
        radius: float,
        kx: np.ndarray,
        ky: np.ndarray,
        kptr: np.ndarray,
    ) -> np.ndarray:
        """Vectorised half-radius domination check for many nodes.

        Per node: every free-area sample point on the half-radius circle
        must see at least ``k`` known neighbours strictly closer than
        the node itself.  Decisions mirror the scalar
        ``_circle_dominated`` with one tolerance-contract deviation:
        "closer" is decided on squared distances (``d² < t²`` instead
        of ``hypot(d) < t``), which can differ only when a neighbour
        sits within an ulp of the 1e-12 comparison margin.

        The decision per node is ``all over samples of (count >= k or
        sample outside the free area)`` — a node with *no* inside
        sample is vacuously dominated, so the formula subsumes the
        scalar early-out.  Containment is therefore only evaluated at
        the samples whose closer-count falls short of ``k`` (the only
        places it can influence the verdict), which is typically a tiny
        fraction of the sample set.  The counting itself — candidate
        gather, squared distances, and the two-stage cap-then-remainder
        schedule (a subset count already >= k can only grow, so only
        rows with a still-short sample pay for the knowns beyond the
        first ``max(8, 4k)``) — is the fused
        :func:`repro.engine.jit_kernels.closer_counts` kernel, shared
        by the numpy and JIT tiers with decision-identical totals.
        """
        a = sx.shape[0]
        n_samples = self._circle_cos.shape[0]
        sample_x = sx[:, None] + radius * self._circle_cos[None, :]
        sample_y = sy[:, None] + radius * self._circle_sin[None, :]
        counts = np.diff(kptr)
        k = self.config.k

        def blocked(row_sel: np.ndarray, col_sel: np.ndarray) -> np.ndarray:
            """Rows (of ``row_sel``) with a blocking sample among ``col_sel``.

            Evaluates exactly the per-(row, sample) decision of the
            one-shot check — counting kernel, then containment at the
            short samples only — restricted to the given panel slice.
            """
            n_rows = row_sel.shape[0]
            n_cols = col_sel.shape[0]
            counted = np.zeros((n_rows, n_cols), dtype=np.int64)
            # Rows with fewer than ``k`` knowns are counted-out a
            # priori: no sample can reach ``k`` closer neighbours, so
            # every sample is short regardless of the actual counts and
            # the verdict is decided by containment alone — the kernel
            # would change nothing about the decision.
            kern = np.nonzero(counts[row_sel] >= k)[0]
            if kern.size:
                krows = row_sel[kern]
                sample_x_r = np.ascontiguousarray(
                    sample_x[np.ix_(krows, col_sel)]
                )
                sample_y_r = np.ascontiguousarray(
                    sample_y[np.ix_(krows, col_sel)]
                )
                threshold = np.hypot(
                    sx[krows, None] - sample_x_r, sy[krows, None] - sample_y_r
                )
                threshold -= 1e-12
                np.maximum(threshold, 0.0, out=threshold)
                threshold_sq = threshold * threshold
                # Stage-1 budget for the two-stage counting kernel.
                # Any value is decision-equivalent (a prefix count
                # already at ``k`` only grows when more knowns are
                # folded in); 8*k is the measured sweet spot between
                # stage-1 panel traffic and stage-2 fallback rows.
                cap = max(16, 8 * k)
                counted[kern] = closer_counts(
                    kx,
                    ky,
                    kptr[krows],
                    counts[krows],
                    sample_x_r,
                    sample_y_r,
                    threshold_sq,
                    cap,
                    k,
                )
            short = counted < k
            srow, scol = np.nonzero(short)
            if not srow.size:
                return np.zeros(n_rows, dtype=bool)
            inside = self._containment.contains(
                sample_x[row_sel[srow], col_sel[scol]],
                sample_y[row_sel[srow], col_sel[scol]],
            )
            return np.bincount(srow[inside], minlength=n_rows) > 0

        # Two-phase evaluation: a strided sixth of the samples spans
        # the whole circle, so any blocking arc wider than one stride
        # shows up in the first (cheap) panel and finalises its row as
        # not-dominated without ever paying for the other five sixths.
        # The survivors — at late gather levels, nearly everyone — then
        # pay exactly the remaining samples, so the split never costs
        # more than one extra kernel dispatch.  Decisions are the
        # one-shot ones: the phases partition the sample set and each
        # (row, sample) verdict is computed with the same arithmetic.
        all_rows = np.arange(a, dtype=np.int64)
        phase_a = np.arange(0, n_samples, 6, dtype=np.int64)
        phase_b = np.setdiff1d(np.arange(n_samples, dtype=np.int64), phase_a)
        block_a = blocked(all_rows, phase_a)
        survivors = np.nonzero(~block_a)[0]
        dominated = np.zeros(a, dtype=bool)
        if survivors.size:
            dominated[survivors] = ~blocked(survivors, phase_b)
        return dominated

    # ------------------------------------------------------------------
    # Lossy gather: per-node, RNG draw-exact
    # ------------------------------------------------------------------
    def _gather_lossy(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        alive: np.ndarray,
        step: float,
        max_radius: float,
        gamma: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node expanding rings with lazily fetched candidates.

        Dropped replies are retried ring after ring, so the RNG must be
        consumed node by node in the legacy order — the
        ``_expanding_rings`` walk does exactly that; this wrapper feeds
        it candidates from expanding spatial-grid fetches, whose scan
        order is the contract order by construction.
        """
        count = positions.shape[0]
        px = positions[:, 0]
        py = positions[:, 1]
        network = self.network
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        known_parts: List[np.ndarray] = []
        known_counts = np.zeros(alive_rows.shape[0], dtype=np.int64)
        rho_final = np.zeros(alive_rows.shape[0])
        for row, node_index in enumerate(alive_rows.tolist()):
            site = network.nodes[node_index].position

            def fetch(horizon):
                cand = np.asarray(
                    grid.query_radius(site, horizon), dtype=np.int64
                )
                keep = alive[cand] & (cand != node_index)
                ids = cand[keep]
                dx = px[ids] - site[0]
                dy = py[ids] - site[1]
                dist_sq = dx * dx + dy * dy
                hops = np.maximum(
                    1, np.ceil(np.hypot(dx, dy) / gamma - 1e-9)
                ).astype(np.int64)
                return ids, positions[ids], dist_sq, hops

            state = {"horizon": step * 4.0}
            ids, cand_positions, cand_dist_sq, cand_hops = fetch(state["horizon"])
            state["ids"] = ids

            def extend(rho, _state=state):
                if rho <= _state["horizon"]:
                    return None
                _state["horizon"] = max(_state["horizon"] * 2.0, rho)
                new_ids, new_pos, new_dist_sq, new_hops = fetch(_state["horizon"])
                position_of = np.full(count, -1, dtype=np.int64)
                position_of[new_ids] = np.arange(new_ids.shape[0])
                remap = position_of[_state["ids"]]
                _state["ids"] = new_ids
                return new_pos, new_dist_sq, new_hops, remap

            known_order, rho = self._expanding_rings(
                site,
                cand_positions,
                cand_dist_sq,
                cand_hops,
                step,
                max_radius,
                extend,
            )
            delivered = state["ids"][known_order] if known_order else np.zeros(
                0, dtype=np.int64
            )
            known_parts.append(delivered)
            known_counts[row] = delivered.shape[0]
            rho_final[row] = rho
        known_ids = (
            np.concatenate(known_parts) if known_parts else np.zeros(0, dtype=np.int64)
        )
        known_indptr = np.concatenate(([0], np.cumsum(known_counts))).astype(np.int64)
        return known_ids, known_indptr, rho_final

    def _expanding_rings(
        self,
        site: Point,
        cand_positions: np.ndarray,
        cand_dist_sq: np.ndarray,
        cand_hops: np.ndarray,
        step: float,
        max_radius: float,
        extend: Callable[
            [float],
            Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        ],
    ) -> Tuple[List[int], float]:
        """Algorithm 2's information gathering for one node, draw-exact.

        Returns the candidate indices whose replies were delivered, in
        delivery order (ring by ring, scan order within a ring — the
        legacy ``known_positions`` dict insertion order), and the final
        ring radius.

        ``extend`` grows the candidate arrays lazily as the ring
        expands.  It is called with the new ring radius and returns
        either ``None`` (current arrays still cover the ring) or
        ``(positions, dist_sq, hops, remap)`` where ``remap`` maps old
        candidate rows to rows of the new arrays — the new arrays must
        contain the old candidates in scan order so the RNG draw-order
        contract is preserved.
        """
        scheduler = self.scheduler
        sizes = self._exchange_sizes
        known_mask = np.zeros(cand_dist_sq.shape[0], dtype=bool)
        known_order: List[int] = []
        known_dirty = True
        known_positions = cand_positions[:0]
        rho = 0.0
        while True:
            rho += step
            grown = extend(rho)
            if grown is not None:
                cand_positions, cand_dist_sq, cand_hops, remap = grown
                new_mask = np.zeros(cand_dist_sq.shape[0], dtype=bool)
                new_mask[remap[known_mask]] = True
                known_mask = new_mask
                known_order = [int(remap[i]) for i in known_order]
                known_dirty = True
            # The grid's inclusion test: dist_sq <= radius^2 + 1e-15.
            attempts = np.nonzero(
                (cand_dist_sq <= rho * rho + 1e-15) & ~known_mask
            )[0]
            if attempts.size:
                delivered = scheduler.record_many(
                    np.repeat(cand_hops[attempts], 2),
                    np.tile(sizes, attempts.size),
                )
                got = attempts[delivered[1::2]]
                if got.size:
                    known_mask[got] = True
                    known_order.extend(got.tolist())
                    known_dirty = True
            if known_dirty:
                known_positions = cand_positions[known_order]
                known_dirty = False
            if self._circle_dominated(site, rho / 2.0, known_positions):
                break
            if rho >= max_radius:
                break
        return known_order, rho

    def _circle_dominated(
        self, site: Point, radius: float, neighbor_positions: np.ndarray
    ) -> bool:
        """Vectorised Algorithm-2 half-radius check, decision-exact.

        Sample points are ``site + radius * (cos, sin)`` from the
        math-library tables; containment runs through the batched
        free-area kernel (decision-exact against ``region.contains``);
        the closer-than-me counting compares ``np.hypot`` distances
        against ``own_distance - 1e-12`` exactly like the scalar loop
        (rule 2 of the kernels' numerical contract covers the 1-ulp
        hypot latitude — the 1e-12 tolerance dwarfs it).
        """
        sample_x = site[0] + radius * self._circle_cos
        sample_y = site[1] + radius * self._circle_sin
        inside = self._containment.contains(sample_x, sample_y)
        if not inside.any():
            return True
        if neighbor_positions.shape[0] == 0:
            return False
        vx = sample_x[inside]
        vy = sample_y[inside]
        own_distance = np.hypot(site[0] - vx, site[1] - vy)
        closer = (
            np.hypot(
                neighbor_positions[:, 0][None, :] - vx[:, None],
                neighbor_positions[:, 1][None, :] - vy[:, None],
            )
            < (own_distance - 1e-12)[:, None]
        ).sum(axis=1)
        return bool(np.all(closer >= self.config.k))

    # ------------------------------------------------------------------
    # Shared compute phase: cross-node clip + vectorised summary
    # ------------------------------------------------------------------
    def _clip_and_summarize(
        self,
        positions: np.ndarray,
        alive_rows: np.ndarray,
        known_ids: np.ndarray,
        known_indptr: np.ndarray,
        rho_final: np.ndarray,
        area_pieces,
    ) -> DistributedEngineRound:
        network = self.network
        config = self.config
        k = config.k
        n_alive = alive_rows.shape[0]
        px = positions[:, 0]
        py = positions[:, 1]
        sx = px[alive_rows]
        sy = py[alive_rows]
        with _trace.span("clip"):
            owner = segment_ids(np.diff(known_indptr), known_ids.shape[0])
            dx = px[known_ids] - sx[owner]
            dy = py[known_ids] - sy[owner]
            dist_sq = dx * dx + dy * dy
            # The sweep's competitor order: nearest first, stable on ties
            # (base order = delivery order, as in the scalar sweep).
            order = np.lexsort((dist_sq, owner))
            comp_ids = known_ids[order]
            vx, vy, piece_indptr, piece_owner = clip_cells_batch(
                np.column_stack((sx, sy)),
                px[comp_ids],
                py[comp_ids],
                known_indptr,
                area_pieces,
                k,
            )

        # Region polygons (read by the deployer's result()) are
        # materialised lazily on first access.
        known_count = np.diff(known_indptr)

        def build_regions() -> Dict[int, DominatingRegion]:
            pieces_per_row = materialize_pieces(
                vx, vy, piece_indptr, piece_owner, n_alive
            )
            built: Dict[int, DominatingRegion] = {}
            for row in range(n_alive):
                node_id = int(alive_rows[row])
                built[node_id] = DominatingRegion(
                    site=network.nodes[node_id].position,
                    k=k,
                    pieces=pieces_per_row[row],
                    competitors_used=int(known_count[row]),
                    search_radius=float(rho_final[row]),
                )
            return built

        regions: Dict[int, DominatingRegion] = LazyRegions(build_regions)

        # Vectorised summary: Chebyshev centers via mec_batch, ranges
        # and displacements via ragged reductions, move proposals with
        # the agent's exact update grouping.
        with _trace.span("summary"):
            vert_owner = piece_owner[
                segment_ids(np.diff(piece_indptr), vx.shape[0])
            ]
            owner_vert_counts = np.bincount(vert_owner, minlength=n_alive)
            vert_indptr = np.concatenate(
                ([0], np.cumsum(owner_vert_counts))
            ).astype(np.int64)
            cx, cy, radius = mec_batch(vx, vy, vert_indptr)
            empty = owner_vert_counts == 0
            cx = np.where(empty, sx, cx)
            cy = np.where(empty, sy, cy)
            radius = np.where(empty, 0.0, radius)
            ranges = np.zeros(n_alive)
            if vx.size:
                vert_dist = np.hypot(vx - sx[vert_owner], vy - sy[vert_owner])
                group_starts = np.nonzero(
                    np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
                )[0]
                ranges[vert_owner[group_starts]] = np.maximum.reduceat(
                    vert_dist, group_starts
                )
            displacements = np.hypot(sx - cx, sy - cy)
            ids = alive_rows.tolist()
            centers: Dict[int, Tuple[float, float]] = dict(
                zip(ids, zip(cx.tolist(), cy.tolist()))
            )
            alpha = config.alpha
            move_rows = np.nonzero(displacements > config.epsilon)[0]
            # Same expression grouping as the scalar agent update:
            # pos + alpha * (center - pos), evaluated per coordinate.
            tx = sx[move_rows] + alpha * (cx[move_rows] - sx[move_rows])
            ty = sy[move_rows] + alpha * (cy[move_rows] - sy[move_rows])
            proposed: Dict[int, Tuple[float, float]] = dict(
                zip(
                    alive_rows[move_rows].tolist(),
                    zip(tx.tolist(), ty.tolist()),
                )
            )
        return DistributedEngineRound(
            regions=regions,
            centers=centers,
            circumradii=radius.tolist(),
            ranges_from_position=ranges.tolist(),
            displacements=displacements.tolist(),
            proposed_targets=proposed,
        )
