"""The sparse (grid-bucketed) round engine: no N×N anything.

The batched engine's one remaining scalability wall is the dense
pairwise distance matrix (O(N²) time *and* memory) plus its per-node
Python sweep loop.  The LAACAD protocol is strictly local — Lemma 1
bounds every node's relevant competitors to an expanding disk — so this
engine replaces both:

* candidate competitors come from :class:`~repro.network.neighbors
  .SpatialGrid` bucket queries (:meth:`query_radius_many`, CSR output),
  never from a dense matrix; the first query doubles as the
  ``k``-th-nearest pre-pass (the same sorted candidate panel yields
  both the Lemma-1 start radius and the first competitor sets, so no
  separate expanding-radius kth sweep runs);
* the Lemma-1 expanding-radius loop runs *level-synchronously*: all
  nodes still searching at radius ``rho`` are re-clipped together by
  one :func:`~repro.engine.sparse_kernels.clip_cells_batch` call, and
  nodes whose region fits inside the half-radius disk retire from the
  loop;
* finished pieces are emitted straight into flat CSR arrays
  (:class:`~repro.engine.pieces.PieceAccumulator`) and the Python
  polygon lists are materialised **lazily, once** on first region read
  (:class:`~repro.engine.pieces.LazyRegions`) — there is no per-node
  Python bookkeeping anywhere in the loop;
* the per-round summary (Chebyshev centers, circumradii, displacements)
  is computed by :func:`~repro.engine.sparse_kernels.mec_batch` over
  flat vertex arrays instead of one scalar Welzl call per node.

Each stage (query / candidates / kth / clip / finish / emit / summary)
runs inside a :func:`repro.obs.trace.span` of that name — the one stage
clock, read by traces and by ``benchmarks/export_bench.py --profile``.

Numerical contract: **tolerance, not bitwise** (see DESIGN.md "Sparse
engine tier").  Results agree with the batched engine to well within
1e-9 on positions, ranges and areas, and the convergence behaviour
(round counts) is identical on the reference scenarios, but individual
floats may differ in the last bits because clipping is fused across
nodes and centers come from a different (equally minimal) enclosing
circle search.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.arrays import NodeArrayState
from repro.engine.base import EngineRound, register_engine, summarize_regions
from repro.engine.batch import BatchedRoundEngine
from repro.engine.jit_kernels import ragged_indices, segment_ids
from repro.engine.kernels import chunk_budget_bytes
from repro.engine.pieces import LazyRegions, PieceAccumulator, materialize_pieces
from repro.engine.sparse_kernels import clip_cells_batch, mec_batch
from repro.geometry.primitives import EPS
from repro.network.neighbors import SpatialGrid
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.voronoi.dominating import DominatingRegion

#: Candidate volume actually fetched from the spatial grid, summed per
#: query wave — the series that shows when a workload's density pushes
#: the expanding-radius search toward quadratic candidate counts.
_GRID_CANDIDATES = _metrics.counter(
    "repro_grid_candidates_total",
    "Candidate neighbors returned by spatial-grid radius queries",
)

#: Flat per-node region geometry stashed between ``compute_regions`` and
#: ``compute_round``: (vert_x, vert_y, per-node indptr, alive ids).
_FlatRegions = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@register_engine
class SparseRoundEngine(BatchedRoundEngine):
    """Grid-bucketed, level-synchronous round computation."""

    name = "sparse"

    def __init__(self, network, config) -> None:
        super().__init__(network, config)
        self._flat_regions: Optional[_FlatRegions] = None

    # ------------------------------------------------------------------
    def compute_regions(self) -> Tuple[Dict[int, DominatingRegion], int]:
        self._flat_regions = None
        if self.config.use_localized:
            return self._compute_regions_localized()
        return self._compute_regions_sparse()

    def compute_round(self) -> EngineRound:
        regions, max_hops = self.compute_regions()
        if self._flat_regions is None:
            return summarize_regions(self.network, regions, max_hops)
        return self._summarize_vectorized(regions, max_hops)

    # ------------------------------------------------------------------
    # Region computation
    # ------------------------------------------------------------------
    def _compute_regions_sparse(self) -> Tuple[Dict[int, DominatingRegion], int]:
        network = self.network
        config = self.config
        k = config.k
        area = network.region
        area_pieces = area.convex_pieces()
        diameter = area.diameter

        state = NodeArrayState.from_network(network)
        alive_ids = state.alive_node_ids()
        positions = state.alive_positions()
        count = positions.shape[0]
        if count == 0:
            self._flat_regions = (
                np.zeros(0),
                np.zeros(0),
                np.zeros(1, dtype=np.int64),
                alive_ids,
            )
            return {}, 0

        if count == 1 or not config.prefilter:
            return self._compute_regions_exhaustive(
                alive_ids, positions, area_pieces, k
            )

        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        # Cell size ~ mean node spacing: radius-r queries then scan
        # O((r/cell)^2) buckets of O(1) points each.
        cell = max(diameter / max(math.sqrt(count), 1.0), 1e-9)
        grid = SpatialGrid(positions, cell_size=cell)
        need = min(k, count - 1)
        # The scalar schedule (initial_prefilter_radius, then doubling)
        # floors the start radius at 5% of the diameter — a constant
        # radius that at high density sweeps in O(N) competitors per
        # node and turns the whole pass quadratic.  Cap the floor at a
        # few grid cells (~ mean spacing) so the start population stays
        # O(1) at every N; a start that proves too small only costs
        # doubling iterations, never changes the Lemma-1 fixed point.
        floor = max(min(diameter * 0.05, 4.0 * cell), EPS * 10)
        max_needed = diameter * 2.0 + 1.0

        emit = PieceAccumulator()
        used = np.zeros(count, dtype=np.int64)
        search_radius = np.zeros(count)
        # Per-node search radius: starts at the floor and is raised to
        # ``max(2 * kth-nearest, floor)`` as soon as a query disk holds
        # enough candidates to read the kth-nearest distance off the
        # sorted panel — the first query serves as the kth pre-pass.
        rho = np.full(count, floor)
        kth_known = np.zeros(count, dtype=bool)
        pending = np.arange(count, dtype=np.int64)
        while pending.size:
            qrad = rho[pending].copy()
            with _trace.span("query"):
                cand, cand_indptr = grid.query_radius_many(
                    positions[pending], qrad
                )
            with _trace.span("candidates"):
                counts_all = np.diff(cand_indptr)
                total_cand = cand.shape[0]
                _GRID_CANDIDATES.inc(total_cand)
                owners = segment_ids(counts_all, total_cand)
                sub_px = px[pending]
                sub_py = py[pending]
                dx = px[cand] - sub_px[owners]
                dy = py[cand] - sub_py[owners]
                dist = np.hypot(dx, dy)
                dist_sq = dx * dx + dy * dy
                # Nearest-first within each owner, stable on ties (the
                # sweep's competitor order).  ``owners`` is already
                # ascending, so it is its own sorted image.
                order = np.lexsort((dist_sq, owners))
                cand = cand[order]
                dist = dist[order]

            unknown = ~kth_known[pending]
            if unknown.any():
                with _trace.span("kth"):
                    rows_u = np.nonzero(unknown)[0]
                    enough = counts_all[rows_u] >= need + 1
                    rows_e = rows_u[enough]
                    if rows_e.size:
                        # The disk holds >= need+1 points (self incl.),
                        # so the need+1 globally nearest are all inside
                        # it and the kth distance reads straight off
                        # the sorted panel.
                        kth = dist[cand_indptr[rows_e] + need]
                        rho[pending[rows_e]] = np.maximum(2.0 * kth, floor)
                        kth_known[pending[rows_e]] = True
                    rho[pending[rows_u[~enough]]] *= 2.0

            # A node can clip this iteration iff its kth-derived rho is
            # known and covered by the radius actually queried; other
            # nodes requery at their grown rho next iteration.
            clippable = kth_known[pending] & (rho[pending] <= qrad)
            act = np.nonzero(clippable)[0]
            if act.size == 0:
                continue
            act_nodes = pending[act]
            rho_act = rho[act_nodes]

            with _trace.span("candidates"):
                if act.size == pending.size:
                    sel_cand = cand
                    sel_dist = dist
                    sel_owner = owners
                else:
                    gidx = ragged_indices(cand_indptr[act], counts_all[act])
                    sel_cand = cand[gidx]
                    sel_dist = dist[gidx]
                    sel_owner = segment_ids(counts_all[act], gidx.shape[0])
                # The pre-filter is *strict* (`dist < rho`, self
                # excluded) — the grid's inclusive boundary slack is
                # filtered out here so the competitor sets match the
                # batched engine's ``select_competitors`` exactly.
                keep = (sel_dist < rho_act[sel_owner]) & (
                    sel_cand != act_nodes[sel_owner]
                )
                comp = sel_cand[keep]
                comp_counts = np.bincount(sel_owner[keep], minlength=act.size)
                comp_indptr = np.concatenate(
                    ([0], np.cumsum(comp_counts))
                ).astype(np.int64)
            with _trace.span("clip"):
                vx, vy, piece_indptr, piece_owner = clip_cells_batch(
                    positions[act_nodes], px[comp], py[comp], comp_indptr,
                    area_pieces, k,
                )

            with _trace.span("finish"):
                vert_counts = np.diff(piece_indptr)
                total_verts = vx.shape[0]
                site_rad = np.zeros(act.size)
                if total_verts:
                    vert_owner = piece_owner[
                        segment_ids(vert_counts, total_verts)
                    ]
                    dist_v = np.hypot(
                        vx - px[act_nodes][vert_owner],
                        vy - py[act_nodes][vert_owner],
                    )
                    group_start = np.nonzero(
                        np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
                    )[0]
                    site_rad[vert_owner[group_start]] = np.maximum.reduceat(
                        dist_v, group_start
                    )
                # Lemma-1 termination: the region fits in the rho/2
                # disk, so no competitor beyond rho can clip it.
                finished = (site_rad <= rho_act / 2.0 + EPS) | (
                    rho_act >= max_needed
                )
                fin_rows = np.nonzero(finished)[0]
                if fin_rows.size:
                    fin_piece = finished[piece_owner]
                    emit.extend_csr(
                        vx, vy, piece_indptr, act_nodes[piece_owner],
                        rows=None if fin_piece.all() else np.nonzero(fin_piece)[0],
                    )
                    used[act_nodes[fin_rows]] = comp_counts[fin_rows]
                    search_radius[act_nodes[fin_rows]] = rho_act[fin_rows]
                rho[act_nodes[~finished]] *= 2.0
                drop = np.zeros(pending.size, dtype=bool)
                drop[act[finished]] = True
                pending = pending[~drop]

        with _trace.span("emit"):
            evx, evy, piece_indptr, piece_owner, vert_indptr = emit.finalize(
                count
            )
            self._flat_regions = (evx, evy, vert_indptr, alive_ids)
        return (
            self._lazy_regions(
                evx, evy, piece_indptr, piece_owner, alive_ids, px, py, k,
                used, search_radius,
            ),
            0,
        )

    def _lazy_regions(
        self, vx, vy, piece_indptr, piece_owner, alive_ids, px, py, k,
        used, search_radius,
    ) -> Dict[int, DominatingRegion]:
        """Regions dict whose Python polygons build on first read."""
        count = alive_ids.shape[0]

        def build() -> Dict[int, DominatingRegion]:
            pieces_per_row = materialize_pieces(
                vx, vy, piece_indptr, piece_owner, count
            )
            built: Dict[int, DominatingRegion] = {}
            for row in range(count):
                built[int(alive_ids[row])] = DominatingRegion(
                    site=(float(px[row]), float(py[row])),
                    k=k,
                    pieces=pieces_per_row[row],
                    competitors_used=int(used[row]),
                    search_radius=float(search_radius[row]),
                )
            return built

        return LazyRegions(build)

    # ------------------------------------------------------------------
    def _compute_regions_exhaustive(
        self, alive_ids, positions, area_pieces, k
    ) -> Tuple[Dict[int, DominatingRegion], int]:
        """``prefilter=False`` path: every competitor, chunked by rows.

        Still avoids one big N×N allocation: candidate rows are
        processed in blocks sized by :func:`chunk_budget_bytes`, each
        block building only a (block, N) distance panel.
        """
        count = positions.shape[0]
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        emit = PieceAccumulator()
        # ~6 transient float64 panels of width N per block row.
        block_rows = max(1, int(chunk_budget_bytes() // max(count * 8 * 6, 1)))
        for start in range(0, count, block_rows):
            stop = min(start + block_rows, count)
            rows = np.arange(start, stop, dtype=np.int64)
            dx = px[None, :] - px[rows, None]
            dy = py[None, :] - py[rows, None]
            dist_sq = dx * dx + dy * dy
            dist_sq[np.arange(rows.size), rows] = np.inf
            order = np.argsort(dist_sq, axis=1, kind="stable")[:, : max(count - 1, 0)]
            flat = order.ravel()
            comp_indptr = (
                np.arange(rows.size + 1, dtype=np.int64) * max(count - 1, 0)
            )
            vx, vy, piece_indptr, piece_owner = clip_cells_batch(
                positions[rows], px[flat], py[flat], comp_indptr, area_pieces, k
            )
            emit.extend_csr(vx, vy, piece_indptr, rows[piece_owner])
        evx, evy, piece_indptr, piece_owner, vert_indptr = emit.finalize(count)
        self._flat_regions = (evx, evy, vert_indptr, alive_ids)
        used = np.full(count, count - 1, dtype=np.int64)
        search_radius = np.full(count, math.inf)
        return (
            self._lazy_regions(
                evx, evy, piece_indptr, piece_owner, alive_ids, px, py, k,
                used, search_radius,
            ),
            0,
        )

    # ------------------------------------------------------------------
    # Vectorized per-round summary
    # ------------------------------------------------------------------
    def _summarize_vectorized(self, regions, max_hops) -> EngineRound:
        with _trace.span("summary"):
            flat_x, flat_y, indptr, alive_ids = self._flat_regions
            self._flat_regions = None
            network = self.network
            count = alive_ids.shape[0]
            pos = np.asarray(
                [network.node(int(i)).position for i in alive_ids], dtype=float
            ).reshape(count, 2)
            cx, cy, radius = mec_batch(flat_x, flat_y, indptr)
            counts = np.diff(indptr)
            empty = counts == 0
            # Empty region: the update is a no-op anchored at the site.
            cx = np.where(empty, pos[:, 0] if count else cx, cx)
            cy = np.where(empty, pos[:, 1] if count else cy, cy)
            radius = np.where(empty, 0.0, radius)
            ranges = np.zeros(count)
            if flat_x.size:
                vert_owner = segment_ids(counts, flat_x.shape[0])
                dist_v = np.hypot(
                    flat_x - pos[vert_owner, 0], flat_y - pos[vert_owner, 1]
                )
                group_start = np.nonzero(
                    np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
                )[0]
                ranges[vert_owner[group_start]] = np.maximum.reduceat(
                    dist_v, group_start
                )
            displacements = np.hypot(pos[:, 0] - cx, pos[:, 1] - cy)
            centers = {
                int(alive_ids[row]): (float(cx[row]), float(cy[row]))
                for row in range(count)
            }
        return EngineRound(
            regions=regions,
            centers=centers,
            circumradii=radius.tolist(),
            ranges_from_position=ranges.tolist(),
            displacements=displacements.tolist(),
            max_ring_hops=max_hops,
        )
