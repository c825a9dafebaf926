"""Distributed protocol backends: agreement with Algorithm 1 and selection.

Loss-free distributed runs are checked against the *centralized*
driver's trajectory — the paper's claim that with a reliable channel
the protocol executes Algorithm 1 exactly — on both backends.  The
sparse backend's tolerance contract against the legacy agents (loss
rates, seeds, failure schedules, obstacle regions) is enforced by
``tests/test_engine_sparse_equivalence.py``.

The selection tests pin the registry (``legacy`` and ``sparse``) and
the rejection of the centralized-only ``batched`` name on every way a
distributed run can be requested.
"""

import json

import numpy as np
import pytest

from repro.api import Simulation, deploy
from repro.core.config import LaacadConfig
from repro.experiments.ablations import run_protocol_overhead
from repro.experiments.common import ENGINE_ENV
from repro.geometry.primitives import distance
from repro.network.network import SensorNetwork
from repro.regions.shapes import unit_square
from repro.runtime.engines import (
    DistributedRoundEngine,
    LegacyDistributedEngine,
    available_distributed_engines,
    make_distributed_engine,
)
from repro.runtime.scheduler import SynchronousScheduler
from repro.runtime.sparse import SparseDistributedEngine
from repro.scenarios import ScenarioSpec


class TestCentralizedAgreement:
    """Loss-free distributed == centralized trajectory (both backends)."""

    @pytest.mark.parametrize("engine", ["legacy", "sparse"])
    def test_matches_centralized_driver(self, engine):
        region = unit_square()
        positions = region.random_points(14, rng=np.random.default_rng(8))
        config = LaacadConfig(k=2, alpha=1.0, epsilon=2e-3, max_rounds=30)

        central = deploy(region, positions, config, comm_range=0.35)

        network = SensorNetwork(region, positions, comm_range=0.35)
        distributed = Simulation(
            network=network,
            config=config.with_engine(engine),
            kind="distributed",
        ).run()

        assert distributed.rounds_executed == central.rounds_executed
        assert distributed.max_sensing_range == pytest.approx(
            central.max_sensing_range, rel=1e-6
        )
        for a, b in zip(central.final_positions, distributed.final_positions):
            assert distance(a, b) < 1e-6


class TestEngineSelection:
    def test_registry_lists_builtins(self):
        assert available_distributed_engines() == ["legacy", "sparse"]
        assert SparseDistributedEngine.__mro__[1] is DistributedRoundEngine

    def test_unknown_engine_rejected(self, square):
        network = SensorNetwork(square, [(0.5, 0.5)], comm_range=0.3)
        scheduler = SynchronousScheduler()
        with pytest.raises(ValueError, match="unknown distributed round engine"):
            make_distributed_engine("warp-drive", network, LaacadConfig(), scheduler)

    def test_deployer_uses_configured_engine(self, square):
        def _sim(engine):
            network = SensorNetwork(
                square, [(0.2, 0.2), (0.8, 0.8)], comm_range=0.4
            )
            return Simulation(
                network=network,
                config=LaacadConfig(k=1, engine=engine),
                kind="distributed",
            )

        assert isinstance(_sim("legacy").deployer.protocol, LegacyDistributedEngine)
        assert isinstance(_sim("sparse").deployer.protocol, SparseDistributedEngine)

    def test_batched_rejected_on_distributed_pipeline(self, square, monkeypatch):
        # The dense distributed backend is gone; its name must fail on
        # every route into a distributed run — never be remapped — and
        # the error must point at the two remaining backends.
        message = r"centralized-only.*'legacy'.*'sparse'"

        def network():
            return SensorNetwork.from_corner_cluster(
                square, 8, comm_range=0.3, rng=np.random.default_rng(3)
            )

        batched = LaacadConfig(k=1, max_rounds=4, engine="batched")
        with pytest.raises(ValueError, match=message):
            Simulation(network=network(), config=batched, kind="distributed")

        spec = ScenarioSpec(
            pipeline="distributed", node_count=8, max_rounds=3, engine="batched"
        )
        with pytest.raises(ValueError, match=message):
            spec.run()
        with pytest.raises(ValueError, match=message):
            spec.digest()

        monkeypatch.setenv(ENGINE_ENV, "batched")
        with pytest.raises(ValueError, match=message):
            run_protocol_overhead(node_count=8, max_rounds=3)
        monkeypatch.delenv(ENGINE_ENV)

        # A checkpoint written by the removed backend cannot resume.
        sim = Simulation(
            network=network(), config=batched.with_engine("legacy"), kind="distributed"
        )
        sim.run(until=2)
        payload = json.loads(json.dumps(sim.checkpoint().to_dict()))
        payload["config"]["engine"] = "batched"
        with pytest.raises(ValueError, match=message):
            Simulation.restore(payload)

        # The centralized dense engine is untouched.
        result = Simulation(network=network(), config=batched).run()
        assert result.config.engine == "batched"
        assert result.rounds_executed >= 1
