"""The legacy entry points are shims: they warn and delegate to repro.api.

The tier-1 suite runs with ``filterwarnings = error:repro\\.`` (see
pyproject.toml), so any *internal* code path still constructing the old
runners fails loudly; these tests are the only place the shims are
exercised, under ``pytest.warns``.
"""

import numpy as np
import pytest

from repro.api import Simulation, deploy
from repro.core.config import LaacadConfig
from repro.network.network import SensorNetwork
from repro.scenarios import make_scenario


def _net(square, seed=3):
    return SensorNetwork.from_corner_cluster(
        square, 10, comm_range=0.3, rng=np.random.default_rng(seed)
    )


class TestCentralizedShims:
    def test_laacad_runner_warns_and_matches_api(self, square, fast_config):
        from repro.core.laacad import LaacadRunner

        baseline = Simulation(network=_net(square), config=fast_config).run()
        with pytest.warns(DeprecationWarning, match="repro.core.laacad.LaacadRunner"):
            runner = LaacadRunner(_net(square), fast_config)
        shimmed = runner.run()
        assert shimmed.final_positions == baseline.final_positions
        assert shimmed.sensing_ranges == baseline.sensing_ranges
        assert shimmed.history == baseline.history

    def test_runner_exposes_legacy_attributes(self, square, fast_config):
        from repro.core.laacad import LaacadRunner
        from repro.engine import BatchedRoundEngine

        net = _net(square)
        with pytest.warns(DeprecationWarning):
            runner = LaacadRunner(net, fast_config)
        assert runner.network is net
        # The deployer stores the unset engine resolved to a concrete name.
        assert runner.config == fast_config.with_engine("batched")
        assert isinstance(runner.engine, BatchedRoundEngine)

    def test_run_laacad_warns_and_matches_deploy(self, square):
        from repro.core.laacad import run_laacad

        positions = square.random_points(8, rng=np.random.default_rng(1))
        config = LaacadConfig(k=1, max_rounds=15)
        baseline = deploy(square, positions, config)
        with pytest.warns(DeprecationWarning, match="run_laacad is deprecated"):
            shimmed = run_laacad(square, positions, config)
        assert shimmed.final_positions == baseline.final_positions

    def test_laacad_result_is_simulation_result(self):
        from repro.api import SimulationResult
        from repro.core.laacad import LaacadResult

        assert LaacadResult is SimulationResult

    def test_spec_build_runner_goes_through_the_shim(self):
        spec = make_scenario("corner_cluster", node_count=8, k=1, max_rounds=5)
        with pytest.warns(DeprecationWarning, match="LaacadRunner"):
            runner = spec.build_runner()
        assert runner.run().rounds_executed >= 1


class TestDistributedShim:
    def test_runner_warns_and_matches_api(self, square):
        from repro.runtime.protocol import DistributedLaacadRunner

        config = LaacadConfig(k=1, epsilon=3e-3, max_rounds=10)
        baseline = Simulation(
            network=_net(square, seed=5), config=config, kind="distributed"
        ).run()
        with pytest.warns(
            DeprecationWarning, match="DistributedLaacadRunner is deprecated"
        ):
            runner = DistributedLaacadRunner(_net(square, seed=5), config)
        result, stats = runner.run()
        assert result.final_positions == baseline.final_positions
        assert stats.messages == baseline.communication.messages
        assert runner.scheduler is runner._deployer.scheduler
        assert set(runner.agents) == set(range(10))

    def test_spec_build_distributed_runner_goes_through_the_shim(self):
        spec = make_scenario("node_failures", node_count=8, k=1, max_rounds=5)
        with pytest.warns(DeprecationWarning, match="DistributedLaacadRunner"):
            runner = spec.build_distributed_runner()
        result, stats = runner.run()
        assert stats.messages > 0
        assert result.kind == "distributed"
