"""Tests for the v1 API surface: Simulation sessions, deployers, events."""

import numpy as np
import pytest

from repro.api import (
    DEPLOYERS,
    CentralizedDeployer,
    ConvergenceProbe,
    CoverageProbe,
    Deployer,
    DistributedDeployer,
    EnergyProbe,
    RoundEvent,
    Simulation,
    StaticDeployer,
    deploy,
)
from repro.core.config import LaacadConfig
from repro.network.network import SensorNetwork
from repro.runtime.failures import FailureInjector
from repro.scenarios import make_scenario


def _network(square, n=12, seed=3, comm_range=0.3):
    return SensorNetwork.from_corner_cluster(
        square, n, comm_range=comm_range, rng=np.random.default_rng(seed)
    )


class TestConstruction:
    def test_from_network_and_config(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        assert isinstance(sim.deployer, CentralizedDeployer)
        # The deployer stores the unset engine resolved to a concrete name.
        assert sim.config == fast_config.with_engine("batched")

    def test_from_spec_selects_deployer_by_pipeline(self):
        assert isinstance(
            Simulation.from_spec(make_scenario("open_field", node_count=8)).deployer,
            CentralizedDeployer,
        )
        assert isinstance(
            Simulation.from_spec(
                make_scenario("node_failures", node_count=8, k=2)
            ).deployer,
            DistributedDeployer,
        )
        assert isinstance(
            Simulation.from_spec(
                make_scenario("static_blueprint", node_count=6, k=1)
            ).deployer,
            StaticDeployer,
        )

    def test_from_kwargs_builds_a_scenario(self):
        sim = Simulation(node_count=8, k=1, max_rounds=5, seed=4)
        assert sim.spec is not None
        assert sim.spec.node_count == 8
        result = sim.run()
        assert result.rounds_executed >= 1

    def test_kwargs_form_routes_shared_keywords_into_the_spec(self):
        sim = Simulation(node_count=8, k=1, comm_range=0.1, max_rounds=4)
        assert sim.spec.comm_range == 0.1
        assert sim.network.comm_range == 0.1
        dist = Simulation(
            node_count=8, k=1, kind="distributed", drop_probability=0.5, max_rounds=4
        )
        assert dist.spec.drop_probability == 0.5
        assert dist.deployer.scheduler.drop_probability == 0.5
        slow = Simulation(
            node_count=8, k=1, max_rounds=4, mobility={"max_step": 0.05}
        )
        assert slow.deployer.mobility.max_step == 0.05

    def test_conflicting_keywords_rejected_loudly(self, square, fast_config):
        net = _network(square)
        with pytest.raises(TypeError, match="comm_range"):
            Simulation(network=net, config=fast_config, comm_range=0.1)
        with pytest.raises(TypeError, match="unexpected keyword"):
            Simulation(network=net, config=fast_config, node_count=9)
        with pytest.raises(TypeError, match="unexpected keyword"):
            Simulation(make_scenario("open_field", node_count=8), node_count=9)
        with pytest.raises(TypeError, match="failure_injector"):
            Simulation(node_count=8, k=1, failure_injector=FailureInjector())

    def test_from_region_and_positions(self, square):
        result = Simulation(
            region=square,
            positions=[(0.2, 0.2), (0.8, 0.8)],
            config=LaacadConfig(k=1, max_rounds=5),
        ).run()
        assert len(result.final_positions) == 2

    def test_non_deployment_pipeline_rejected(self):
        with pytest.raises(ValueError, match="not a deployment"):
            Simulation.from_spec(make_scenario("voronoi_partition", node_count=8))

    def test_unknown_kind_rejected(self, square, fast_config):
        with pytest.raises(ValueError, match="unknown deployer kind"):
            Simulation(network=_network(square), config=fast_config, kind="teleport")

    def test_insufficient_nodes_rejected(self, square):
        net = SensorNetwork(square, [(0.5, 0.5)], comm_range=0.3)
        with pytest.raises(ValueError):
            Simulation(network=net, config=LaacadConfig(k=2))

    def test_deployer_registry(self):
        assert set(DEPLOYERS) == {"laacad", "distributed", "static"}
        for cls in DEPLOYERS.values():
            assert issubclass(cls, Deployer)


class TestStepping:
    def test_stepping_equals_monolithic_run(self, square, fast_config):
        monolithic = Simulation(network=_network(square), config=fast_config).run()
        sim = Simulation(network=_network(square), config=fast_config)
        events = []
        while not sim.done:
            events.append(sim.step())
        stepped = sim.result()
        assert stepped.final_positions == monolithic.final_positions
        assert stepped.sensing_ranges == monolithic.sensing_ranges
        assert stepped.history == monolithic.history
        assert len(events) == stepped.rounds_executed
        assert all(isinstance(e, RoundEvent) for e in events)
        assert [e.round_index for e in events] == list(range(len(events)))
        assert events[-1].converged == stepped.converged

    def test_run_until_then_continue_is_identical(self, square, fast_config):
        uninterrupted = Simulation(network=_network(square), config=fast_config).run()
        sim = Simulation(network=_network(square), config=fast_config)
        partial = sim.run(until=4)
        assert partial.rounds_executed == 4
        resumed = sim.run()
        assert resumed.final_positions == uninterrupted.final_positions
        assert resumed.sensing_ranges == uninterrupted.sensing_ranges
        assert resumed.history == uninterrupted.history

    def test_distributed_run_until_then_continue_is_identical(self, square):
        config = LaacadConfig(k=1, epsilon=3e-3, max_rounds=15)

        def session():
            return Simulation(
                network=SensorNetwork.from_random(
                    square, 9, comm_range=0.4, rng=np.random.default_rng(6)
                ),
                config=config,
                kind="distributed",
                drop_probability=0.05,
            )

        uninterrupted = session().run()
        sim = session()
        sim.run(until=4)  # mid-run finalize must not perturb the RNG stream
        resumed = sim.run()
        assert resumed.final_positions == uninterrupted.final_positions
        assert resumed.sensing_ranges == uninterrupted.sensing_ranges
        assert resumed.communication == uninterrupted.communication
        assert resumed.history == uninterrupted.history

    def test_step_after_done_raises(self, square):
        sim = Simulation(
            network=_network(square, n=6),
            config=LaacadConfig(k=1, max_rounds=2),
        )
        sim.run()
        with pytest.raises(RuntimeError, match="complete"):
            sim.step()

    def test_events_iterator_stops_at_until(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        seen = [e.round_index for e in sim.events(until=3)]
        assert seen == [0, 1, 2]
        assert not sim.done

    def test_state_progression(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        state0 = sim.state
        assert state0.rounds_executed == 0 and not state0.done
        sim.step()
        state1 = sim.state
        assert state1.rounds_executed == 1
        assert state1.kind == "laacad"
        assert len(state1.positions) == len(sim.network.nodes)

    def test_expose_regions(self, square):
        sim = Simulation(
            network=_network(square, n=6),
            config=LaacadConfig(k=1, max_rounds=2),
            expose_regions=True,
        )
        event = sim.step()
        assert event.regions is not None and len(event.regions) == 6

    def test_mutates_network_in_place(self, square, fast_config):
        net = _network(square)
        initial = list(net.positions())
        result = Simulation(network=net, config=fast_config).run()
        assert net.positions() == result.final_positions
        assert net.positions() != initial
        assert net.sensing_ranges() == result.sensing_ranges


class TestObservers:
    def test_observers_receive_every_round(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        seen = []
        sim.add_observer(lambda e: seen.append(e.round_index))
        result = sim.run()
        assert seen == list(range(result.rounds_executed))

    def test_remove_observer(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        seen = []
        observer = sim.add_observer(lambda e: seen.append(e))
        sim.step()
        sim.remove_observer(observer)
        sim.step()
        assert len(seen) == 1

    def test_convergence_probe(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        probe = ConvergenceProbe()
        sim.add_observer(probe)
        result = sim.run()
        assert probe.rounds == result.rounds_executed
        assert probe.max_circumradii == result.max_circumradius_trace()
        if result.converged:
            assert probe.converged_at == result.rounds_executed - 1

    def test_energy_probe_sampling(self, square, fast_config):
        sim = Simulation(network=_network(square), config=fast_config)
        probe = EnergyProbe(every=3)
        sim.add_observer(probe)
        sim.run()
        assert probe.rounds
        assert all(r % 3 == 0 for r in probe.rounds[:-1])
        assert all(load > 0 for load in probe.max_loads)

    def test_raising_observer_is_logged_and_detached(self, square, fast_config, caplog):
        # An observer that raises must not corrupt the session or kill
        # the event stream: the round's effects stand, the bad observer
        # is detached, and the healthy observers keep receiving events.
        import logging

        sim = Simulation(network=_network(square), config=fast_config)
        healthy = []
        calls = []

        def bad(event):
            calls.append(event.round_index)
            raise RuntimeError("observer bug")

        sim.add_observer(bad)
        sim.add_observer(lambda e: healthy.append(e.round_index))
        with caplog.at_level(logging.ERROR, logger="repro.api.session"):
            event = sim.step()
        assert event.round_index == 0
        assert calls == [0]
        assert any("detaching" in rec.message for rec in caplog.records)
        assert bad not in sim._observers

        sim.step()
        assert calls == [0], "detached observer must not be called again"
        assert healthy == [0, 1], "healthy observers keep the stream"
        assert sim.state.rounds_executed == 2

    def test_raising_observer_matches_clean_run(self, square, fast_config):
        clean = Simulation(network=_network(square), config=fast_config).run()

        sim = Simulation(network=_network(square), config=fast_config)

        def bad(event):
            raise ValueError("boom")

        sim.add_observer(bad)
        result = sim.run()
        assert result.final_positions == clean.final_positions
        assert result.history == clean.history

    def test_idle_since_advances_on_step_and_touch(self, square, fast_config):
        import time

        sim = Simulation(network=_network(square), config=fast_config)
        created = sim.idle_since
        assert created <= time.monotonic()
        sim.step()
        after_step = sim.idle_since
        assert after_step >= created
        sim.touch()
        assert sim.idle_since >= after_step

    def test_checkpoint_nbytes_matches_serialized_size(self, square, fast_config):
        import json

        sim = Simulation(network=_network(square), config=fast_config)
        sim.step()
        ckpt = sim.checkpoint()
        assert ckpt.nbytes == len(json.dumps(ckpt.payload).encode("utf-8"))

    def test_checkpoint_nbytes_matches_saved_file(self, square, fast_config, tmp_path):
        sim = Simulation(network=_network(square), config=fast_config)
        sim.step()
        ckpt = sim.checkpoint()
        path = ckpt.save(tmp_path / "s.ckpt.json")
        assert ckpt.nbytes == path.stat().st_size

    def test_coverage_probe(self, square):
        sim = Simulation(
            network=_network(square, n=10),
            config=LaacadConfig(k=1, epsilon=2e-3, max_rounds=30),
        )
        probe = CoverageProbe(square, k=1, resolution=25, every=10)
        sim.add_observer(probe)
        sim.run()
        assert probe.fractions
        # Coverage of the final (converged) deployment must be complete.
        assert probe.fractions[-1] == pytest.approx(1.0, abs=1e-9)


class TestStaticSession:
    def test_static_matches_pipeline_contract(self):
        spec = make_scenario("static_blueprint", node_count=6, k=1)
        result = Simulation.from_spec(spec).run()
        assert result.kind == "static"
        assert result.converged and result.rounds_executed == 0
        assert result.history == []
        assert result.initial_positions == result.final_positions
        assert all(r > 0 for r in result.sensing_ranges)

    def test_static_single_step_completes(self):
        spec = make_scenario("static_blueprint", node_count=5, k=1)
        sim = Simulation.from_spec(spec)
        event = sim.step()
        assert event.done and sim.done


class TestDeployFunction:
    def test_deploy_matches_session(self, square):
        positions = square.random_points(8, rng=np.random.default_rng(1))
        config = LaacadConfig(k=1, max_rounds=20)
        a = deploy(square, positions, config)
        b = Simulation(
            region=square, positions=positions, config=config, comm_range=0.25
        ).run()
        assert a.final_positions == b.final_positions
        assert a.initial_positions == positions


class TestDistributedSession:
    def test_failures_and_communication_reported(self, square):
        net = SensorNetwork.from_random(
            square, 12, comm_range=0.4, rng=np.random.default_rng(3)
        )
        result = Simulation(
            network=net,
            config=LaacadConfig(k=1, epsilon=2e-3, max_rounds=20),
            kind="distributed",
            failure_injector=FailureInjector(scheduled={3: [0, 1]}),
        ).run()
        assert result.kind == "distributed"
        assert result.killed_nodes == [0, 1]
        assert result.communication.messages > 0
        assert result.sensing_ranges[0] == 0.0 and result.sensing_ranges[1] == 0.0
