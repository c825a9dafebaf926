"""Pin the public surface: every ``__all__`` change must be deliberate.

Each package's ``__all__`` is compared against a literal set, so adding
or removing a public name fails here until the pin is updated next to
the change that made it.  The removed pre-v1 runner shims and the dense
distributed backend are asserted absent outright.
"""

import importlib

import pytest

PINNED = {
    "repro": {
        "BatchedRoundEngine",
        "Deployer",
        "DominatingRegion",
        "EnergyModel",
        "KOrderVoronoiDiagram",
        "LaacadConfig",
        "LegacyRoundEngine",
        "MinNodeSizer",
        "NodeArrayState",
        "Region",
        "RoundEngine",
        "RoundEvent",
        "RoundStats",
        "ScenarioFamily",
        "ScenarioSpec",
        "SensorNetwork",
        "SessionState",
        "Simulation",
        "SimulationCheckpoint",
        "SimulationResult",
        "SweepRunner",
        "__version__",
        "available_engines",
        "available_families",
        "compute_dominating_region",
        "cross_region",
        "deploy",
        "evaluate_coverage",
        "expand_grid",
        "is_k_covered",
        "l_shaped_region",
        "localized_dominating_region",
        "make_engine",
        "make_scenario",
        "rectangle_region",
        "register_family",
        "run_scenarios",
        "square_region",
        "unit_square",
    },
    "repro.api": {
        "CHECKPOINT_DIR_ENV",
        "CHECKPOINT_EVERY_ENV",
        "CHECKPOINT_VERSION",
        "CentralizedDeployer",
        "CommunicationSummary",
        "ConvergenceProbe",
        "CoverageProbe",
        "DEPLOYERS",
        "Deployer",
        "DistributedDeployer",
        "DistributedRoundStats",
        "EnergyProbe",
        "RESULT_FORMAT_VERSION",
        "RoundEvent",
        "RoundStats",
        "SessionState",
        "Simulation",
        "SimulationCheckpoint",
        "SimulationResult",
        "StaticDeployer",
        "checkpoint_path_for",
        "deploy",
        "resolve_checkpoint_dir",
        "resolve_checkpoint_every",
    },
    "repro.core": {
        "ConvergenceTracker",
        "LaacadConfig",
        "LocalizedComputation",
        "MinNodeResult",
        "MinNodeSizer",
        "RoundStats",
        "localized_dominating_region",
    },
    "repro.runtime": {
        "CommunicationStats",
        "DistributedEngineRound",
        "DistributedRoundEngine",
        "DistributedRoundStats",
        "FailureInjector",
        "LegacyDistributedEngine",
        "Message",
        "MessageKind",
        "NodeAgent",
        "SparseDistributedEngine",
        "SynchronousScheduler",
        "available_distributed_engines",
        "make_distributed_engine",
        "register_distributed_engine",
    },
    "repro.engine": {
        "BatchedRoundEngine",
        "EngineRound",
        "LegacyRoundEngine",
        "NodeArrayState",
        "RoundEngine",
        "SparseRoundEngine",
        "available_engines",
        "make_engine",
        "register_engine",
        "summarize_regions",
    },
}

#: Names deliberately removed from the public surface.
REMOVED = {
    "BatchedDistributedEngine",
    "DistributedLaacadRunner",
    "LaacadResult",
    "LaacadRunner",
    "run_laacad",
}


@pytest.fixture(params=sorted(PINNED))
def package(request):
    return importlib.import_module(request.param)


def test_every_name_resolves(package):
    for name in package.__all__:
        assert hasattr(package, name), f"{package.__name__}.{name}"


def test_no_duplicates(package):
    assert len(package.__all__) == len(set(package.__all__))


def test_all_matches_pin(package):
    assert set(package.__all__) == PINNED[package.__name__]


def test_removed_names_are_gone(package):
    assert not REMOVED & set(package.__all__)
    for name in REMOVED:
        assert not hasattr(package, name), f"{package.__name__}.{name}"


def test_removed_modules_and_members_are_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.laacad")
    from repro.api.deployers import DistributedDeployer
    from repro.core.config import LaacadConfig
    from repro.engine import kernels
    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square
    from repro.runtime import engines, protocol
    from repro.runtime.scheduler import SynchronousScheduler
    from repro.scenarios.spec import ScenarioSpec

    assert not hasattr(engines, "BatchedDistributedEngine")
    network = SensorNetwork(unit_square(), [(0.2, 0.2), (0.8, 0.8)], comm_range=0.4)
    for name in engines.available_distributed_engines():
        engine = engines.make_distributed_engine(
            name, network, LaacadConfig(k=1, engine=name), SynchronousScheduler()
        )
        engine.run_round(0)
        assert not hasattr(engine, "last_round"), name
    assert not hasattr(protocol, "DistributedLaacadRunner")
    assert not hasattr(kernels, "pairwise_distance_and_sq")
    assert not hasattr(DistributedDeployer, "agents")
    assert not hasattr(ScenarioSpec, "build_runner")
    assert not hasattr(ScenarioSpec, "build_distributed_runner")
