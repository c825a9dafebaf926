"""Regression-gate logic of ``benchmarks/export_bench.py --check``.

The committed PR4 and PR7 baselines record rows of the removed dense
distributed backend.  ``--check`` must carry each such gate over
explicitly: PR4's ``batched`` rows replay against ``sparse`` at the
recorded bound, PR7's absolute ``batched`` distributed row prints as
retired, and any other recorded row the fresh measurement lacks fails.
The measurements are stubbed, so these tests time nothing.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def export_bench():
    spec = importlib.util.spec_from_file_location(
        "export_bench", BENCH_DIR / "export_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(name):
    return json.loads((BENCH_DIR / name).read_text())


def _fresh_pr7(baseline):
    """A PR7 measurement as today's collector shapes it, at baseline speed."""
    current = copy.deepcopy(baseline)
    workloads = current["workloads"]
    legacy_seconds = workloads["batched_round_n2000_seconds"].pop("distributed")
    workloads["legacy_distributed_round_n2000_seconds"] = legacy_seconds
    return current


def _fresh_pr4(baseline, sparse_factor=1.0):
    """A PR4 measurement whose sparse rows take the recorded batched times."""
    workloads = baseline["workloads"]
    rounds = workloads["distributed_round_seconds"]
    deployment = workloads["distributed_deployment_n200_seconds"]
    sparse_deployment = deployment["batched"] * sparse_factor
    return {
        "label": "PR4",
        "calibration_seconds": baseline["calibration_seconds"],
        "workloads": {
            "centralized_round_seconds": dict(workloads["centralized_round_seconds"]),
            "distributed_round_seconds": {
                "legacy": dict(rounds["legacy"]),
                "sparse": {
                    n: seconds * sparse_factor
                    for n, seconds in rounds["batched"].items()
                },
            },
            "distributed_deployment_n200_seconds": {
                "legacy": deployment["legacy"],
                "sparse": sparse_deployment,
            },
            "distributed_speedup_n200": deployment["legacy"] / sparse_deployment,
        },
    }


class TestSparseSuiteGate:
    def test_retired_row_is_printed_not_failed(self, export_bench, monkeypatch, capsys):
        baseline = _baseline("BENCH_PR7.json")
        monkeypatch.setattr(export_bench, "collect_sparse", lambda: _fresh_pr7(baseline))
        assert export_bench.check_sparse(baseline, factor=2.0) == 0
        out = capsys.readouterr().out
        (retired,) = [
            line for line in out.splitlines()
            if line.startswith("batched_round_n2000_seconds[distributed]")
        ]
        assert "retired" in retired
        assert "MISSING" not in out

    def test_any_other_missing_row_fails(self, export_bench, monkeypatch, capsys):
        baseline = _baseline("BENCH_PR7.json")
        current = _fresh_pr7(baseline)
        del current["workloads"]["batched_round_n2000_seconds"]["centralized"]
        del current["workloads"]["sparse_distributed_scaling_exponent"]
        monkeypatch.setattr(export_bench, "collect_sparse", lambda: current)
        assert export_bench.check_sparse(baseline, factor=2.0) == 1
        out = capsys.readouterr().out
        assert "batched_round_n2000_seconds[centralized]" in out
        assert out.count("MISSING") == 2


class TestPr4Gate:
    def test_batched_rows_replay_on_sparse(self, export_bench, monkeypatch, capsys):
        baseline = _baseline("BENCH_PR4.json")
        monkeypatch.setattr(
            export_bench, "collect", lambda include_sweep=True: _fresh_pr4(baseline)
        )
        assert export_bench.check(BENCH_DIR / "BENCH_PR4.json", factor=2.0) == 0
        out = capsys.readouterr().out
        for n in ("50", "200", "500"):
            assert f"distributed round [batched->sparse] n={n}" in out
        assert "distributed deployment n=200 [batched->sparse]" in out

    def test_slow_successor_fails_at_the_recorded_bound(
        self, export_bench, monkeypatch, capsys
    ):
        baseline = _baseline("BENCH_PR4.json")
        monkeypatch.setattr(
            export_bench,
            "collect",
            lambda include_sweep=True: _fresh_pr4(baseline, sparse_factor=2.5),
        )
        assert export_bench.check(BENCH_DIR / "BENCH_PR4.json", factor=2.0) == 1
        out = capsys.readouterr().out
        failed = out.splitlines()[-1]
        assert "distributed round [batched->sparse] n=200" in failed
        assert "distributed deployment n=200 [batched->sparse]" in failed
        # legacy over a 2.5x slower sparse is under half the recorded 3.23x.
        assert "distributed_speedup_n200" in failed
