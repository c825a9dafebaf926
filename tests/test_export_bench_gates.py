"""Regression gates of ``benchmarks/export_bench.py``.

Every gate the exporter runs in CI is pinned here with stubbed
measurements, so these tests time nothing: ``--check`` on the PR4,
PR7, PR8 and PR9 baselines, ``--check-overhead`` and
``--compare-tiers``.  The committed PR4 and PR7 baselines also record
rows of the removed dense distributed backend: PR4's ``batched`` rows
replay against ``sparse`` at the recorded bound, PR7's absolute
``batched`` distributed row prints as retired, and any other recorded
row the fresh measurement lacks fails.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import time
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
        assert export_bench.check(BENCH_DIR / "BENCH_PR7.json", factor=2.0) == 0
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
        assert export_bench.check(BENCH_DIR / "BENCH_PR7.json", factor=2.0) == 1
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
        replayed = [line for line in out.splitlines() if "batched->sparse" in line]
        # Three round sizes and the N=200 deployment transient.
        assert len(replayed) == 4
        assert sum("deployment" in line for line in replayed) == 1
        for n in ("50", "200", "500"):
            assert any("round" in line and n in line for line in replayed)

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
        # All three round sizes and the deployment transient overshoot.
        assert failed.startswith("FAILED")
        assert failed.count("batched->sparse") == 4
        assert "deployment" in failed
        # legacy over a 2.5x slower sparse is under half the recorded 3.23x.
        assert "distributed_speedup_n200" in failed


def _last_line(out):
    return out.strip().splitlines()[-1]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestServiceGate:
    """``--check BENCH_PR8.json``: throughput floor, latency ceilings,
    the eviction memory claim and the eviction-equivalence bit."""

    def _check(self, export_bench, monkeypatch, current):
        monkeypatch.setattr(export_bench, "collect_service", lambda: current)
        path = str(BENCH_DIR / "BENCH_PR8.json")
        return export_bench.main(["--check", path, "--factor", "2.0"])

    def test_baseline_speed_passes(self, export_bench, monkeypatch, capsys):
        current = _baseline("BENCH_PR8.json")
        assert self._check(export_bench, monkeypatch, current) == 0
        assert _last_line(capsys.readouterr().out).startswith("OK")

    def test_slower_machine_scales_both_directions(
        self, export_bench, monkeypatch, capsys
    ):
        current = _baseline("BENCH_PR8.json")
        current["calibration_seconds"] *= 2.0
        workloads = current["workloads"]
        workloads["session_creates_per_second"] /= 3.0
        for percentile in ("p50", "p99"):
            workloads["step_latency_seconds"][percentile] *= 3.0
        assert self._check(export_bench, monkeypatch, current) == 0

    @pytest.mark.parametrize(
        "row",
        [
            "session_creates_per_second",
            "step_latency_seconds[p50]",
            "step_latency_seconds[p99]",
            "evicted_session_idle_bytes",
            "eviction_equivalence",
        ],
    )
    def test_each_row_fails_on_its_own(self, export_bench, monkeypatch, capsys, row):
        current = _baseline("BENCH_PR8.json")
        workloads = current["workloads"]
        if row == "session_creates_per_second":
            workloads[row] /= 2.5
        elif row.startswith("step_latency_seconds"):
            workloads["step_latency_seconds"][row[-4:-1]] *= 2.5
        elif row == "evicted_session_idle_bytes":
            workloads[row] = workloads["live_session_idle_bytes"] + 1.0
        else:
            workloads[row] = False
        assert self._check(export_bench, monkeypatch, current) == 1
        failed = _last_line(capsys.readouterr().out)
        assert failed.startswith("FAILED")
        assert row in failed


def _pr9_stub(export_bench, monkeypatch, baseline, slow=None):
    """Stub the PR9 cell measurement at the recorded speed.

    ``slow`` maps ``(kind, n)`` to a slowdown factor.  Returns the list
    of ``(REPRO_KERNELS, REPRO_KERNEL_THREADS, sizes)`` each measured
    cell ran under.
    """
    calls = []

    def cell(sizes):
        tier = os.environ.get("REPRO_KERNELS")
        threads = os.environ.get("REPRO_KERNEL_THREADS")
        calls.append((tier, threads, tuple(sizes)))
        recorded = baseline["tiers"]["numpy"]["threads"]["1"]
        return {
            kind: {
                str(n): per_size[str(n)] * (slow or {}).get((kind, str(n)), 1.0)
                for n in sizes
            }
            for kind, per_size in recorded.items()
        }

    monkeypatch.setattr(export_bench, "_pr9_matrix_cell", cell)
    monkeypatch.setattr(
        export_bench, "measure_calibration", lambda: baseline["calibration_seconds"]
    )
    return calls


class TestPr9Gate:
    def test_recorded_matrix_passes(self, export_bench, monkeypatch, capsys):
        baseline = _baseline("BENCH_PR9.json")
        calls = _pr9_stub(export_bench, monkeypatch, baseline)
        before = {key: os.environ.get(key) for key in ("REPRO_KERNELS", "REPRO_KERNEL_THREADS")}
        path = str(BENCH_DIR / "BENCH_PR9.json")
        assert export_bench.main(["--check", path, "--factor", "2.0"]) == 0
        assert calls and all(tier == "numpy" and threads == "1" for tier, threads, _ in calls)
        after = {key: os.environ.get(key) for key in before}
        assert after == before

    def test_over_bound_cell_fails(self, export_bench, monkeypatch, capsys):
        baseline = _baseline("BENCH_PR9.json")
        _pr9_stub(
            export_bench, monkeypatch, baseline,
            slow={("sparse_centralized_round_seconds", "2000"): 2.5},
        )
        path = str(BENCH_DIR / "BENCH_PR9.json")
        assert export_bench.main(["--check", path, "--factor", "2.0"]) == 1
        failed = _last_line(capsys.readouterr().out)
        assert "numpy/threads=1 sparse_centralized_round_seconds[2000]" in failed
        assert "sparse_distributed_round_seconds" not in failed

    def test_jit_tier_skipped_without_numba(
        self, export_bench, monkeypatch, capsys, tmp_path
    ):
        import repro.engine.jit_kernels as jit_kernels

        baseline = _baseline("BENCH_PR9.json")
        baseline["tiers"]["jit"] = copy.deepcopy(baseline["tiers"]["numpy"])
        path = _write(tmp_path, "BENCH_PR9_jit.json", baseline)
        monkeypatch.setattr(jit_kernels, "numba_available", lambda: False)
        calls = _pr9_stub(export_bench, monkeypatch, baseline)
        assert export_bench.main(["--check", str(path), "--factor", "2.0"]) == 0
        assert all(tier == "numpy" for tier, _, _ in calls)
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "numba" in out


class TestOverheadGate:
    """``--check-overhead``: CPU clock, one-sided scale, best-of retries."""

    def _run(self, export_bench, monkeypatch, slowdowns, calibration_ratio=1.0):
        baseline = _baseline("BENCH_PR9.json")
        recorded = baseline["tiers"]["numpy"]["threads"]["1"]
        monkeypatch.setattr(
            export_bench,
            "measure_calibration",
            lambda: baseline["calibration_seconds"] * calibration_ratio,
        )
        calls = []

        def cell(sizes):
            assert export_bench._CLOCK is time.process_time
            assert os.environ.get("REPRO_KERNELS") == "numpy"
            assert os.environ.get("REPRO_KERNEL_THREADS") == "1"
            slowdown = slowdowns[min(len(calls), len(slowdowns) - 1)]
            calls.append(tuple(sizes))
            return {
                kind: {str(n): per_size[str(n)] * slowdown for n in sizes}
                for kind, per_size in recorded.items()
            }

        monkeypatch.setattr(export_bench, "_pr9_matrix_cell", cell)
        path = str(BENCH_DIR / "BENCH_PR9.json")
        code = export_bench.main(
            ["--check-overhead", path, "--overhead-factor", "1.1"]
        )
        assert export_bench._CLOCK is time.perf_counter
        assert all(sizes == (2000,) for sizes in calls)
        return code, calls

    def test_faster_machine_keeps_the_absolute_budget(
        self, export_bench, monkeypatch, capsys
    ):
        # Half the calibration time would halve a two-sided budget to
        # 0.55x; the one-sided scale keeps 1.1x of the recorded seconds.
        code, calls = self._run(
            export_bench, monkeypatch, [1.05], calibration_ratio=0.5
        )
        assert code == 0
        assert len(calls) == 1

    def test_over_budget_fails_after_the_retries(
        self, export_bench, monkeypatch, capsys
    ):
        code, calls = self._run(export_bench, monkeypatch, [1.15])
        assert code == 1
        assert len(calls) == 6  # the first reading and five retries
        failed = _last_line(capsys.readouterr().out)
        assert "sparse_centralized_round_seconds[2000]" in failed
        assert "sparse_distributed_round_seconds[2000]" in failed

    def test_retry_under_budget_passes(self, export_bench, monkeypatch, capsys):
        code, calls = self._run(export_bench, monkeypatch, [1.5, 1.0])
        assert code == 0
        assert len(calls) == 2


def _tier_baseline(tier, slowdown=1.0, calibration_ratio=1.0):
    payload = _baseline("BENCH_PR7.json")
    payload["kernel_tier"] = tier
    payload["calibration_seconds"] *= calibration_ratio
    for key in ("sparse_centralized_round_seconds", "sparse_distributed_round_seconds"):
        per_size = payload["workloads"][key]
        for n in per_size:
            per_size[n] *= slowdown
    return payload


class TestCompareTiers:
    """``--compare-tiers``: jit <= numpy x machine scale x tier factor.

    This gate runs only in the numba CI leg, so these stubs are its
    only coverage on a machine without numba.
    """

    def _compare(self, export_bench, tmp_path, jit, numpy_payload=None):
        jit_path = _write(tmp_path, "jit.json", jit)
        numpy_path = (
            BENCH_DIR / "BENCH_PR7.json"
            if numpy_payload is None
            else _write(tmp_path, "numpy.json", numpy_payload)
        )
        return export_bench.main(
            ["--compare-tiers", str(jit_path), str(numpy_path), "--tier-factor", "1.1"]
        )

    def test_jit_within_factor_passes(self, export_bench, tmp_path, capsys):
        assert self._compare(export_bench, tmp_path, _tier_baseline("jit", 1.05)) == 0

    def test_calibration_scales_the_budget(self, export_bench, tmp_path, capsys):
        jit = _tier_baseline("jit", slowdown=2.0, calibration_ratio=2.0)
        assert self._compare(export_bench, tmp_path, jit) == 0

    def test_jit_slower_than_numpy_fails(self, export_bench, tmp_path, capsys):
        jit = _tier_baseline("jit")
        jit["workloads"]["sparse_distributed_round_seconds"]["10000"] *= 1.2
        assert self._compare(export_bench, tmp_path, jit) == 1
        failed = _last_line(capsys.readouterr().out)
        assert "sparse_distributed_round_seconds[10000]" in failed
        assert "sparse_centralized_round_seconds" not in failed

    def test_no_shared_rows_fail(self, export_bench, tmp_path, capsys):
        jit = _tier_baseline("jit")
        jit["workloads"] = {
            "sparse_centralized_round_seconds": {"123": 0.01},
            "sparse_distributed_round_seconds": {},
        }
        assert self._compare(export_bench, tmp_path, jit) == 1

    @pytest.mark.parametrize(
        "jit_tier, numpy_tier, rejected",
        [("numpy", "numpy", "jit.json"), (None, "numpy", "jit.json"),
         ("jit", "jit", "numpy.json")],
    )
    def test_input_files_must_carry_their_tier(
        self, export_bench, tmp_path, capsys, jit_tier, numpy_tier, rejected
    ):
        jit = _tier_baseline(jit_tier)
        if jit_tier is None:
            del jit["kernel_tier"]
        code = self._compare(export_bench, tmp_path, jit, _tier_baseline(numpy_tier))
        assert code == 1
        failed = _last_line(capsys.readouterr().out)
        assert failed.startswith("FAILED")
        assert rejected in failed and "kernel tier" in failed


class TestRecording:
    """Recording a suite writes only where ``--out`` points."""

    def test_bare_run_exits_nonzero_and_writes_nothing(self, tmp_path):
        committed = {
            path.name: path.read_bytes() for path in BENCH_DIR.glob("BENCH_*.json")
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = str(BENCH_DIR.parent / "src")
        result = subprocess.run(
            [sys.executable, str(BENCH_DIR / "export_bench.py")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "--out" in result.stderr
        after = {path.name: path.read_bytes() for path in BENCH_DIR.glob("BENCH_*.json")}
        assert after == committed
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("suite", ["pr4", "sparse", "service", "pr9"])
    def test_suite_without_out_measures_nothing(
        self, export_bench, monkeypatch, capsys, suite
    ):
        def forbidden(*args, **kwargs):  # pragma: no cover - the assertion is the call
            raise AssertionError("recording without --out must not measure")

        for name in ("collect", "collect_sparse", "collect_service", "collect_pr9"):
            monkeypatch.setattr(export_bench, name, forbidden)
        with pytest.raises(SystemExit) as exit_info:
            export_bench.main(["--suite", suite])
        assert exit_info.value.code != 0

    def test_out_writes_the_suite(self, export_bench, monkeypatch, capsys, tmp_path):
        payload = _baseline("BENCH_PR8.json")
        monkeypatch.setattr(export_bench, "collect_service", lambda: payload)
        out = tmp_path / "service.json"
        assert export_bench.main(["--suite", "service", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == payload
        printed = capsys.readouterr().out
        assert "step_latency_seconds[p99]" in printed


CENTRALIZED_STAGES = {"query", "candidates", "kth", "clip", "finish", "emit", "summary"}
DISTRIBUTED_STAGES = {"gather", "circle_check", "clip", "summary"}


class TestProfile:
    """``--profile`` reads stage seconds from the engines' stage spans."""

    @pytest.mark.parametrize(
        "kind, stages",
        [("centralized", CENTRALIZED_STAGES), ("distributed", DISTRIBUTED_STAGES)],
    )
    def test_stage_seconds_come_from_the_spans(self, export_bench, kind, stages):
        total, profile = export_bench._profiled_round(kind, 300)
        assert set(profile) == stages
        assert all(seconds > 0.0 for seconds in profile.values())
        assert sum(profile.values()) <= total

    def test_profile_out_rows(self, export_bench, tmp_path, capsys):
        from repro.engine.jit_kernels import kernel_tier

        out = tmp_path / "profile.json"
        before = os.environ.get("REPRO_KERNEL_THREADS")
        assert export_bench.profile_sparse(sizes=(300,), thread_counts=[1, 2], out=out) == 0
        assert os.environ.get("REPRO_KERNEL_THREADS") == before
        payload = json.loads(out.read_text())
        assert payload["profile_format_version"] == 1
        assert [(row["kind"], row["threads"]) for row in payload["rows"]] == [
            ("centralized", 1), ("centralized", 2), ("distributed", 1), ("distributed", 2),
        ]
        for row in payload["rows"]:
            expected = CENTRALIZED_STAGES if row["kind"] == "centralized" else DISTRIBUTED_STAGES
            assert set(row["stages"]) == expected
            assert row["meta"] == {"threads": row["threads"], "tier": kernel_tier()}
        printed = capsys.readouterr().out
        assert "centralized n=300 threads=2 efficiency:" in printed
