"""The LAACAD benchmark: deployment, service and sweep workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-dist --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics in a separate traced phase
and writes a Chrome trace plus a per-layer JSON under ``perfbench/out``.
Every run checks the program's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``), the metrics being every
``end_to_end`` (untraced) or ``per_layer`` (traced) entry of
``BENCHMARK.json``.  ``perfbench/README.md`` explains each workload.
"""

import argparse
import json
import subprocess
import sys

import harness

WORKLOADS = ("fig5-dist", "uniform-2k", "service-mix", "sweep-grid")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this untraced run's outputs as the seed's reference")
    args = parser.parse_args(argv)
    if args.record_reference and (args.trace or args.workload == "all"):
        parser.error("--record-reference needs one workload and --trace 0")
    return args


def _run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay separate."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    dropped = harness.pin_environment()
    if not harness.program_available():
        print(f"no program source at {harness.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    harness.use_program_source()
    if args.workload == "all":
        return _run_all(args)

    if args.workload == "service-mix":
        import service_workload as workload_module
    elif args.workload == "sweep-grid":
        import sweep_workload as workload_module
    else:
        import deploy_workloads as workload_module
    environment = harness.environment_record(dropped)
    outcome = workload_module.run(
        args.workload, args.seed, args.seconds, bool(args.trace), environment
    )
    if args.record_reference:
        harness.record_reference(args.workload, args.seed, outcome.outputs)
    harness.print_table(args.workload, outcome, bool(args.trace))
    print("env " + json.dumps(environment, sort_keys=True))
    print(json.dumps(harness.result_line(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
