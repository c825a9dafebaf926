"""Time one workload set-up in a fresh interpreter; prints the seconds.

``harness.measure_setup`` runs this a few times and keeps the median, so
``setup_s`` covers imports as a new process pays them.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

import harness  # noqa: E402

harness.use_program_source()

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "sweep-grid":
        import sweep_workload

        sweep_workload.grid(seed)
    else:
        import deploy_workloads

        deploy_workloads.build(workload, seed)
    print(time.perf_counter() - _STARTED)
