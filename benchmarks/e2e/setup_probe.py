"""One set-up probe: a fresh interpreter that gets a workload's inputs ready.

Run by ``run.py`` as ``python3 setup_probe.py WORKLOAD [quick]``.  Prints
one JSON line with the wall-clock instant the inputs were ready (the parent
subtracts the instant it spawned us, which gives ``setup_s``: interpreter
start + imports + topology + pinned trace) and the three phases timed from
inside.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv) -> int:
    os.environ["REPRO_ALLOC_BACKEND"] = "numpy"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.BY_NAME[argv[1]]
    if len(argv) > 2 and argv[2] == "quick":
        workload = workloads.quick(workload)

    t0 = time.perf_counter()
    import repro.experiments  # noqa: F401  (what the replay call needs)

    if workload.observed:
        import repro.telemetry  # noqa: F401
    t1 = time.perf_counter()
    topology = workloads.build_topology(workload)
    t2 = time.perf_counter()
    workloads.build_trace(workload, topology)
    t3 = time.perf_counter()
    ready_at = time.time()
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "import_s": t1 - t0,
                "topology_s": t2 - t1,
                "trace_s": t3 - t2,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
