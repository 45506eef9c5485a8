"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

Imports tstructkit from the checkout's ``src/``, builds the workload's
inputs from (workload, seed), runs its ops once and prints one JSON object:
set-up and solve wall times, each op's latency and check result, peak
resident memory and, with TRACE=1, the per-layer metrics.  Set-up time
excludes the imports.  An untraced pass of a workload whose set-up keeps no
memo sets up SETUP_REPEATS times and reports the median.  A fresh
process per pass starts every memo (``quiver._SUBSPACE_CACHE``, the
per-backend caches) and the fault registry empty, as a CLI run does.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import tstructkit
    from tstructkit import cli, faults  # noqa: F401  (cli too: set-up time excludes imports)

    if not Path(tstructkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tstructkit was imported from {tstructkit.__file__}, not {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))
    import layertrace
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = layertrace.install(layertrace.Tracer()) if traced else None

    times = []
    for _ in range(1 if traced else wl.SETUP_REPEATS):
        t_setup = perf_counter()
        state = wl.setup(ROOT, seed)
        times.append(perf_counter() - t_setup)
    setup_s = statistics.median(times)
    if faults.snapshot():
        raise SystemExit(f"fault registry not empty before the first op: {sorted(faults.snapshot())}")
    t_solve = perf_counter()
    answers = wl.solve(state)
    solve_s = perf_counter() - t_solve
    ok = wl.check(state, answers)
    if len(ok) != len(answers):
        raise SystemExit(f"{len(answers)} ops but {len(ok)} check results")
    out = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "latency_s": [lat for lat, _ in answers],
        "ok": ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        out["layers"] = layertrace.layer_metrics(tracer, setup_s, solve_s)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
