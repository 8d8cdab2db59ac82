"""One benchmark pass in a fresh interpreter, so that the module-level
caches of sigmaring (sigmatr._cache, ring._power_memo,
matrices._checked_primes) start empty, as they do in a CLI call.

Usage: python3 perfbench/child.py setup|pass|trace WORKLOAD SEED

`setup` stops once the input is built; `pass` runs one timed pass and
reports its outputs for the parent to check; `trace` runs the same pass
with the tracer installed.  The last line of standard output is one JSON
object.  Its `ready` is the time.monotonic() reading at which the input
was built; the parent, which read the same clock before starting this
process, derives set-up time from it.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")


def main() -> int:
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, SRC)
    import sigmaring

    if not os.path.abspath(sigmaring.__file__).startswith(SRC + os.sep):
        print(f"sigmaring imported from {sigmaring.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.build(workload, seed)
    out = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, lat, results = workloads.run_pass(workload, inputs)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(wall)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"spans-{workload}-{seed}.json.gz"))
    out["wall_s"] = wall
    out["op_s"] = lat
    out["outputs"] = workloads.outputs(workload, results)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
