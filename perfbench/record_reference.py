"""Record reference.json: per-op digests of the sweep outputs and the
seed-independent kernel texts.  Run it only on a commit whose outputs are
known good (the references were recorded at the seed commit), from the
root of a checkout:

    python3 perfbench/record_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def outputs(workload: str) -> list:
    _, _, results = workloads.run_pass(workload, workloads.build(workload, 0))
    return workloads.outputs(workload, results)


def main() -> int:
    ref = {}
    for key, workload in (("sweep", "sweep-q"), ("sweep-exact", "sweep-exact")):
        outs = outputs(workload)
        if not all(ok is True for ok, *_ in outs):
            raise SystemExit(f"{workload}: a verdict is not True")
        ref[key] = [digest for _, digest, _, _ in outs]
    ref["kernels"] = {}
    for label, rc, text in outputs("kernels"):
        if rc != 0:
            raise SystemExit(f"{label}: exit {rc}")
        ref["kernels"][label] = None if label.startswith("bpf") else workloads.digest(text)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
