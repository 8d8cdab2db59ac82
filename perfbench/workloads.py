"""The four benchmark workloads: inputs from the seed, one timed pass, and
the pass outputs reduced to what the checks compare.

Imported only inside a pass process, after `src` is on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import sigmaring
from sigmaring import cli, relations
from sigmaring.words import Naming

# n, d, degree budget (words up to length 2 throughout): the largest
# randomized shape of the relation-generator acceptance criterion, 525
# relations.
SWEEP_SHAPE = (3, 2, 4)
TRIALS = 5  # the CLI default
# p = 10007 keeps the Schwartz-Zippel bound deg/p small; F_5 and F_7 do not.
FP = 10007
# The exact shapes of the same criterion.  The degree filter is applied
# here, not through relations.EXACT_MAX_DEGREE, so raising that cap does
# not change this input.
EXACT_SHAPES = ((1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 4))
EXACT_DEGREE = 4


def kernel_cases(seed: int) -> list[tuple[str, list[str] | None]]:
    """(label, CLI argv) pairs; the label names the case without its seed.
    sigma_lin(2, 2) has no subcommand and carries argv None."""
    s = str(seed)
    return [
        ("sigma-tr -t 5 -r 2", ["sigma-tr", "-t", "5", "-r", "2"]),
        ("sigma-tr -t 4 -r 2", ["sigma-tr", "-t", "4", "-r", "2"]),
        ("sigma-tr -t 2 -r 3", ["sigma-tr", "-t", "2", "-r", "3"]),
        ("power -t 3 -l 3", ["power", "-t", "3", "-l", "3"]),
        ("power -t 2 -l 4", ["power", "-t", "2", "-l", "4"]),
        ("bpf -t 2 -r 2", ["bpf", "-t", "2", "-r", "2", "--seed", s]),
        ("bpf -t 0 -r 3", ["bpf", "-t", "0", "-r", "3", "--seed", s]),
        ("bpf -t 2 -r 2 fp:7", ["bpf", "-t", "2", "-r", "2", "--seed", s, "--field", "fp:7"]),
        ("dp -n 6 -r 2", ["dp", "-n", "6", "-r", "2"]),
        ("sigma_lin 2 2", None),
    ]


def build(workload: str, seed: int):
    if workload == "kernels":
        return kernel_cases(seed)
    if workload == "sweep-exact":
        return {"shapes": EXACT_SHAPES, "seed": seed}
    if workload in ("sweep-q", "sweep-fp"):
        field = "Q" if workload == "sweep-q" else FP
        return {"shapes": (SWEEP_SHAPE,), "field": field, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, inputs) -> tuple[float, list[float], list]:
    """One timed pass: (wall seconds, per-op seconds, per-op results)."""
    clock = time.perf_counter
    start = clock()
    if workload == "kernels":
        lat, results = _kernels(inputs, clock)
    else:
        lat, results = _sweep(inputs, clock)
    return clock() - start, lat, results


def _sweep(inputs, clock):
    """An op is one relation: generate, verify, certificate.  A raised
    exception fails the op; one raised by the generator ends its shape."""
    exact = "field" not in inputs
    seed = inputs["seed"]
    lat, results = [], []
    for n, d, budget in inputs["shapes"]:
        t0 = clock()
        try:
            for rel in sigmaring.o_relation_generators(n, d, budget, 2):
                if exact and relations.poly_degree(rel.poly) > EXACT_DEGREE:
                    continue
                try:
                    if exact:
                        ok = sigmaring.verify_exact(rel.poly, n, d)
                        cert = sigmaring.certificate(rel, "exact", ok)
                    else:
                        field = inputs["field"]
                        ok = sigmaring.verify_randomized(rel.poly, n, d, TRIALS, seed, field)
                        cert = sigmaring.certificate(
                            rel, "randomized", ok, trials=TRIALS, seed=seed,
                            field="Q" if field == "Q" else f"fp:{field}",
                        )
                    results.append((d, ok, cert, rel.poly))
                except Exception as e:  # counted as a failed op
                    results.append((d, None, repr(e), None))
                t1 = clock()
                lat.append(t1 - t0)
                t0 = t1
        except Exception as e:
            results.append((d, None, repr(e), None))
    return lat, results


def _kernels(cases, clock):
    """An op is one case: its printed text and exit code."""
    lat, results = [], []
    for label, argv in cases:
        t0 = clock()
        buf = io.StringIO()
        try:
            if argv is None:
                p = sigmaring.sigma_lin(2, 2)
                buf.write(sigmaring.poly_text(p, Naming.xyz(2, 2, 2)) + "\n")
                rc = 0
            else:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            results.append((label, rc, buf.getvalue()))
        except Exception as e:  # counted as a failed op
            results.append((label, None, repr(e)))
        lat.append(clock() - t0)
    return lat, results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outputs(workload: str, results: list) -> list:
    """What the checks compare, computed after the timed pass.

    A sweep op becomes [verdict, digest, seed, field]: the digest covers
    the certificate without its seed and field, and the relation's
    polynomial text, so sweep-q and sweep-fp share one reference.  A
    kernel op becomes [label, exit code, text]."""
    if workload == "kernels":
        return [list(r) for r in results]
    out = []
    for d, ok, cert, poly in results:
        if ok is None:
            out.append([None, cert, None, None])
            continue
        body = {k: v for k, v in cert.items() if k not in ("seed", "field")}
        text = json.dumps(body, sort_keys=True) + "\n"
        text += sigmaring.poly_text(poly, Naming.generic(d))
        out.append([ok, digest(text), cert.get("seed"), cert.get("field")])
    return out
