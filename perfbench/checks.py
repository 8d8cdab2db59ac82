"""Output checks, run in the parent after every pass has ended, so they
stay outside the timed region.  A failed check fails its op and never
aborts the run.

- Every sweep verdict is True (this holds by theorem) and every sweep op
  matches the digest recorded from the seed commit in reference.json.
- Every kernel case exits 0; seed-independent texts match reference.json
  (the seed-dependent bpf cases carry null there).
- `bpf -t t -r r` equals EvalContext.eval_poly(sigma_tr(t, r)) on the
  same seeded matrices (the index-set route against the tableau route).
- `power -t t -l l`, parsed and evaluated at a seeded 4x4 matrix A,
  equals ExactMatrix.sigma(t) of A^l.
- The `dp -n 6 -r 2` text equals the `sigma-tr -t 2 -r 2` text.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SWEEP_FIELD = {"sweep-q": "Q", "sweep-fp": "fp:10007", "sweep-exact": None}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def op_count(workload: str, reference: dict) -> int:
    """Ops in one pass."""
    return len(reference["kernels" if workload == "kernels" else _sweep_key(workload)])


def _sweep_key(workload: str) -> str:
    return "sweep-exact" if workload == "sweep-exact" else "sweep"


def sweep_failures(workload: str, seed: int, outputs: list, reference: dict) -> list[str]:
    """One message per failed op, ops that never ran included."""
    ref = reference[_sweep_key(workload)]
    field = SWEEP_FIELD[workload]
    cert_seed = None if field is None else seed
    bad = []
    for i, (ok, digest, s, f) in enumerate(outputs):
        if ok is not True:
            bad.append(f"op {i}: verdict {ok!r} ({digest})")
        elif i >= len(ref) or digest != ref[i] or s != cert_seed or f != field:
            bad.append(f"op {i}: certificate or polynomial differs from the reference")
    bad += [f"op {i}: not run" for i in range(len(outputs), len(ref))]
    return bad


class KernelOracle:
    """Expected kernel outputs for one seed, from routes other than the
    one each case takes."""

    def __init__(self, seed: int, reference: dict):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import sigmaring
        from sigmaring import cli
        from workloads import digest

        self.seed = seed
        self.sigmaring = sigmaring
        self.digest = digest
        self.reference = reference["kernels"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["sigma-tr", "-t", "2", "-r", "2"])
        self.sigma_tr_2_2 = buf.getvalue()

    def failures(self, outputs: list) -> list[str]:
        ran = [label for label, _, _ in outputs]
        bad = [f"{label}: not run" for label in self.reference if label not in ran]
        for label, rc, text in outputs:
            if rc != 0:
                bad.append(f"{label}: exit {rc!r} ({text.strip()[:200]})")
                continue
            why = self._check(label, text)
            if why:
                bad.append(f"{label}: {why}")
        return bad

    def _check(self, label: str, text: str) -> str | None:
        ref = self.reference.get(label, "")
        if ref is not None and self.digest(text) != ref:
            return "text differs from the reference"
        nums = [int(v) for v in re.findall(r"-[tlnr] (\d+)", label)]
        if label.startswith("bpf"):
            return self._bpf(*nums, 7 if label.endswith("fp:7") else "Q", text)
        if label.startswith("power"):
            return self._power(*nums, text)
        if label.startswith("dp") and text != self.sigma_tr_2_2:
            return "differs from sigma-tr -t 2 -r 2"
        return None

    def _bpf(self, t: int, r: int, field, text: str) -> str | None:
        sr = self.sigmaring
        n = t + 2 * r
        letters = ([1] if t else []) + ([2, 3] if r else [])
        mats = {k: sr.random_matrix(n, self.seed + k, field=field) for k in letters}
        want = Fraction(str(sr.EvalContext(mats).eval_poly(sr.sigma_tr(t, r))))
        got = Fraction(text.strip())
        same = got == want if field == "Q" else (got - want) % field == 0
        return None if same else f"bpf {got} but eval_poly(sigma_tr) {want}"

    def _power(self, t: int, l: int, text: str) -> str | None:
        sr = self.sigmaring
        a = sr.random_matrix(4, self.seed)
        power = a
        for _ in range(l - 1):
            power = power * a
        p = sr.parse_poly(text.strip(), sr.Naming.single("a"))
        got = sr.EvalContext({1: a}).eval_poly(p)
        want = power.sigma(t)
        return None if got == want else f"evaluates to {got}, sigma_{t}(A^{l}) is {want}"
