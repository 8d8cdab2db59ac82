"""Self-test of the benchmark: one pass of every workload at two seeds,
with every output check; the seed reaching the program; the checks
catching a wrong output; and a traced pass attributing its time.

Run from the root of a checkout (about two minutes):

    python3 perfbench/selftest.py
"""

import time
import unittest

import checks
import run

SEEDS = (3, 71)


def one_pass(mode: str, workload: str, seed: int) -> dict:
    return run.spawn(mode, workload, seed, time.monotonic() + run.RUN_LIMIT_S)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = checks.load_reference()
        cls.passes = {
            (w, s): one_pass("pass", w, s) for w in run.WORKLOADS for s in SEEDS
        }

    def test_every_check_holds_at_both_seeds(self):
        for (workload, seed), p in self.passes.items():
            with self.subTest(workload=workload, seed=seed):
                self.assertEqual(len(p["outputs"]), checks.op_count(workload, self.reference))
                self.assertEqual(run.check_outputs(workload, seed, [p], self.reference), [])

    def test_seed_reaches_the_program(self):
        for workload in ("sweep-q", "sweep-fp"):
            for seed in SEEDS:
                seeds = {out[2] for out in self.passes[(workload, seed)]["outputs"]}
                self.assertEqual(seeds, {seed})
        bpf = [
            [text for label, _, text in self.passes[("kernels", seed)]["outputs"]
             if label.startswith("bpf")]
            for seed in SEEDS
        ]
        self.assertNotEqual(bpf[0], bpf[1])

    def test_checks_catch_wrong_outputs(self):
        seed = SEEDS[0]
        sweep = self.passes[("sweep-q", seed)]["outputs"]
        wrong = [list(out) for out in sweep]
        wrong[7][1] = "0" * 16
        wrong[9][0] = False
        self.assertEqual(len(checks.sweep_failures("sweep-q", seed, wrong, self.reference)), 2)
        self.assertEqual(
            len(checks.sweep_failures("sweep-fp", seed, sweep, self.reference)), len(sweep)
        )
        self.assertEqual(
            len(checks.sweep_failures("sweep-q", seed + 1, sweep, self.reference)), len(sweep)
        )
        self.assertEqual(
            len(checks.sweep_failures("sweep-q", seed, sweep[:-5], self.reference)), 5
        )

        kernels = self.passes[("kernels", seed)]["outputs"]
        oracle = checks.KernelOracle(seed, self.reference)
        for label, mutate in (
            ("bpf -t 2 -r 2", lambda text: str(int(text) + 1) + "\n"),
            ("bpf -t 2 -r 2 fp:7", lambda text: str((int(text) + 1) % 7) + "\n"),
            ("power -t 3 -l 3", lambda text: text.replace("+", "-", 1)),
            ("dp -n 6 -r 2", lambda text: text.replace("+", "-", 1)),
            ("sigma-tr -t 5 -r 2", lambda text: text + " "),
        ):
            with self.subTest(label=label):
                wrong = [
                    [lab, rc, mutate(text) if lab == label else text]
                    for lab, rc, text in kernels
                ]
                self.assertEqual(len(oracle.failures(wrong)), 1)
        self.assertEqual(len(oracle.failures(kernels[1:])), 1)

    def test_traced_pass_attributes_its_time(self):
        traced = one_pass("trace", "kernels", SEEDS[0])
        layers = traced["layers"]
        self.assertGreaterEqual(layers["trace.attributed_share"], 0.9)
        self.assertGreater(layers["tableau.bpf.calls"], 0)
        self.assertGreater(layers["quiver.index_sets.selections"], 0)
        self.assertEqual(run.check_outputs("kernels", SEEDS[0], [traced], self.reference), [])


if __name__ == "__main__":
    unittest.main()
