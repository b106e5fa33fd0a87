"""Self-tests for the benchmark itself.

    python3 bench/selftest.py

Checks that a seed fixes the inputs byte for byte, that every oracle
rejects an injected wrong answer, and that a run prints every metric
BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fskel.surface import parse_term, parse_type  # noqa: E402

NULL = tracing.NullTracer()


def first_op(name: str, kind: str, n: int | None = None):
    specs = inputs.WORKLOADS[name](7, 1)[0]
    spec = next(s for s in specs if s["kind"] == kind and (n is None or s["n"] == n))
    return workloads.SETUP[name]([[spec]])[0][0]


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, gen in inputs.WORKLOADS.items():
            with self.subTest(name):
                a = json.dumps(gen(3, 2), sort_keys=True)
                self.assertEqual(a, json.dumps(gen(3, 2), sort_keys=True))
                self.assertNotEqual(a, json.dumps(gen(4, 2), sort_keys=True))

    def test_leq_verdicts_by_construction(self):
        rng = inputs.random.Random(5)
        for verdict in (True, False):
            for _ in range(50):
                t1, t2 = inputs.leq_pair(rng, verdict)
                self.assertLessEqual(max(inputs.size(t1), inputs.size(t2)), 7)


class Oracles(unittest.TestCase):
    def test_type_key_theory(self):
        same = [("all a. all b. a -> b", "all y. all x. x -> y"),
                ("all a. c", "c"), ("all a. a -> (all q. c)", "all b. b -> c")]
        for t1, t2 in same:
            self.assertTrue(oracle.types_equal(parse_type(t1), parse_type(t2)))
        for t1, t2 in [("all a. a -> a", "a -> a"), ("a -> b", "b -> a")]:
            self.assertFalse(oracle.types_equal(parse_type(t1), parse_type(t2)))

    def test_reference_reduction(self):
        trace = oracle.cbv_trace(parse_term("(\\x. \\y. x) @ (\\z. z) @ (\\w. w)"))
        self.assertEqual(len(trace), 3)
        self.assertEqual(oracle.term_key(trace[-1]), oracle.term_key(parse_term("\\z. z")))

    def test_chain_flags_wrong_answer(self):
        op = first_op("chain_kernel", "chain", 10)
        result = op.run(NULL)
        self.assertTrue(op.check(result))
        wrong = list(result)
        wrong[8] = result[2]  # the target's judgement replaced by the initial one
        self.assertFalse(op.check(tuple(wrong)))
        wrong = list(result)
        wrong[11] = False  # target reported unsolved
        self.assertFalse(op.check(tuple(wrong)))

    def test_reduce_flags_wrong_answer(self):
        op = first_op("reduce_nf", "poly", 4)
        trail, erased = op.run(NULL)
        self.assertTrue(op.check((trail, erased)))
        self.assertFalse(op.check((trail[:-1], erased)))  # stopped early
        self.assertFalse(op.check((trail[:1] + trail[:-1], erased)))  # wrong terms
        self.assertFalse(op.check((trail, False)))  # erasure rejected
        j, _ = trail[-1]
        self.assertFalse(op.check((trail[:-1] + [(j, False)], erased)))  # unsolved

    def test_random_flags_wrong_answer(self):
        for kind in ("leq", "solved", "unsolved", "reject", "subst", "expand"):
            with self.subTest(kind):
                op = first_op("random_batch", kind)
                result = op.run(NULL)
                self.assertTrue(op.check(result))
                if kind in ("leq", "solved", "unsolved"):
                    wrong = not result
                elif kind == "reject":
                    wrong = "accepted"
                else:
                    wrong = (result[0], False)
                self.assertFalse(op.check(wrong))

    def test_readme_examples_match_cases(self):
        digests = {c["input"]: c["sha256"] for c in json.loads((HERE / "cli" / "cases.json").read_text())}
        for out in sorted((HERE / "cli" / "expected").glob("*.out")):
            with self.subTest(out.name):
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                self.assertEqual(digest, digests[f"bench/cli/inputs/{out.stem}"])

    def test_cli_flags_wrong_answer(self):
        op = workloads.SETUP["cli_batch"](inputs.cli_batch(1, 1))[0][0]
        code, stdout = op.run(NULL)
        self.assertTrue(op.check((code, stdout)))
        self.assertFalse(op.check((code, stdout + "x")))
        self.assertFalse(op.check((code + 1, stdout)))


class Calibration(unittest.TestCase):
    def test_best_scaled_try(self):
        ops = workloads.SETUP["reduce_nf"]([[s for s in inputs.reduce_nf(7, 1)[0][:2]]])[0]
        for i, op in enumerate(ops):
            op.index = i
        log = run.Log(ops)
        # (op, ms, reference before, reference after): the machine ran at
        # half speed during the second try of op 0
        for op, ms, before, after in ((ops[0], 10.0, 3.3, 6.6), (ops[0], 16.0, 6.6, 6.6),
                                      (ops[1], 4.0, 6.6, 6.6)):
            log.add(op, ms / 1000.0, True, None)
            log.ref_before[-1], log.ref_after[-1] = before, after
        scale = run.calibrate.NOMINAL_MS / 3.3
        best = {op.index: ms for op, ms, ok in log.best()}
        self.assertAlmostEqual(best[0], 8.0 * scale)
        self.assertAlmostEqual(best[1], 2.0 * scale)

    def test_reference_is_fixed_work(self):
        self.assertEqual(run.calibrate.reference(), run.calibrate.CHECKSUM)
        self.assertGreater(run.reference_ms(), 0.0)


class Output(unittest.TestCase):
    def setUp(self):
        self.saved = inputs.CHAIN_BLOCK, inputs.REDUCE_BLOCK, inputs.RANDOM_BLOCK_OPS
        inputs.CHAIN_BLOCK = ((4, 2), (8, 2))
        inputs.REDUCE_BLOCK = (("small", 1, 2), ("poly", 2, 2), ("poly", 4, 2))
        inputs.RANDOM_BLOCK_OPS = 100
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def tearDown(self):
        inputs.CHAIN_BLOCK, inputs.REDUCE_BLOCK, inputs.RANDOM_BLOCK_OPS = self.saved

    def test_every_metric_named(self):
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(names, set(inputs.WORKLOADS))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in self.spec[key]}
            for name in inputs.WORKLOADS:
                with self.subTest(name=name, trace=trace):
                    result = run.run_workload(name, 1, 0.01, trace, min_passes=1)
                    self.assertEqual(result["failed"], 0)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)


class Contract(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_batch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
