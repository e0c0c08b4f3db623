"""Self-tests of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

* a minimal-length run of each workload (one training) prints every
  end-to-end metric named in BENCHMARK.json with its unit and passes the
  output check, which at the default seed includes the recorded digest;
* the traced run's final digest equals the untraced run's, so tracing never
  changes numerics;
* A2SGD's measured wire bytes per iteration do not depend on the model size
  (the paper's O(1) claim), while Top-K's grow with it;
* ``iter_ms_p50`` and ``samples_per_s`` follow the share of slow
  iterations in a run smoothly;
* the output check rejects non-finite losses, a loss that did not fall and
  a changed digest;
* without the program next to it, the benchmark exits non-zero and prints
  no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


class MinimalRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric_and_passes_the_check(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                plain = bench(name, trace=0)
                self.assertEqual(plain.returncode, 0, plain.stdout + plain.stderr)
                info, result = parse(plain)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], info["problems"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertGreaterEqual(min(info["timed_iterations_per_training"]), 100)
                self.assertEqual(
                    {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                    {k: v["unit"] for k, v in result["metrics"].items()})
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

                traced = bench(name, trace=1)
                self.assertEqual(traced.returncode, 0, traced.stdout + traced.stderr)
                traced_info, traced_result = parse(traced)
                self.assertTrue(traced_result["correct"], traced_info["problems"])
                self.assertEqual(
                    {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                    {k: v["unit"] for k, v in traced_result["metrics"].items()})
                self.assertEqual(sorted(r["traced"] for r in traced_info["per_training"]),
                                 [False, True])
                # One digest across the traced run's trainings, and the same
                # digest as the untraced run.
                self.assertEqual(traced_info["digest"], info["digest"])


class WireBytes(unittest.TestCase):
    def wire_bytes(self, preset: str, algorithm: str) -> float:
        from repro.core.spec import ExperimentSpec
        from repro.core.trainer import DistributedTrainer
        from worker import IterationTimer

        spec = ExperimentSpec(model="fnn3", preset=preset, algorithm=algorithm,
                              world_size=8, epochs=1, max_iterations_per_epoch=4)
        timer = IterationTimer()
        DistributedTrainer(spec.to_trainer_config(), callbacks=[timer]).train()
        return (timer.last["bytes_sent"] - timer.first["bytes_sent"]) / (len(timer.ends) - 1)

    def test_a2sgd_traffic_does_not_depend_on_n(self):
        self.assertEqual(self.wire_bytes("tiny", "a2sgd"), self.wire_bytes("paper", "a2sgd"))
        self.assertGreater(self.wire_bytes("paper", "topk"), self.wire_bytes("tiny", "topk"))


class OutputCheck(unittest.TestCase):
    workload = WORKLOADS["a2sgd-fnn3-paper"]

    def report(self, losses, digest=None):
        return {"losses": losses, "digest": digest or self.workload.digest,
                "environment": {"blas_core": run.DIGEST_BLAS_CORE}}

    def test_accepts_a_falling_finite_loss_with_the_recorded_digest(self):
        self.assertEqual(run.check(self.report([2.0, 1.0]), self.workload, DEFAULT_SEED), [])

    def test_rejects_bad_outputs(self):
        for report in (self.report([2.0, float("nan"), 1.0]),
                       self.report([2.0, float("inf")]),
                       self.report([1.0, 1.0]),
                       self.report([2.0, 1.0], digest="0" * 64)):
            with self.subTest(losses=report["losses"]):
                self.assertTrue(run.check(report, self.workload, DEFAULT_SEED))

    def test_digest_is_only_pinned_at_the_default_seed(self):
        report = self.report([2.0, 1.0], digest="0" * 64)
        self.assertEqual(run.check(report, self.workload, DEFAULT_SEED + 1), [])


class Aggregation(unittest.TestCase):
    def test_p50_follows_the_share_of_slow_iterations(self):
        def training(iter_ms):
            return {"iter_ms": iter_ms, "window_s": 1e-3 * sum(iter_ms),
                    "samples_per_s": 1e3 * len(iter_ms) / sum(iter_ms),
                    "setup_s": 1.0, "iter_ms_p90": max(iter_ms),
                    "peak_rss_mb": 100.0, "wire_bytes_per_iter": 14.0}

        fast, slow = [10.0] * 32, [15.0] * 32
        for share, p50 in ((0.0, 10.0), (0.25, 11.25), (0.5, 12.5), (1.0, 15.0)):
            with self.subTest(slow_share=share):
                n_slow = int(4 * share)
                plain = [training(slow)] * n_slow + [training(fast)] * (4 - n_slow)
                metrics = run.end_to_end(plain)
                self.assertAlmostEqual(metrics["iter_ms_p50"]["value"], p50)
                self.assertAlmostEqual(metrics["samples_per_s"]["value"],
                                       1e3 / (10.0 + 5.0 * share))


class WithoutTheProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench(next(iter(WORKLOADS)), trace=0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
