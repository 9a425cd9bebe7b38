"""Self-tests for the benchmark's own helpers.

    python3 perfbench/test_run.py

The last two tests build `rid` and the helper (as `run.py` does) and run
the benchmark briefly; the first two need nothing built.
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = run.benchmark_spec()


class QuantileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(run.quantile(values, 0.5), 5.0)
        self.assertEqual(run.quantile(values, 0.9), 9.0)
        self.assertEqual(run.quantile(values, 0.91), 10.0)
        self.assertEqual(run.quantile(values, 0.99), 10.0)
        self.assertEqual(run.quantile(values, 0.0), 1.0)
        self.assertEqual(run.quantile([7.0], 0.99), 7.0)
        # Always a sample value, never an interpolation.
        self.assertEqual(run.quantile([1.0, 2.0], 0.5), 1.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)


class NameTest(unittest.TestCase):
    def test_rule(self):
        for good in ("setup_s", "latency_ms.p50", "serve.queue_ms.p99", "kernel-cold"):
            self.assertTrue(run.NAME_RULE.fullmatch(good), good)
        for bad in ("p99 ms", "rate/s", "", "é"):
            self.assertFalse(run.NAME_RULE.fullmatch(bad), bad)

    def test_every_declared_name_follows_the_rule(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for name in names:
            self.assertTrue(run.NAME_RULE.fullmatch(name) and len(name) <= 64, name)
            self.assertTrue(name[0].isalnum(), name)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_layer_blocks_cover_the_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            measured, idle = run.layer_metrics(workload)
            self.assertEqual(sorted(measured + idle), sorted(m["name"] for m in SPEC["per_layer"]))


class CommandTest(unittest.TestCase):
    """Builds the program and runs the benchmark on small settings."""

    @classmethod
    def setUpClass(cls):
        _, cls.helper, target = run.build()
        cls.scratch = target / "perfbench" / "selftest"
        cls.scratch.mkdir(parents=True, exist_ok=True)

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
                dirs = [Path(tmp) / name for name in ("a", "b", "c")]
                for directory, seed in zip(dirs, (7, 7, 8)):
                    run.Inputs(self.helper, workload, seed, directory)
                trees = [{p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}
                         for d in dirs]
                self.assertEqual(trees[0], trees[1], workload)
                self.assertNotEqual(trees[0], trees[2], workload)

    def test_printed_metrics_are_the_declared_ones(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "branchy-refute",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=170, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)


if __name__ == "__main__":
    unittest.main()
