"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m unittest perfbench/test_smoke.py
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# End-to-end figures printed on top of BENCHMARK.json's, where they apply.
REPORTED = {
    "map-ideal-large": {"solve_nodes_per_s": "1/s", "growth_exp": "1",
                        "failed_frac": "ratio", "path_err_pct": "%"},
    "segments": {"segments_per_s": "1/s", "seg_err_pct": "%",
                 "failed_frac": "ratio"},
    "solve-arc-mixed": {"solve_nodes_per_s": "1/s", "path_err_pct": "%",
                        "failed_frac": "ratio"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class SmokeTest(unittest.TestCase):
    def run_tiny(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        printed = {}
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, name, _value, unit = line.split()
                printed[name] = unit
        return result["metrics"], printed

    def test_every_metric_is_printed_with_its_unit(self):
        for w in BENCH["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    metrics, printed = self.run_tiny(w["name"], trace)
                    want = {m["name"]: m["unit"] for m in BENCH[group]}
                    self.assertEqual(
                        {k: m["unit"] for k, m in metrics.items()}, want)
                    if trace == 0:
                        want.update(REPORTED[w["name"]])
                    for name, unit in want.items():
                        self.assertEqual(printed.get(name), unit, name)
                    if trace:
                        bypassed = {"map-ideal-large": "motion_sim.calls",
                                    "segments":
                                    "mapping_explorer.match_point_calls"}
                        if w["name"] in bypassed:
                            name = bypassed[w["name"]]
                            self.assertEqual(metrics[name]["value"], 0)

    def test_wrong_output_counts_as_failed(self):
        sys.path.insert(0, str(HERE))
        import run
        import workloads

        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
            good = workloads.build("map-ideal-large", 1, tmp, tiny=True)[0]
            maze = run.cli.parse_maze(Path(good.argv[2]).read_text())
            bad = workloads.Op(good.argv, workloads._check_exact(
                workloads.shortest(maze) + 1.0), nodes=good.nodes)
            runner = run.Runner([good, bad])
            runner.one_pass()
            runner.one_pass()
        self.assertEqual((runner.attempted, runner.failed), (4, 2))
        self.assertIn("expected", runner.problems[0])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "segments", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_compare_refuses_other_backends(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for backend in ("pure", "compiled"):
                path = Path(tmp) / (backend + ".json")
                path.write_text(json.dumps({
                    "identity": {"workload": "segments", "seed": 1,
                                 "kernel_backend": backend,
                                 "python": "3.11.7", "nproc": 2,
                                 "commit": None},
                    "correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
                paths.append(str(path))
            proc = subprocess.run(
                [sys.executable, str(HERE / "results.py"), "compare", *paths],
                capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("refusing", proc.stderr)


if __name__ == "__main__":
    unittest.main()
