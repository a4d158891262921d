"""The benchmark's own checks: BENCHMARK.json is well formed, every metric it
names is emitted with its unit, and the benchmark refuses to run without the
program.

Run from the root of a checkout:  python3 -m pytest perfbench
(or ``python3 perfbench/test_perfbench.py``).  Each workload runs in quick
mode, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: Path, workload: str, trace: int, *extra: str, seed: int = 3
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])
        for path in SPEC["paths"]:
            self.assertTrue((ROOT / path).is_dir())


class EmitTest(unittest.TestCase):
    def _check(self, workload: str, trace: int, seed: int = 3) -> dict:
        proc = _run(ROOT, workload, trace, "--quick", seed=seed)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in listed},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        detail = json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("detail "))
        self.assertEqual(detail["unexpected_failures"], [])
        env = json.loads(proc.stdout.strip().splitlines()[-3].removeprefix("environment "))
        for key in ("python", "nproc", "platform", "seed", "commit", "src_sha256"):
            self.assertIn(key, env)
        return result

    def test_counts_do_not_depend_on_seed(self):
        # every operation is counted once and the failing ones are fixed inputs
        counts = {(r["attempted"], r["failed"])
                  for r in (self._check("solve", 0, seed) for seed in (3, 4))}
        self.assertEqual(len(counts), 1, counts)

    def test_solve(self):
        self._check("solve", 0)
        self._check("solve", 1)

    def test_campaign(self):
        self._check("campaign", 0)
        self._check("campaign", 1)

    def test_cli(self):
        self._check("cli", 0)
        self._check("cli", 1)


class WithoutProgramTest(unittest.TestCase):
    def test_fails_without_result(self):
        scratch = ROOT / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(Path(tmp), "solve", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
