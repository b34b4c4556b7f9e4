#!/usr/bin/env python3
"""The benchmark's own tests: a seconds-long smoke of every workload.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

Checks, per workload, that every metric in BENCHMARK.json is printed with
its unit (end-to-end untraced, per-layer traced), that the ungated
end-to-end figures are printed with their units, that sim_s repeats exactly
on a second run of the same seed, that the traced run writes a span for
every layer, and that an injected wrong answer makes the run exit non-zero
with "correct": false.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "2"
SEED = "7"

# Span names every traced run of a workload must write.
SETUP_SPANS = {"setup", "setup.generate", "setup.vp_build", "setup.tg_build"}
BATCH_SPANS = SETUP_SPANS | {"query", "sparql.parse", "analytics.analyze", "plan.plan",
                             "exec.run", "mr.job", "mr.map", "mr.reduce"}
SERVE_SPANS = SETUP_SPANS | {"serve.request", "serve.submit", "serve.queue", "serve.exec",
                             "serve.mutate"}

# Printed on every run, not gated (see README.md).
PRINTED = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
           "latency_samples": "count", "throughput_qps": "1/s",
           "cpu_ms_per_query": "ms", "fail_ratio": "ratio"}
PRINTED_SERVE = {"max_rate_qps": "1/s", "mutate_p50_ms": "ms",
                 "mutate_samples": "count"}


def run(workload, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def span_names(report_lines):
    """Names in the span dump the traced run reports writing."""
    path = next(line.split(" written to ", 1)[1] for line in report_lines
                if line.startswith("spans: "))
    with open(path) as f:
        next(f)  # header
        return {json.loads(line)["name"] for line in f}


def printed_metrics(report_lines):
    found = {}
    for line in report_lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
        if m:
            found[m.group(1)] = m.group(3)
    return found


class WorkloadSmoke(unittest.TestCase):
    def check_result(self, result, metrics_spec):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics_spec])
        for m in metrics_spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, first = run(workload)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_result(first, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(first["metrics"][m["name"]]["value"], 0, m["name"])
                expected = dict(PRINTED)
                if workload == "serve-rw":
                    expected.update(PRINTED_SERVE)
                printed = printed_metrics(lines)
                for name, unit in expected.items():
                    self.assertEqual(printed.get(name), unit, name)

                code, lines, second = run(workload)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertEqual(first["metrics"]["sim_s"]["value"],
                                 second["metrics"]["sim_s"]["value"])

                code, lines, traced = run(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_result(traced, SPEC["per_layer"])
                spans = SERVE_SPANS if workload == "serve-rw" else BATCH_SPANS
                self.assertLessEqual(spans, span_names(lines))
                coverage = traced["metrics"]["trace.child_coverage"]["value"]
                if workload != "serve-rw":
                    # Child spans account for the query span within 5%.
                    self.assertGreaterEqual(coverage, 0.95)
                    self.assertGreater(traced["metrics"]["mr.jobs"]["value"], 0)
                else:
                    self.assertGreater(traced["metrics"]["svc.submit_ms"]["value"], 0)

                code, lines, wrong = run(workload, 0, "--inject-wrong-answer")
                self.assertEqual(code, 1, "\n".join(lines))
                self.assertFalse(wrong["correct"])
                self.assertGreaterEqual(wrong["failed"], 1)


class BuildFailure(unittest.TestCase):
    def test_missing_library_sources_fail_without_result(self):
        # A copy holding only BENCHMARK.json and perfbench/ cannot build the
        # library, so the command must fail without printing a result.
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
