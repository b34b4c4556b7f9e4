#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload bsbm-mg --seed 1 --seconds 10 --trace 0

Builds the benchmark binary and the library under src/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and relays its report. The last line printed is the result JSON:
{"correct": ..., "attempted": N, "failed": N, "metrics": {...}}, whose
metrics are BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1). Exit status: 0 when every answer was right, 1 on a wrong answer
or failed request, 2 on bad arguments, 3 when the build or the run itself
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("bsbm-mg", "pubmed-mv", "serve-rw")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the binary; build output goes to stderr."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", "rapida_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "rapida_perfbench"


def source_rev() -> str:
    """The git revision in a git checkout, else a digest of the sources."""
    root = HERE.parent
    if (root / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for tree in (root / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one checked answer (the run must fail)")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3

    scratch = out / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", str(scratch),
           "--source-rev", source_rev()]
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        # The service's store is scratch; the span dump stays for reading.
        shutil.rmtree(scratch / "serve-store", ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        metrics = select_metrics(result["metrics"], args.trace)
    except (ValueError, IndexError, KeyError) as e:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode}): {e}", file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return proc.returncode if proc.returncode in (0, 1) else 3


def select_metrics(measured: dict, trace: int) -> dict:
    """BENCHMARK.json's metrics for this kind of run, from what the run measured.

    Every end-to-end metric must have been measured; a per-layer metric of a
    layer the workload does not call reads 0. A unit that differs from
    BENCHMARK.json's is an error.
    """
    spec = json.loads(SPEC_PATH.read_text())
    chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None and trace:
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            raise KeyError(f"{m['name']} not measured")
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} measured in {got['unit']}, not {m['unit']}")
        chosen[m["name"]] = got
    return chosen


if __name__ == "__main__":
    sys.exit(main())
