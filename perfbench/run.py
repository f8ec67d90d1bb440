#!/usr/bin/env python3
"""Repair-stack benchmark: build rbbench from source, run one workload, and
print its metrics.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. Every line but the last is a human-readable
report; the last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The exit code is 0
only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: tiny inputs, and a corrupted reference
    # that the output checks must catch.
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out):
    """Configure and build rbbench (Release); returns the binary's path."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "rbbench", "rbbench_selftest",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return out / "rbbench"


def source_digest():
    """sha256 over the library sources, so a run names the program it measured
    even in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def run_binary(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit {done.returncode}): {' '.join(cmd)}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON (exit {done.returncode}): {lines[-1][:200]}")
    return done.returncode, lines[:-1], result


def main(argv):
    args = parse_args(argv)
    pinned = sorted(k for k in os.environ if k.startswith("RUSTBRAIN_"))
    if pinned:
        fail("refusing to run with " + ", ".join(pinned) +
             " set: the benchmark measures the default configuration", 2)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {spec_path}: {error}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads}", 2)
    if not (ROOT / "src").is_dir():
        fail("no src/ directory next to perfbench/: nothing to build")

    out = build_dir()
    binary = build(out)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--trace-out", str(out / f"spans-{tag}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")

    print(f"# git {git_sha()}, sources {source_digest()}, "
          f"nproc {os.cpu_count()}")
    code, report, result = run_binary(cmd, RUN_TIMEOUT_S)
    for line in report:
        print(line)
    measured = result["metrics"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            fail(f"workload {args.workload} did not report {name}")
        if measured[name]["unit"] != metric["unit"]:
            fail(f"{name} is reported in {measured[name]['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[name] = {"value": measured[name]["value"], "unit": metric["unit"]}
    for name, value in measured.items():
        if name not in metrics:
            print(f"# {name} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
