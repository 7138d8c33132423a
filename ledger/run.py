#!/usr/bin/env python3
"""Builds and runs the Noctua ledger benchmark.

    python3 ledger/run.py --workload cold|edit|serve --seed N --seconds S --trace 0|1
    python3 ledger/run.py --smoke

Run from the repository root. The first call configures and compiles the benchmark
(ledger/CMakeLists.txt, which builds the Noctua libraries from src/) into
$CARGO_TARGET_DIR/ledger, default .bench_build/ledger; later calls rebuild only what
changed. The program's stdout is passed through, and its last line is the result:
{"correct", "attempted", "failed", "metrics"}. The result is printed only when it
carries every metric BENCHMARK.json names for the mode (end_to_end when --trace 0,
per_layer when --trace 1), each with its declared unit; otherwise the script exits 1.

--smoke runs every workload briefly plus one traced run and fails if a metric named in
BENCHMARK.json is missing or has no unit, or if any op failed (fail_frac > 0).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "ledger"
WORKLOADS = ("cold", "edit", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"ledger: {msg}", file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "ledger"


def build():
    """Configures (once) and builds noctua_ledger; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no Noctua sources under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(LEDGER), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "noctua_ledger",
                  "-j", str(jobs())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "noctua_ledger"
    return binary if binary.is_file() else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Problems with a result line: missing keys, metrics or units."""
    problems = []
    for key, kind in (("correct", bool), ("attempted", int), ("failed", int),
                      ("metrics", dict)):
        if not isinstance(result.get(key), kind):
            problems.append(f"result lacks {key!r}")
    if problems:
        return problems
    metrics = result["metrics"]
    for name, unit in declared_metrics(trace).items():
        m = metrics.get(name)
        if not isinstance(m, dict) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} is missing")
        elif not m.get("unit"):
            problems.append(f"metric {name} has no unit")
        elif m["unit"] != unit:
            problems.append(f"metric {name} is in {m['unit']}, BENCHMARK.json says {unit}")
    return problems


def run(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (stdout lines, parsed result) or None."""
    work = build_dir().parent / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", str(LEDGER / "expected.json"), "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S}s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        log(f"{workload}: noctua_ledger exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON: {lines[-1]!r}")
        return None
    problems = check_result(result, trace)
    for p in problems:
        log(f"{workload}: {p}")
    return None if problems else (lines, result)


def smoke(binary):
    ok = True
    plan = [(w, 0) for w in WORKLOADS] + [("cold", 1)]
    for workload, trace in plan:
        out = run(binary, workload, seed=1, seconds=1, trace=trace)
        if out is None:
            ok = False
            continue
        lines, result = out
        print("\n".join(lines[:-1]))
        fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        if not result["correct"] or fail_frac > 0:
            log(f"{workload} trace={trace}: fail_frac {fail_frac} "
                f"({result['failed']} of {result['attempted']} ops), correct={result['correct']}")
            ok = False
        else:
            log(f"{workload} trace={trace}: ok, {result['attempted']} ops")
    log("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    print("\n".join(out[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
