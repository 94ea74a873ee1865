#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from this checkout's sources
and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload <name> --seed <n> --update-pins

Run from any directory; the build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set.

On top of the binary's own output checks this script checks the pinned
digests of simulated outputs (pins.json, per workload and seed) and that
the metrics printed are exactly the ones BENCHMARK.json declares. Exit
codes: 0 all checks passed; 1 a check failed (the result line says how
many); 2 the build or the run itself failed, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def run_logged(cmd: list[str], log: Path) -> bool:
    with log.open("a", encoding="utf-8") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, check=False)
    if proc.returncode != 0:
        lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
        print("\n".join(lines[-40:]), file=sys.stderr)
        print(f"perfbench: '{' '.join(cmd)}' failed (log: {log})", file=sys.stderr)
    return proc.returncode == 0


def build(target: str) -> Path | None:
    """Configures once, then builds `target` incrementally; None on failure."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    if not (out / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(out),
                           "-DCMAKE_BUILD_TYPE=Release"], log):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", str(out), "-j", jobs, "--target", target], log):
        return None
    return out / target


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="perfbench: the repository benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    parser.add_argument("--update-pins", action="store_true",
                        help="record this run's digests as the pins for its workload and seed")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        return 2 if binary is None else subprocess.run([str(binary)], check=False).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(build_dir() / "out"), "--git-rev", git_revision()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode not in (0, 1) or result is None:
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return 2
    print("\n".join(lines[:-1]))

    attempted, failed = result["attempted"], result["failed"]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    digests = dict(line.split()[1:3] for line in lines if line.startswith("digest "))
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    if args.update_pins:
        pins.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(digests.items()))
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {len(digests)} digests for {args.workload} seed {args.seed}")
    for name, want in pins.get(args.workload, {}).get(str(args.seed), {}).items():
        check(digests.get(name) == want,
              f"pinned digest {name}: got {digests.get(name)}, pinned {want}")

    declared = declared_metrics(bool(args.trace))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    check(printed == declared,
          f"metrics printed differ from BENCHMARK.json: {sorted(set(printed) ^ set(declared))}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
