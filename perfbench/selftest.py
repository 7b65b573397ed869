"""Self-test of the benchmark at tiny sizes, in about half a minute.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the result line
has exactly the contract's keys, that every metric BENCHMARK.json names
is printed with its unit as a finite number, and that all checks passed.
It then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        argv += ["--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, errors: list) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')!r}, want {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} value {value!r}")


def check_bare_directory(errors: list) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "render", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors: list = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace, errors)
    check_bare_directory(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
