"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every BENCHMARK.json metric with its unit
(untraced and traced), that a perturbed table trips the correctness gate and
raises the error rate (against the recorded digests and across
repetitions), that the default synth80 config is configs/synthetic.yaml,
and that the benchmark fails without a result when the chainga sources are
absent. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def check_metrics(result: dict | None, kind: str, what: str) -> None:
    if result is None or set(result) != RESULT_KEYS:
        check(False, f"{what}: result line with keys {sorted(RESULT_KEYS)}")
        return
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    check(got == wanted, f"{what}: every {kind} metric with its unit")
    numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    check(numbers, f"{what}: metric values are numbers")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct, no failed ops")


def main() -> int:
    for name in workloads.NAMES:
        rc, result = bench("--tiny", "--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                           "--trace", "0")
        check(rc == 0, f"{name} untraced at the default seed exits 0")
        check_metrics(result, "end_to_end", f"{name} untraced")
        if result:
            check(all(m["value"] > 0 for m in result["metrics"].values()),
                  f"{name}: end-to-end metrics are never 0")
        rc, result = bench("--tiny", "--workload", name, "--seed", "5", "--trace", "1")
        check(rc == 0, f"{name} traced at seed 5 exits 0")
        check_metrics(result, "per_layer", f"{name} traced")

    for name, seed in (("synth80", workloads.DEFAULT_SEED), ("kdd41", 5)):
        rc, result = bench("--tiny", "--perturb", "--workload", name, "--seed", str(seed),
                           "--trace", "0")
        tripped = rc != 0 and result is not None and not result["correct"] and result["failed"] > 0
        check(tripped, f"a perturbed {name} table at seed {seed} trips the gate and raises the error rate")

    shipped = ROOT / "configs" / "synthetic.yaml"
    if shipped.is_file():
        same = yaml.safe_load(shipped.read_text(encoding="utf-8")) == workloads.config(
            "synth80", workloads.DEFAULT_SEED)
        check(same, "synth80 at the default seed is configs/synthetic.yaml")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, result = bench("--workload", "synth80", "--seed", "1", "--trace", "0", cwd=bare)
    check(rc != 0 and result is None, "without the chainga sources it fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
