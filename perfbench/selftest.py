"""Self-test of the benchmark, on tiny inputs (about two minutes).

    python3 perfbench/selftest.py

Checks that each generator repeats its inputs for a seed, that every
workload runs with zero failed units, that two traced runs give identical
deterministic counters, and that tracing changes no output byte (the
traced run compares output digests with an untraced run of the same
pass).  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _check(ok: bool, what: str, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        print(detail)
        sys.exit(1)


def _run(workload: str, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--tiny", *extra],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    _check(proc.returncode == 0, f"{workload} {' '.join(extra)} exits 0", proc.stderr[-800:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    committed = json.loads((ROOT / gen.BATCH_PATH).read_text())
    _check(gen.generate("theorem_batch", gen.DEFAULT_SEED, ROOT)["batch"] == committed,
           "theorem_batch at the default seed is the committed batch verbatim")
    for workload in gen.WORKLOADS:
        a, b = (gen.generate(workload, 7, ROOT) for _ in range(2))
        _check(a == b, f"{workload}: same seed, same inputs")
        _check(a != gen.generate(workload, 8, ROOT), f"{workload}: another seed, other inputs")

    for workload in gen.WORKLOADS:
        plain, text = _run(workload, "--seconds", "1", "--trace", "0")
        _check(plain["correct"] and plain["failed"] == 0, f"{workload}: error rate 0", text)
        first, text = _run(workload, "--trace", "1")
        _check(first["correct"], f"{workload}: traced and untraced outputs identical", text)
        second, _ = _run(workload, "--trace", "1")
        counters = [(n, first["metrics"][n]["value"], second["metrics"][n]["value"])
                    for n, m in first["metrics"].items() if m["unit"] != "s"]
        diff = [c for c in counters if c[1] != c[2]]
        _check(not diff, f"{workload}: {len(counters)} counters repeat across traced runs", str(diff))
    return 0


if __name__ == "__main__":
    sys.exit(main())
