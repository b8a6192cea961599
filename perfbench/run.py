"""rittgrowth benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload theorem_batch --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run it from the repository root; it imports the package from src/.
With --trace 0 a run measures set-up time in fresh interpreters, then
runs the workload in a fresh worker interpreter for --seconds and
reports the end-to-end metrics.  With --trace 1 it runs one
pass untraced and one pass traced, each in a fresh interpreter, checks
that both give byte-identical outputs, and reports the per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Workload rationale and
the layer predictions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0   # every run must end within 180 s

CHILD_ENV = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# The end-to-end metrics of the result line.  unit_tail_s and error_rate are
# printed beside them but left out of it: error_rate is 0 when all is well,
# and unit_tail_s on theorem_batch is the slowest of three ~60 ms instances,
# whose run-to-run spread exceeds the largest bound allowed (perfbench/README.md).
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "unit_p50_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_computed"):
        return "bytes"
    if "_per_" in name or name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    return dict(os.environ, **CHILD_ENV)


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def measure_setup(inputs_path: Path, deadline: float) -> list[float]:
    """Spawn-to-ready times of fresh interpreters; the first one warms caches, untimed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(inputs_path)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-400:]}")
        if i:
            times.append(t1 - t0)
    return times


def run_worker(inputs_path: Path, tag: str, deadline: float, *extra: str) -> dict:
    out = WORK / f"{tag}.result.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--inputs", str(inputs_path),
           "--out", str(out), *extra]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} did not finish within the run budget") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker {tag} failed (exit {proc.returncode}): {proc.stderr.strip()[-800:]}")
    return json.loads(out.read_text())


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 units beyond it, and that percentile."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(versions: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "commit": commit}


def _problems(result: dict) -> list[str]:
    return [f"  unit {i}: {msg}" for i, msgs in result["problems"].items() for msg in msgs[:2]]


def run_plain(workload: str, inputs_path: Path, tag: str, seconds: float,
              deadline: float) -> tuple[dict, list[str], dict]:
    setups = measure_setup(inputs_path, deadline)
    res = run_worker(inputs_path, tag, deadline, "--seconds", repr(seconds))
    lat = res["latencies_s"]
    tail_s, tail_pct = tail(lat)
    error_rate = res["failed"] / res["attempted"]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": res["attempted"] / res["elapsed_s"],
        "unit_p50_s": statistics.median(lat),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    shown = [(name, f"{value:.6g} {UNITS[name]}") for name, value in values.items()]
    shown[0] = ("setup_s", shown[0][1] + f"  (median of {len(setups)} fresh interpreters)")
    shown.insert(3, ("unit_tail_s", f"{tail_s:.6g} s  (p{tail_pct:.1f} of {len(lat)} units)"))
    shown.append(("error_rate", f"{error_rate:.6g}  ({res['failed']} of {res['attempted']} "
                                f"units failed)"))
    lines = [f"{workload}: {res['attempted']} units in {res['passes']} passes of "
             f"{res['units_per_pass']}, {res['elapsed_s']:.3f} s measured"]
    lines += [f"  {name:18s} {text}" for name, text in shown]
    lines += _problems(res)
    record = {"setup_runs_s": setups, "unit_tail_s": tail_s, "unit_tail_percentile": tail_pct,
              "error_rate": error_rate}
    return res, lines, {"values": values, **record}


def run_traced(workload: str, inputs_path: Path, tag: str,
               deadline: float) -> tuple[dict, list[str], dict]:
    plain = run_worker(inputs_path, tag + "-untraced", deadline, "--passes", "1")
    traced = run_worker(inputs_path, tag + "-traced", deadline, "--passes", "1", "--trace",
                        "--spans", str(WORK / f"{tag}.spans.json"))
    values = dict(traced["counters"])
    values["trace.untraced_wall_s"] = plain["elapsed_s"]
    values["trace.traced_wall_s"] = traced["elapsed_s"]
    values["trace.overhead_s"] = traced["elapsed_s"] - plain["elapsed_s"]
    same = plain["outputs_sha256"] == traced["outputs_sha256"]
    traced["failed"] += plain["failed"]
    traced["attempted"] += plain["attempted"]
    traced["problems"].update(plain["problems"])
    if not same:
        traced["failed"] += 1
        traced["problems"]["trace"] = ["traced outputs differ from untraced outputs"]
    lines = [f"{workload} (traced): {traced['units_per_pass']} units, outputs "
             f"{'identical' if same else 'DIFFERENT'} with and without tracing"]
    lines += [f"  {name:40s} {value:.6g}" for name, value in values.items()]
    lines += _problems(traced)
    return traced, lines, {"values": values}


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}{'-tiny' if tiny else ''}"
    inputs = gen.generate(workload, seed, ROOT, tiny)
    inputs["sources"] = gen.sources(inputs)
    inputs_path = WORK / f"{tag}.inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1))

    if trace:
        res, lines, record = run_traced(workload, inputs_path, tag + "-trace", deadline)
        units = {name: layer_unit(name) for name in record["values"]}
    else:
        res, lines, record = run_plain(workload, inputs_path, tag, seconds, deadline)
        units = UNITS
    env = environment(res["versions"])
    print("\n".join(lines))
    print("env: " + json.dumps(env, sort_keys=True))
    summary = {
        "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["values"].items()},
    }
    (WORK / f"{tag}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "env": env, "summary": summary,
         "latencies_s": res["latencies_s"], "problems": res["problems"], **record}, indent=1))
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rittgrowth" / "cli.py").exists():
        print(f"error: no rittgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            summary = run_one(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
            print(json.dumps(summary), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
