"""One workload in a fresh interpreter: the measured loop, then the checks.

    python3 perfbench/worker.py --inputs FILE --out FILE [--seconds S | --passes N]
                                [--trace --spans FILE]

The inputs file comes from gen.py.  A pass is every unit of the workload
once, in a fixed order.  Passes repeat until --seconds have elapsed and
the run stops after the unit in progress.  theorem_batch units share one
IndicatorWorkspace per pass, exactly like `rittgrowth check`, so that
workload runs whole passes: at least one, and another only while it is
expected to end within --seconds.  Checks run after the measured
loop, untimed, and after peak memory has been read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cli_runner(inputs):
    from rittgrowth import cli
    units = inputs["units"]

    def run(i, _state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(units[i]))
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return len(units), (lambda: None), run


def _batch_runner(inputs):
    from rittgrowth import theorems
    instances = theorems.load_batch(inputs["batch"])

    def run(i, ws):
        report = theorems.check_instance(instances[i], ws)
        return json.dumps(report.to_json(), sort_keys=True)

    return len(instances), theorems.IndicatorWorkspace, run


def _check(inputs, outputs, state) -> dict:
    """Problems per unit index, from pass-1 outputs (None marks a unit that raised)."""
    import checks  # only now, so mpmath stays out of the measured loop and peak_rss_mb
    problems = {}
    if "batch" in inputs:
        from rittgrowth import theorems
        instances = theorems.load_batch(inputs["batch"])
        docs = inputs["batch"]["instances"]
        grids = [checks.expexp_grids_of_instance(d) for d in docs]
    else:
        grids = [checks.expexp_grids_of_argv(argv) for argv in inputs["units"]]
    for i, text in enumerate(outputs):
        if text is None:
            continue
        try:
            if "batch" in inputs:
                found = checks.check_theorem_unit(instances[i], json.loads(text),
                                                  inputs["expected"][i], state)
            else:
                found = checks.check_cli_unit(inputs["units"][i], text)
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"report does not parse: {exc!r}"]
        if found:
            problems[i] = found
    sandwiches = {}
    for i, pairs in enumerate(grids[:len(outputs)]):
        for pair in pairs:
            if pair not in sandwiches:
                sandwiches[pair] = checks.sandwich(*pair)
            if sandwiches[pair]:
                problems.setdefault(i, []).extend(sandwiches[pair][:3])
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, help="run exactly this many passes")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the trace here")
    args = ap.parse_args(argv)

    inputs = json.loads(Path(args.inputs).read_text())
    n, new_state, run = (_batch_runner if "batch" in inputs else _cli_runner)(inputs)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    latencies, errors = [], {}
    first = first_state = None
    unit_failed = [0] * n
    passes = 0
    timed = args.passes is None
    clock = time.perf_counter
    start = clock()
    done = False
    while not done:
        pass_start = clock()
        state = new_state()
        outputs = []
        for i in range(n):
            if tracer:
                tracer.unit = passes * n + i
            t0 = clock()
            try:
                text = run(i, state)
            except Exception as exc:  # a unit that raises counts as failed; keep going
                text = None
                errors.setdefault(i, f"{type(exc).__name__}: {exc}")
            end = clock()
            latencies.append(end - t0)
            outputs.append(text)
            if timed and state is None and end - start >= args.seconds:
                done = True
                break
        if timed and state is not None:
            # units sharing a workspace stop only at the end of a pass; start
            # another pass only if one more is expected to fit in the time
            done = end - start + (end - pass_start) > args.seconds
        passes += 1
        if first is None:
            first, first_state = outputs, state
        for i, text in enumerate(outputs):
            # later passes must repeat pass 1 byte for byte
            if text is None or text != first[i]:
                unit_failed[i] += 1
        done = done or passes == args.passes
    elapsed = end - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counters = None
    if tracer:
        tracer.uninstall()
        counters = tracer.metrics(len(latencies))
        if args.spans:
            tracer.write(Path(args.spans))

    problems = _check(inputs, first, first_state)
    for i in problems:
        # a unit whose pass-1 report is wrong is wrong in every pass
        unit_failed[i] = passes
    for i, msg in errors.items():
        problems.setdefault(i, []).insert(0, msg)

    import numpy
    import scipy
    digest = hashlib.sha256("\x00".join(t or "" for t in first).encode()).hexdigest()
    result = {
        "units_per_pass": n, "passes": passes, "elapsed_s": elapsed,
        "latencies_s": latencies, "failed": sum(unit_failed), "attempted": len(latencies),
        "problems": {str(i): p for i, p in sorted(problems.items())},
        "peak_rss_mb": peak_rss_mb, "outputs_sha256": digest, "counters": counters,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
