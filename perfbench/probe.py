"""Set-up probe: a fresh interpreter imports the CLI and resolves the workload's sources.

    python3 perfbench/probe.py INPUTS_FILE

Prints "ready" once done; the parent times spawn-to-ready.  It imports
nothing of the benchmark, so it measures only what every CLI call pays.
"""

import json
import sys

import rittgrowth.cli  # noqa: F401  (the import is the measured work)
from rittgrowth import corpus, theorems

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        inputs = json.load(fh)
    if "batch" in inputs:
        theorems.load_batch(inputs["batch"])
    for ref in inputs["sources"]:
        corpus.resolve_source(ref)
    print("ready", flush=True)
