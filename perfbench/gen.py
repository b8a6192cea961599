"""Seeded input generators, one per workload.

Each generator takes the seed and returns the inputs the program receives
(a batch document or CLI argument vectors) plus what the checks need.
The same seed always gives the same inputs.  Seeds change the family
parameters, never the amount of work: every draw keeps the cost drivers
(a*sigma ranges, grid sizes, tower depths) fixed, so run-to-run spread
measures the program and the machine, not the draw.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("theorem_batch", "direct_indicators", "synthetic_relative")

BATCH_PATH = Path("batches") / "acceptance_triples.json"
# The committed batch: every instance passes except the last (Tt1 on the
# irregular osc function), whose regularity hypothesis fails.
BATCH_SIZE = 33
VACUOUS_INSTANCES = {32}
# Tiny variant for the self-test: the cheap tower/osc templates plus one
# expexp template, so every layer still runs.
TINY_BATCH = (3, 4, 9, 17, 28, 29)

# Three whole periods of sin(log sigma), as README asks of osc grids.
OSC_PERIODS = 3


def _jitter(rng: random.Random, values, spread: float) -> dict:
    """Map each distinct value to value*exp(u), |u| <= spread.

    spread stays below half the smallest log-gap between the values, so
    the map is monotone: equal parameters stay equal and order is kept.
    """
    return {v: round(v * math.exp(rng.uniform(-spread, spread)), 4) for v in sorted(set(values))}


def _shorthand(family: str, params: dict) -> str:
    return family + ":" + ",".join(f"{k}={v}" for k, v in params.items())


def _parse(ref: str) -> tuple[str, dict]:
    family, _, rest = ref.partition(":")
    return family, dict(item.split("=") for item in rest.split(","))


def _osc_grid(sigma_min: float, count: int) -> str:
    sigma_max = sigma_min * math.exp(OSC_PERIODS * 2 * math.pi)
    return f"{sigma_min!r}:{sigma_max!r}:{count}:log"


def theorem_batch(seed: int, root: Path, tiny: bool = False) -> dict:
    """The acceptance batch; other seeds redraw the parameters of its 33 templates.

    All expexp exponents are scaled by one common factor s and the grids of
    expexp instances by 1/s, so every a*sigma (the cost driver and the
    domain limit a*sigma < 700) is unchanged and order ratios are kept.
    Each distinct c, tower rho and osc rho/lambda value is jittered by a
    monotone map, so equalities such as C4's equal orders survive.
    """
    doc = json.loads((root / BATCH_PATH).read_text())
    instances = doc["instances"]
    if len(instances) != BATCH_SIZE:
        raise ValueError(f"{BATCH_PATH} has {len(instances)} instances, expected {BATCH_SIZE}")
    expected = ["vacuous" if i in VACUOUS_INSTANCES else "pass" for i in range(BATCH_SIZE)]
    if seed != DEFAULT_SEED:
        instances = _redraw_batch(random.Random(f"theorem_batch:{seed}"), instances)
    if tiny:
        instances = [instances[i] for i in TINY_BATCH]
        expected = [expected[i] for i in TINY_BATCH]
    return {"workload": "theorem_batch", "seed": seed, "batch": {"instances": instances},
            "expected": expected}


def _redraw_batch(rng: random.Random, instances: list) -> list:
    refs = [_parse(inst[role]) for inst in instances for role in ("f", "g", "h")]
    scale = round(rng.uniform(0.8, 1.25), 4)
    c_map = _jitter(rng, [float(p["c"]) for fam, p in refs if fam == "expexp"], 0.08)
    rho_map = _jitter(rng, [float(p["rho"]) for fam, p in refs if fam == "tower"], 0.1)
    osc_rho = _jitter(rng, [float(p["rho"]) for fam, p in refs if fam == "osc"], 0.1)
    osc_lam = _jitter(rng, [float(p["lam"]) for fam, p in refs if fam == "osc"], 0.1)

    def redraw(ref: str) -> str:
        family, p = _parse(ref)
        if family == "expexp":
            p = {"a": round(float(p["a"]) * scale, 4), "c": c_map[float(p["c"])]}
        elif family == "tower":
            p = dict(p, rho=rho_map[float(p["rho"])])
        elif family == "osc":
            p = dict(p, rho=osc_rho[float(p["rho"])], lam=osc_lam[float(p["lam"])])
        return _shorthand(family, p)

    out = []
    for inst in instances:
        new = dict(inst, f=redraw(inst["f"]), g=redraw(inst["g"]), h=redraw(inst["h"]))
        if any(inst[role].startswith("expexp") for role in ("f", "g", "h")):
            grid = inst["grid"]
            new["grid"] = dict(grid, sigma_min=grid["sigma_min"] / scale,
                               sigma_max=grid["sigma_max"] / scale)
        out.append(new)
    return out


def direct_indicators(seed: int, root: Path, tiny: bool = False) -> dict:
    """`indicator --kind all` and `detect` queries on expexp, tower and osc sources.

    Ranges are the ones tests/test_acceptance.py asserts recovery on:
    expexp a, c in [1, 3] on 5:30:200 at (2, 0) (criteria 1-2) and osc
    on a 600-point log grid over three periods (criterion 4).  The
    expexp queries draw a from equal bands of [1, 3], one per band,
    because the exact-window cost falls with a; that keeps a pass's cost
    steady across seeds.  They are two thirds of the units, so the median
    unit is one of them, and the cheap tower/osc/detect queries sit
    between them in the fixed order.
    """
    rng = random.Random(f"direct_indicators:{seed}")
    bands = 2 if tiny else 8
    grid = "5:20:48" if tiny else "5:30:200"
    expexp = []
    for i in range(bands):
        a = round(rng.uniform(1 + 2 * i / bands, 1 + 2 * (i + 1) / bands), 3)
        c = round(rng.uniform(1.0, 3.0), 3)
        expexp.append(["indicator", "--spec", f"expexp:a={a},c={c}", "--p", "2", "--q", "0",
                       "--sigma", grid, "--kind", "all"])
    a, c = round(rng.uniform(1.0, 3.0), 3), round(rng.uniform(1.0, 3.0), 3)
    k, rho = rng.choice((1, 2, 3)), round(rng.uniform(1.0, 3.0), 3)
    cheap = [["detect", "--spec", f"expexp:a={a},c={c}"],
             ["indicator", "--spec", f"tower:k={k},rho={rho},q=0", "--p", str(k), "--q", "0",
              "--sigma", "5:30:200", "--kind", "all"]]
    for kind in ("indicator", "detect"):
        rho = round(rng.uniform(1.5, 2.5), 3)
        lam = round(rho / rng.uniform(1.5, 2.5), 3)
        spec, osc_grid = f"osc:rho={rho},lam={lam},p=2,q=0", _osc_grid(3.0, 600)
        if kind == "indicator":
            cheap.append(["indicator", "--spec", spec, "--p", "2", "--q", "0",
                          "--sigma", osc_grid, "--kind", "all"])
        else:
            cheap.append(["detect", "--spec", spec, "--sigma", osc_grid])
    units = []
    for i, argv in enumerate(expexp):
        units.append(argv)
        if i % 2 == 1 and cheap:
            units.append(cheap.pop(0))
    return {"workload": "direct_indicators", "seed": seed, "units": units + cheap}


def synthetic_relative(seed: int, root: Path, tiny: bool = False) -> dict:
    """`relative` and `detect --g-spec` on tower-tower and osc-tower pairs.

    Levels k = 2..4, 480-point log grids over three whole periods of
    sin(log sigma).  Relative orders are drawn in [1.3, 3] so the (0, 0)
    pair clears detection's b-threshold of 1.1 with room to spare.
    """
    rng = random.Random(f"synthetic_relative:{seed}")
    count = 96 if tiny else 480
    units = []

    def pair(k: int, osc: bool) -> tuple[str, str, str]:
        rho_g = round(rng.uniform(1.0, 2.0), 3)
        rho_f = round(rho_g * rng.uniform(1.3, 3.0), 3)
        g = f"tower:k={k},rho={rho_g},q=0"
        if osc:
            lam = round(rho_f / rng.uniform(1.5, 2.5), 3)
            f = f"osc:rho={rho_f},lam={lam},p={k},q=0"
        else:
            f = f"tower:k={k},rho={rho_f},q=0"
        return f, g, _osc_grid(round(rng.uniform(3.0, 6.0), 3), count)

    for k in ((2,) if tiny else (2, 3, 4)):
        for osc in (False, True):
            f, g, grid = pair(k, osc)
            units.append(["relative", "--f-spec", f, "--g-spec", g, "--p", "0", "--q", "0",
                          "--sigma", grid])
    for osc in (False, True):
        f, g, grid = pair(2 if tiny else 3, osc)
        units.append(["detect", "--spec", f, "--g-spec", g, "--sigma", grid])
    return {"workload": "synthetic_relative", "seed": seed, "units": units}


GENERATORS = {"theorem_batch": theorem_batch, "direct_indicators": direct_indicators,
              "synthetic_relative": synthetic_relative}


def generate(workload: str, seed: int, root: Path, tiny: bool = False) -> dict:
    return GENERATORS[workload](seed, root, tiny)


def sources(inputs: dict) -> list[str]:
    """Every source reference the workload resolves, in first-use order."""
    refs = []
    if "batch" in inputs:
        for inst in inputs["batch"]["instances"]:
            refs += [inst["f"], inst["g"], inst["h"]]
    else:
        for argv in inputs["units"]:
            refs += [argv[i + 1] for i, a in enumerate(argv) if a in ("--spec", "--f-spec", "--g-spec")]
    return list(dict.fromkeys(refs))
