"""blockscope benchmark: how long users wait for a verified answer, and
which module spends that time.

    python3 perfbench/run.py --workload catalog|theorem_cases|tables
        --seconds S [--seed N] [--trace 0|1] [--repeat N]

Run from the root of a checkout; the program is imported from ``src/``.
A run first times four set-up probes, then runs rounds of the workload,
each in a fresh single-threaded process, until the next round would end
after ``--seconds``.  It always runs at least one round.  With
``--trace 0`` it reports the medians of the end-to-end metrics over the
rounds; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics.  The last line of standard output is one
JSON object; every metric is also printed by name with its unit on
standard error, with the unscaled times next to them.  ``--seconds`` has
no default: the benchmark's command line passes ``run_seconds`` from
BENCHMARK.json.

The time metrics are scaled to a reference machine speed, measured in
the same process by a fixed calibration chunk around every operation
(see ``workload.calibrate``): a shared machine's speed can drift by
20-30 % over tens of seconds.

``--repeat N`` makes N runs with seeds SEED, SEED+1, ... and prints, for each
metric, the median, the quartiles and the spread (quartile distance over
the median), the figures the bounds in BENCHMARK.json were set from.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("catalog", "theorem_cases", "tables")
SETUP_PROBES = 4
# A run that takes longer is stopped, so that it ends within 180 s.
RUN_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "perms.mul_calls": "count", "perms.mul_ns": "ns",
    "recipes.self_s": "s",
    "groups.self_s": "s", "groups.sylow_calls": "count",
    "groups.normalizer_calls": "count", "groups.p_subgroup_classes": "count",
    "cyclotomic.arith_calls": "count", "modp.reduce_calls": "count",
    "chartable.self_s": "s", "chartable.tables_built": "count",
    "chartable.classes_total": "count",
    "blocks.self_s": "s", "blocks.brauer_induce_calls": "count",
    "fusion.self_s": "s", "classify.self_s": "s",
    "catalog.self_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One set-up probe or round in a fresh process; its result object.
    The process is killed at ``deadline`` (a ``perf_counter`` time)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned-at", repr(time.time()),
           "--out", str(OUT / f"{workload}-{seed}")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} round exited {proc.returncode}")
    return json.loads(lines[-1])


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_TIMEOUT_S
    setups = [child(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        began = time.perf_counter()
        plain.append(child(workload, seed, "plain", deadline))
        if trace:
            traced.append(child(workload, seed, "traced", deadline))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break
    rounds = plain + traced
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    median = statistics.median
    if not trace:
        values = {
            "setup_s": median(setups + [r["setup_s"] for r in plain]),
            "wall_s": median(r["wall_s"] for r in plain),
            "cpu_s": median(r["cpu_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    else:
        values = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = median(r["wall_raw_s"] for r in traced)
        values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                      - median(r["wall_s"] for r in plain))
        values["trace.unattributed_s"] = values["trace.wall_s"] - sum(
            v for k, v in values.items() if k.endswith(".self_s"))
        units = PER_LAYER
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    result["rounds"] = len(plain)
    result["round_wall_s"] = [r["wall_s"] for r in plain]
    result["raw"] = {key: median(r[key] for r in plain)
                     for key in ("setup_raw_s", "wall_raw_s", "cpu_raw_s")}
    result["op_s"] = {name: median(r["op_s"][name] for r in plain)
                      for name in plain[0]["op_s"]}
    return result


def quartile_summary(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs with consecutive seeds, summarised per metric")
    args = parser.parse_args(argv)

    if not (SRC / "blockscope" / "__init__.py").is_file():
        print(f"run.py: no blockscope sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        try:
            res = one_run(args.workload, seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        runs.append(res)
        for name, m in res["metrics"].items():
            print(f"seed {seed} {args.workload} {name} {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
        print(f"seed {seed} rounds {res['rounds']} attempted {res['attempted']} "
              f"round wall_s {' '.join(f'{w:.3f}' for w in res['round_wall_s'])} "
              f"unscaled {' '.join(f'{k} {v:.4g}' for k, v in res['raw'].items())} "
              f"failed {res['failed']} correct {res['correct']}", file=sys.stderr)

    if args.repeat == 1:
        res = runs[0]
        print(json.dumps({key: res[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    summary = {name: quartile_summary(r["metrics"][name]["value"] for r in runs)
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    print(json.dumps({
        "workload": args.workload, "seeds": [args.seed, args.seed + args.repeat - 1],
        "correct": all(r["correct"] for r in runs),
        "failed_share": [r["failed"] / r["attempted"] for r in runs],
        "values": {name: [r["metrics"][name]["value"] for r in runs] for name in summary},
        "unscaled": {key: [r["raw"][key] for r in runs] for key in runs[0]["raw"]},
        "op_s": {name: [r["op_s"][name] for r in runs] for name in runs[0]["op_s"]},
        "summary": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
