"""One round of a workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --mode setup|plain|traced
        --spawned-at UNIX_TIME --out DIR

``run.py`` starts this once per set-up probe and once per round.  The
round builds its inputs from the seed, runs every operation through
blockscope's public entry points, stops the clock, and only then checks
the outputs against ``oracles``.  The last line of standard output is one
JSON object with the round's figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG_FILE = ROOT / "src" / "blockscope" / "data" / "catalog.json"

# ---------------------------------------------------------------------------
# inputs

# Entries of the shipped catalog left out of the catalog workload: W384
# alone takes longer (about 45 s) than one run may measure.
CATALOG_LEFT_OUT = ("W384",)


def _cyclic(n):
    return {"kind": "cyclic", "n": n}


def _direct(a, b):
    return {"kind": "direct", "a": a, "b": b}


# The theorem_cases pool: (core, cyclic factors of A).  Every core but
# L192 = (Z8 x Z8) : Z3 appears, and every paper label.  Bound: one analysis
# takes about 4 s at most, so no group dominates a round.  Cases left out by
# the bound (single-process seconds): L192 25, G96xZ2 19.5, A4xZ8 10,
# S5xZ4 7, L48xZ2 7 (it is in the catalog workload), S4xZ4 5.
THEOREM_POOL = (
    ("A4", ()), ("A5", ()), ("S4", ()), ("S5", ()), ("L48", ()), ("G96", ()),
    ("A5", (2,)), ("A4", (4,)), ("A5", (2, 2)), ("S4", (2,)), ("S5", (2,)),
)

# The tables workload: big global tables, no fusion or classification.
# S8 is left out: its table alone takes 13 s, a full round.
TABLE_GROUPS = (
    ("S7", ("symmetric", 7)),
    ("A8", ("alternating", 8)),
    ("A5xA5", ("direct", ("alternating", 5), ("alternating", 5))),
    ("Z4wrZ4", ("wreath", 4, 4)),
    ("Z8wrZ2", ("wreath", 8, 2)),
)


def _recipe_of_spec(spec):
    kind = spec[0]
    if kind in ("symmetric", "alternating"):
        return {"kind": kind, "n": spec[1]}
    if kind == "wreath":
        return {"kind": "wreath", "base": _cyclic(spec[1]), "top": _cyclic(spec[2])}
    return _direct(_recipe_of_spec(spec[1]), _recipe_of_spec(spec[2]))


def _core_recipes():
    with open(CATALOG_FILE, encoding="utf-8") as fh:
        entries = {e["name"]: e["recipe"] for e in json.load(fh)["entries"]}
    return {core: entries[core] for core, _ in THEOREM_POOL}


def prepare(workload: str, seed: int, out: Path) -> dict:
    """The workload's inputs, made from the seed; files go under out."""
    for stale in out.glob("report_*.json"):
        stale.unlink()
    rng = random.Random(seed)
    if workload == "catalog":
        with open(CATALOG_FILE, encoding="utf-8") as fh:
            catalog = json.load(fh)
        ops = [{"name": e["name"], "seed": rng.randrange(2**31),
                "report": str(out / f"report_{e['name']}.json")}
               for e in catalog["entries"] if e["name"] not in CATALOG_LEFT_OUT]
        return {"catalog": catalog, "ops": ops}
    if workload == "theorem_cases":
        # The order is fixed: module-level memos make peak memory depend on it.
        recipes = _core_recipes()
        ops = []
        for core, factors in THEOREM_POOL:
            name = core + "".join(f"xZ{n}" for n in factors)
            recipe = recipes[core]
            for n in factors:
                recipe = _direct(recipe, _cyclic(n))
            path = out / f"case_{name}.json"
            path.write_text(json.dumps(recipe))
            ops.append({"name": name, "core": core, "a_order": math.prod(factors),
                        "recipe": str(path), "report": str(out / f"report_{name}.json"),
                        "seed": rng.randrange(2**31)})
        return {"ops": ops}
    if workload == "tables":
        # The seed changes nothing here: relabelling the points changes the
        # base that Schreier-Sims picks, and the cost with it by 25 %, and
        # reordering the groups moves peak memory by 10 %.
        return {"ops": [{"name": name, "spec": spec, "recipe": _recipe_of_spec(spec)}
                        for name, spec in TABLE_GROUPS]}
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# machine speed

# A shared machine's speed can drift by 20-30 % over tens of seconds (on two
# shared Xeon vCPUs a fixed loop took from 0.25 s to 0.47 s), which no bound
# could absorb.  A fixed chunk of pure-Python work that does not touch
# blockscope runs before the first operation and after each one; every
# operation's time is scaled by CAL_REF_S over the mean of the two chunks
# around it.  Times are thus seconds at the speed at which the chunk takes
# CAL_REF_S.  The chunk mixes
# what the program spends its time on: tuples composed through generators
# (as Perm.__mul__ does), tuple hashing, set and dict traffic and Fraction
# arithmetic.  Over twelve rounds of theorem_cases the per-round spread was
# 0.14 unscaled, 0.04 with this mix and 0.14 with a chunk of list-built
# tuples and dict stores alone; on tables 0.21, 0.08 and 0.06.
CAL_REF_S = 0.1
CAL_STEPS = 30000
_CAL_RNG = random.Random(0)
_CAL_PERMS = [tuple(_CAL_RNG.sample(range(24), 24)) for _ in range(64)]


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of the fixed calibration chunk.

    The cyclic garbage collector is off meanwhile: a collection would walk
    the program's heap and tie the chunk's time to the workload's memory.
    Its own containers hold at most 256 entries, so that it adds next to
    nothing to the process's peak memory.
    """
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        by_step, prefixes = {}, set()
        acc, mixed, frac = _CAL_PERMS[0], 0, Fraction(0)
        for i in range(CAL_STEPS):
            b = _CAL_PERMS[i & 63]
            acc = tuple(b[j] for j in acc)
            mixed ^= hash(acc)
            if acc in prefixes:
                mixed += 1
            prefixes.add(acc[:6])
            by_step[i & 255] = acc
            if i & 255 == 255:
                prefixes.clear()
            if i & 15 == 0:
                frac += Fraction(i & 7, 1 + (i & 3))
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# operations (timed)


def _call_cli(argv):
    """Exit code of one CLI call; None when it raised instead of exiting."""
    from blockscope.cli import main

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def op_catalog(op):
    return _call_cli(["catalog", "--filter", op["name"], "--seed", str(op["seed"]),
                      "--out", op["report"]])


def op_theorem_case(op):
    return _call_cli(["analyze", "--group", op["recipe"], "--seed", str(op["seed"]),
                      "--out", op["report"]])


def op_table(op):
    from blockscope.blocks import block_distribution
    from blockscope.chartable import character_table
    from blockscope.recipes import construct_group, recipe_from_json

    try:
        group = construct_group(recipe_from_json(op["recipe"]))
        table = character_table(group)
        blocks = block_distribution(table, 2)
        return {"order": group.order, "degrees": list(table.degrees),
                "block_k": [b.k for b in blocks], "block_l": [b.l for b in blocks]}
    except Exception as exc:  # an operation that raises counts as failed
        return {"error": f"{type(exc).__name__}: {exc}"}


OPS = {"catalog": op_catalog, "theorem_cases": op_theorem_case, "tables": op_table}


def run_ops(workload: str, ops):
    """Run every operation between calibration chunks.

    Returns (outputs by name, raw and speed-scaled wall and CPU seconds by
    name, the first chunk's wall seconds).
    """
    run_op = OPS[workload]
    outputs, times = {}, {}
    before = calibrate()
    first_chunk = before[0]
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        outputs[op["name"]] = run_op(op)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        after = calibrate()
        times[op["name"]] = {
            "wall_raw": wall, "cpu_raw": cpu,
            "wall": wall * 2 * CAL_REF_S / (before[0] + after[0]),
            "cpu": cpu * 2 * CAL_REF_S / (before[1] + after[1]),
        }
        before = after
    return outputs, times, first_chunk


# ---------------------------------------------------------------------------
# checks (after the clock stops)


def check(workload: str, inputs: dict, outputs: dict):
    """(attempted, failed, problems) for one round."""
    import oracles

    problems = []
    if workload == "catalog":
        items, failed = [], 0
        for op in inputs["ops"]:
            code = outputs[op["name"]]
            try:
                with open(op["report"], encoding="utf-8") as fh:
                    entries = json.load(fh)["entries"]
            except (OSError, json.JSONDecodeError, KeyError):
                entries = None
            if code not in (0, 1) or entries is None or any(
                    e.get("status") == "errored" for e in entries):
                failed += 1
                continue
            if code != 0:
                problems.append(f"{op['name']}: exit code {code}")
            if [e["name"] for e in entries] != [op["name"]]:
                problems.append(f"{op['name']}: report lists "
                                f"{[e['name'] for e in entries]}")
            items += entries
        problems += oracles.check_catalog_report(items, inputs["catalog"])
        return len(inputs["ops"]), failed, problems
    if workload == "theorem_cases":
        cores = oracles.load_cores(CATALOG_FILE)
        failed = 0
        for op in inputs["ops"]:
            code = outputs[op["name"]]
            try:
                with open(op["report"], encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, json.JSONDecodeError):
                report = None
            # Exit 1 without a report is an error raised inside analyze_group.
            if code not in (0, 1) or report is None:
                failed += 1
                continue
            if code != 0:
                problems.append(f"{op['name']}: exit code {code}")
            expected = oracles.expected_case(cores[op["core"]], op["a_order"])
            problems += oracles.check_case(op["name"], expected, report)
        return len(inputs["ops"]), failed, problems
    failed = 0
    for op in inputs["ops"]:
        got = outputs[op["name"]]
        if "error" in got:
            failed += 1
            print(f"{op['name']}: {got['error']}", file=sys.stderr)
            continue
        problems += oracles.check_table(op["name"], oracles.table_facts(op["spec"]), got)
    return len(inputs["ops"]), failed, problems


# ---------------------------------------------------------------------------
# the per-product cost of the permutation kernel


def mul_ns(degree: int, products: int = 20000) -> float:
    """Median ns per Perm product over five passes of a fixed sample."""
    from blockscope.perms import Perm

    rng = random.Random(12345)
    sample = []
    for _ in range(64):
        points = list(range(degree))
        rng.shuffle(points)
        sample.append(Perm(points))
    pairs = [(sample[i % 64], sample[(7 * i + 3) % 64]) for i in range(products)]
    passes = []
    for _ in range(5):
        t = time.perf_counter_ns()
        for a, b in pairs:
            a * b
        passes.append((time.perf_counter_ns() - t) / products)
    return sorted(passes)[2]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import blockscope  # noqa: F401  (import cost belongs to set-up)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = prepare(args.workload, args.seed, out)
    setup_raw = time.time() - args.spawned_at
    if args.mode == "setup":
        chunk = calibrate()[0]
        print(json.dumps({"setup_s": setup_raw * CAL_REF_S / chunk,
                          "setup_raw_s": setup_raw}))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        for name in tracer.install():
            print(f"trace: skipped {name}: not found", file=sys.stderr)

    outputs, times, first_chunk = run_ops(args.workload, inputs["ops"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_raw * CAL_REF_S / first_chunk,
        "setup_raw_s": setup_raw,
        "peak_rss_mb": peak_rss_mb,
        "op_s": {name: t["wall"] for name, t in times.items()},
        "op_raw_s": {name: t["wall_raw"] for name, t in times.items()},
    }
    for key in ("wall", "cpu"):
        result[f"{key}_s"] = sum(t[key] for t in times.values())
        result[f"{key}_raw_s"] = sum(t[f"{key}_raw"] for t in times.values())
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["layers"]["perms.mul_ns"] = mul_ns(tracer.max_degree)
        tracer.write_spans(out / f"spans_{args.workload}_{args.seed}.jsonl")

    attempted, failed, problems = check(args.workload, inputs, outputs)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result.update({"attempted": attempted, "failed": failed, "correct": not problems})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
