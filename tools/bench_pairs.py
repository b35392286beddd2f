"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/bench_pairs.py --pairs 10 --seconds 25 --parent-dir DIR
        [--change-dir DIR] [--workloads circuit queries analytics] [--seeds S ...]
        [--out FILE]

Each pair runs ``perfbench/run.py --trace 0`` once on each side, one run
after the other, on one seed; even pairs run the parent first and odd pairs
the change.  Pair i of a workload uses the i-th of ``--seeds``, by default
i + 1.  The parent is the checkout ``--parent-dir`` (for example a
``git archive`` of the parent commit unpacked in a directory of its own);
the change is ``--change-dir``, by default this checkout.
Only run one batch at a time on an otherwise idle machine.

The JSON document printed (or written to ``--out``) holds a ``summary`` in
the shape the ``BENCH_*.json`` files use: per workload its seeds, failed
operations, whether every run was correct, and per end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles (``statistics.quantiles``,
inclusive), ``change_lower_in``, ``ratio_of_medians``, ``parent_iqr`` and
``median_gap`` (the change's gain in the median: positive when it is better),
and the median over runs of each step median that run.py prints.  ``runs``
lists every run.
"""
from __future__ import annotations

import argparse
import ast
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("circuit", "queries", "analytics")
STEP_MEDIANS = "corrected step medians "


def parse_run(stdout: str, stderr: str) -> tuple[dict | None, dict]:
    """run.py's result (the last line of stdout, or None if it printed no
    JSON object there) and its corrected step medians from stderr."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    steps = {}
    for line in stderr.splitlines():
        if STEP_MEDIANS in line:
            steps = ast.literal_eval(line.split(STEP_MEDIANS, 1)[1])
    return (result if isinstance(result, dict) else None), steps


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py process in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    result, steps = parse_run(done.stdout, done.stderr)
    return {"wall": round(time.perf_counter() - start, 2), "exit": done.returncode,
            "result": result, "step_medians": steps}


def quartiles(values) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(parent, change, better: str) -> dict:
    """One metric over the pairs: each side's quartiles, the pairs in which
    the change reads better, and the median gap against the parent's IQR."""
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "pairs": len(parent),
        "change_lower_in": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "ratio_of_medians": c["median"] / p["median"],
        "parent_iqr": p["q3"] - p["q1"],
        "median_gap": sign * (p["median"] - c["median"]),
    }


def batch(sides: dict, workloads, seeds, seconds: float, metrics, runner=perfbench_run):
    """Run the pairs workload by workload; return the runs and the summary.

    ``sides`` maps "parent" and "change" to checkouts, ``seeds`` gives the
    pairs' seeds and ``metrics`` the (name, better) of each end-to-end
    metric; ``runner(checkout, workload, seed, seconds)`` makes one run.
    """
    runs, summary = [], {}
    for workload in workloads:
        mine = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = runner(sides[side], workload, seed, seconds)
                mine.append({"workload": workload, "seed": seed, "side": side, "first": order[0], **run})
        runs += mine
        summary[workload] = summarize(mine, metrics)
    return runs, summary


def summarize(runs, metrics) -> dict:
    """The summary of one workload's runs, listed pair by pair."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    results = [r["result"] for r in runs]
    out = {
        "seeds": sorted({r["seed"] for r in runs}),
        "failed_ops": sum(r["failed"] for r in results if r),
        "all_correct": all(r and r["correct"] for r in results) and all(r["exit"] == 0 for r in runs),
    }
    if not all(results):
        return out
    for name, better in metrics:
        parent, change = ([r["result"]["metrics"][name]["value"] for r in by_side[side]] for side in by_side)
        out[name] = compare(parent, change, better)
    steps = sorted({k for r in runs for k in r["step_medians"]})
    out["step_medians"] = {
        side: {k: statistics.median(r["step_medians"][k] for r in mine if k in r["step_medians"]) for k in steps}
        for side, mine in by_side.items()
    }
    return out


def end_to_end(checkout: Path):
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in declared["end_to_end"]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", help="the pairs' seeds, one per pair")
    ap.add_argument("--parent-dir", type=Path, required=True, help="a checkout of the parent")
    ap.add_argument("--change-dir", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if args.seeds is None:
        args.seeds = list(range(1, args.pairs + 1))
    elif len(args.seeds) != args.pairs:
        ap.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")
    return args


def main(argv=None, runner=perfbench_run) -> int:
    args = parse_args(argv)
    change = args.change_dir.resolve()
    sides = {"parent": args.parent_dir.resolve(), "change": change}
    runs, summary = batch(sides, args.workloads, args.seeds, args.seconds, end_to_end(change), runner)
    document = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": "pairs run one after another, alternating which side runs first "
                    "(even pair index: parent first); quartiles by statistics.quantiles(method='inclusive')",
        "machine": {"cpu": platform.machine(), "python": platform.python_version(), "os": platform.platform()},
        "summary": summary,
        "runs": runs,
    }
    text = json.dumps(document, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if all(s["all_correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
