"""qamem benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {circuit,queries,analytics} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qamem is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(setup_s, run_s, peak_rss_mb); with --trace 1 they are the per-layer ones
of tracing.METRICS.  See README.md in this directory.
"""
from __future__ import annotations

import os

# one compute thread: set before numpy is imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: run files: temporary inputs of each process and the traced run's spans
WORK = ROOT / ".perfbench"
#: set-up is repeated this many times, each in a fresh interpreter
SETUP_PROBES = 5
#: Nominal time of reference_loop().  The speed of a shared virtual machine
#: can drift by up to 1.9x over tens of seconds, for wall and CPU time alike,
#: so run_s and setup_s rescale each timed step by REF_LOOP_S over the mean
#: time of the reference loops run just before and after it: seconds at a
#: fixed machine speed.
REF_LOOP_S = 0.025
WORKLOADS = ("circuit", "queries", "analytics")

sys.path.insert(0, str(SRC))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


@functools.cache
def _ref_arrays():
    """Two 8 MB arrays, as large as thermo's at n = 1e6: memory bandwidth
    varies with the machine's load apart from the interpreter's speed.
    Allocated once, they add a constant 16 MB to the resident set instead of
    a transient peak between steps."""
    import numpy as np

    return np.arange(1, 1_000_001, dtype=np.float64) * 1e-7, np.empty(1_000_000)


def reference_loop() -> float:
    """Wall time of a fixed mix of dict-heavy Python and numpy work.

    Run before and after every timed step, it measures how fast the machine
    is at that moment; see REF_LOOP_S.
    """
    import numpy as np

    x, buf = _ref_arrays()
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(30_000):
        d[i * 7919 % 100_003] = d.get(i % 1000, 0) + 1
    np.cos(x, out=buf)
    np.log(buf, out=buf)
    float(buf.sum())
    return time.perf_counter() - t0


def corrected(wall: float, ref: float) -> float:
    """Wall seconds rescaled to the speed at which the reference loop takes REF_LOOP_S."""
    return wall * REF_LOOP_S / ref


class Rounds:
    """Per-step wall times of whole rounds, each step paired with a reference loop."""

    def __init__(self):
        self.steps: dict[str, list[tuple[float, float]]] = {}
        self.raw: list[float] = []

    def run(self, wl):
        out, raw = {}, 0.0
        ref = reference_loop()
        for key, fn in wl.steps():
            t0 = time.perf_counter()
            out[key] = fn()
            wall = time.perf_counter() - t0
            ref_after = reference_loop()
            raw += wall
            # the machine's speed during the step: the loops on either side
            self.steps.setdefault(key, []).append((wall, (ref + ref_after) / 2))
            ref = ref_after
        self.raw.append(raw)
        return out

    def step_medians(self) -> dict[str, float]:
        return {key: statistics.median(corrected(w, r) for w, r in v) for key, v in self.steps.items()}

    def run_s(self) -> float:
        """Sum over the steps of each step's median corrected time."""
        return sum(self.step_medians().values())

    def until(self, wl, deadline: float, ref_summary, ck) -> int:
        """Run whole rounds until the deadline, at least one; returns operations attempted."""
        ops = 0
        while not self.raw or time.perf_counter() < deadline:
            out = self.run(wl)
            ops += wl.ops_per_round
            ck.true(wl.summary(out) == ref_summary, f"round {len(self.raw)} differs from the first round")
            del out
        return ops


def setup_probe(args) -> int:
    """Child process: import qamem, build the workload's inputs, report, exit."""
    t0 = time.perf_counter()
    import qamem.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"ready {import_s!r}", flush=True)
    finally:
        shutil.rmtree(workdir)
    return 0


def scipy_import_s(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in -X importtime output."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((int(cumulative), len(name) - len(name.lstrip()), name.strip()))
    total, ancestors = 0, []
    for cumulative, indent, name in reversed(entries):  # parents before children
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in ancestors):
            total += cumulative
        ancestors.append((indent, is_scipy))
    return total / 1e6


def probe_setup(args, importtime: bool) -> tuple[float, float, float, float]:
    """One set-up in a fresh interpreter: (corrected seconds from interpreter
    start to ready, qamem import s, scipy import s, uncorrected seconds)."""
    env = dict(os.environ)
    err_path = WORK / f"importtime-{os.getpid()}.txt"
    if importtime:
        env["PYTHONPROFILEIMPORTTIME"] = "1"
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    ref_before = reference_loop()
    # the import profile goes to a file: through a pipe it could fill the
    # pipe buffer before the child prints its ready line
    with open(err_path, "w") if importtime else contextlib.nullcontext() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
        line = ""
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            if proc.poll() is None and not line:
                proc.kill()
            proc.wait()
    ref = (ref_before + reference_loop()) / 2
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    scipy_s = 0.0
    if importtime:
        scipy_s = scipy_import_s(err_path.read_text())
        err_path.unlink()
    return corrected(elapsed, ref), float(line.split()[1]), scipy_s, elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qamem" / "__init__.py").is_file():
        print(f"run.py: no qamem source under {SRC}; run from the root of a qamem checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import oracles
    import selftest

    problems = selftest.run()
    if problems:
        print("run.py: output checks do not detect planted faults:", *problems, sep="\n  ", file=sys.stderr)
        return 3

    probes = [probe_setup(args, importtime=bool(args.trace)) for _ in range(SETUP_PROBES)]

    import qamem
    import workloads

    if Path(qamem.__file__).resolve().parent != SRC / "qamem":
        print(f"run.py: qamem imported from {qamem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ck = oracles.Checks()
        # the first round is a warm-up (lazy imports, caches) and is checked
        # in full; the timed rounds must reproduce its outputs exactly
        first = Rounds().run(wl)
        wl.check(ck, first)
        ref_summary = wl.summary(first)
        del first
        attempted = wl.ops_per_round
        start = time.perf_counter()
        plain = Rounds()
        if not args.trace:
            attempted += plain.until(wl, start + args.seconds, ref_summary, ck)
            metrics = {
                "setup_s": (statistics.median(p[0] for p in probes), "s"),
                "run_s": (plain.run_s(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"{args.workload}: {len(plain.raw)} timed rounds, uncorrected round wall times "
                  f"{[round(t, 4) for t in plain.raw]}, uncorrected set-up times {[round(p[3], 4) for p in probes]}, "
                  f"corrected step medians {plain.step_medians()}", file=sys.stderr)
        else:
            import tracing

            attempted += plain.until(wl, start + args.seconds / 2, ref_summary, ck)
            traced = Rounds()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                attempted += traced.until(wl, start + args.seconds, ref_summary, ck)
            finally:
                tracer.uninstall()
            setup = {
                "qamem_import_s": statistics.median(p[1] for p in probes),
                "scipy_import_s": statistics.median(p[2] for p in probes),
            }
            values, notes = tracer.metrics(len(traced.raw), setup, traced.run_s() - plain.run_s())
            notes.update(workload=args.workload, seed=args.seed, untraced_rounds=len(plain.raw),
                         untraced_run_s=plain.run_s(), traced_run_s=traced.run_s())
            missing = [layer for layer in wl.LAYERS if not notes["span_counts"].get(layer)]
            if missing:
                print(f"run.py: no spans recorded for layers {missing}", file=sys.stderr)
                return 4
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json.gz", notes)
            print(json.dumps(notes), file=sys.stderr)
            metrics = {name: (values[name], unit) for name, unit in tracing.METRICS.items()}
    finally:
        shutil.rmtree(workdir)

    for line in ck.errors:
        print("CHECK FAILED:", line, file=sys.stderr)
    result = {
        "correct": ck.ok,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
