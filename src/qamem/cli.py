"""Command-line harness for the storage, retrieval, thermodynamics,
mean-field and classical-baseline experiments.

Every command that uses randomness takes an explicit 64-bit --seed and is
byte-deterministic: per-task seeds are derived with a splitmix64 mix (see
:mod:`.seeds`), so the output is identical across runs.  ``phase`` and
``classical`` accept ``--workers`` and ignore it: both run in one thread.
Output goes through :mod:`.emit`: a JSON document is one flat dict of
scalars and columnar tables (the per-pattern entries, sorted by pattern),
and floats are printed with 17 significant digits in both JSON and CSV.
Each command imports the modules it runs when it runs, so a command loads
none that it does not use.
Exit codes: 0 success, 2 validation error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from operator import itemgetter

import numpy as np

from .emit import Table, emit_json, format_float
from .patterns import Mask, Pattern, PatternError, corrupt, read_pattern_file
from .seeds import task_rng

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------- output


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------- parsing


#: largest COUNT a lin: or log: grid may ask for
MAX_GRID_COUNT = 10**6


def _grid_form(spec: str, name: str):
    """A grid spec, checked but not built: ("lin" or "log", LO, HI, COUNT)
    or the list of its values."""
    try:
        if spec.startswith(("lin:", "log:")):
            kind, lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            if count > MAX_GRID_COUNT:
                raise PatternError(
                    f"bad {name} grid {spec!r}: COUNT must be at most {MAX_GRID_COUNT}"
                )
            if count < 2 or not hi > lo or not math.isfinite(hi - lo):
                raise ValueError
            if kind == "log" and lo <= 0:
                raise ValueError
            return kind, lo, hi, count
        values = [float(v) for v in spec.split(",") if v]
        if not values or not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except PatternError:
        raise
    except ValueError:
        raise PatternError(
            f"bad {name} grid {spec!r}: use lin:LO:HI:COUNT, log:LO:HI:COUNT "
            "or a comma-separated list of finite numbers"
        ) from None


def grid_size(spec: str, name: str) -> int:
    """The number of points of a grid spec, checked as :func:`parse_grid`
    checks it, without building them."""
    form = _grid_form(spec, name)
    return form[3] if isinstance(form, tuple) else len(form)


def parse_grid(spec: str, name: str) -> list[float]:
    """Grid syntax: 'lin:LO:HI:COUNT', 'log:LO:HI:COUNT' or 'v1,v2,...'."""
    form = _grid_form(spec, name)
    if isinstance(form, list):
        return form
    kind, lo, hi, count = form
    if kind == "log":
        points = np.logspace(math.log10(lo), math.log10(hi), count)
    else:
        points = np.linspace(lo, hi, count)
    if not (points[1:] > points[:-1]).all():
        raise PatternError(
            f"bad {name} grid {spec!r}: {kind} grid has repeated points: "
            "LO and HI are too close for COUNT"
        )
    return list(points)


def _parse_input(bits: str, n: int) -> Pattern:
    pat = Pattern.from_string(bits)
    if pat.n != n:
        raise PatternError(
            f"input has {pat.n} bits but stored patterns have {n}"
        )
    return pat


def _parse_mask(spec: str | None, n: int) -> Mask | None:
    if spec is None:
        return None
    try:
        indices = [int(v) for v in spec.split(",") if v]
    except ValueError:
        raise PatternError(f"bad mask {spec!r}: comma-separated indices") from None
    mask = Mask.of(*indices)
    mask.validate(n)
    return mask


# ---------------------------------------------------------------- commands


def _by_pattern(strings, **columns) -> Table:
    """One ``{"pattern": s, name: v, ...}`` entry per bit string s and the
    values v aligned with it in the named columns, sorted by the strings:
    an index is sorted by the strings once and gathers every column."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    # itemgetter of one index returns the bare value, not a 1-tuple
    gather = itemgetter(*order) if len(order) > 1 else tuple
    return Table(("pattern", *columns), map(gather, (strings, *columns.values())))


def cmd_store(args) -> int:
    from . import memory

    pattern_set = read_pattern_file(args.patterns)
    if args.dry_run:
        count = memory.memory_gate_count(pattern_set.p, pattern_set.n)
        _write_output(f"gates: {count}\n", args.out)
        return EXIT_OK
    build = memory.build_memory_operator(pattern_set)
    doc = {
        "n": pattern_set.n,
        "p": pattern_set.p,
        "gate_count": build.gate_count,
    }
    if pattern_set.n <= 8:
        amps = build.memory_amplitudes()
        doc["amplitudes"] = _by_pattern(
            [str(pat) for pat in amps],
            re=[amp.real for amp in amps.values()],
            im=[amp.imag for amp in amps.values()],
        )
    _write_output(emit_json(doc) + "\n", args.out)
    return EXIT_OK


def _distribution_doc(dist) -> Table:
    """Entries of a closed-form law, whose support is the pattern set."""
    return _by_pattern(dist.support.strings, prob=dist.prob_array.tolist())


def _report_doc(report, config, seed):
    return {
        "recognized": report.recognized,
        "attempts": report.attempts,
        "output": None if report.output is None else str(report.output),
        "p_rec": report.analytic_p_rec,
        "distribution": _distribution_doc(report.analytic),
        "mode": config.mode,
        "b": config.b,
        "T": config.T,
        "seed": seed,
    }


def cmd_retrieve(args) -> int:
    from . import retrieval

    pattern_set = read_pattern_file(args.patterns)
    input_pattern = _parse_input(args.input, pattern_set.n)
    mask = _parse_mask(args.mask, pattern_set.n)
    if args.corrupt:
        input_pattern = corrupt(input_pattern, args.corrupt, task_rng(args.seed, 0))
    mode = {"repeat": "repeat_measure", "amplify": "amplitude_amplify"}[args.mode]
    config = retrieval.RetrievalConfig(b=args.b, T=args.T, mode=mode, mask=mask)
    report = retrieval.retrieve(
        pattern_set, input_pattern, config, task_rng(args.seed, 1)
    )
    doc = _report_doc(report, config, args.seed)
    doc["input"] = str(input_pattern)
    _write_output(emit_json(doc) + "\n", args.out)
    return EXIT_OK


def cmd_distribution(args) -> int:
    from . import retrieval

    pattern_set = read_pattern_file(args.patterns)
    input_pattern = _parse_input(args.input, pattern_set.n)
    mask = _parse_mask(args.mask, pattern_set.n)
    try:
        dist = retrieval.analytic_distribution(pattern_set, input_pattern, args.b, mask)
    except retrieval.WeightUnderflowError as exc:
        return _numeric_failure(exc)
    doc = {
        "input": str(input_pattern),
        "b": args.b,
        "p_rec": dist.p_rec,
        "Z": dist.Z,
        "distribution": _distribution_doc(dist),
    }
    _write_output(emit_json(doc) + "\n", args.out)
    return EXIT_OK


def _numeric_failure(exc) -> int:
    sys.stderr.write(f"qamem: numeric failure: {exc}\n")
    return EXIT_NUMERIC


def cmd_thermo(args) -> int:
    from . import thermo

    grid = parse_grid(args.b_grid, "b")
    try:
        scan = thermo.scan_transition(args.d_over_n, args.n, grid)
    except (thermo.UndefinedPotentialsError, thermo.UnattainableTargetError) as exc:
        return _numeric_failure(exc)
    _write_output(scan.to_csv(), args.out)
    return EXIT_OK


def cmd_tune(args) -> int:
    from . import thermo

    try:
        result = thermo.tune(args.epsilon, args.nu, args.n)
    except (thermo.UndefinedPotentialsError, thermo.UnattainableTargetError) as exc:
        return _numeric_failure(exc)
    doc = {
        "b": result.b,
        "T_repeat": result.T_repeat,
        "T_amplified": result.T_amplified,
        "achieved_D": result.achieved_D,
    }
    _write_output(emit_json(doc) + "\n", args.out)
    return EXIT_OK


def cmd_phase(args) -> int:
    from . import meanfield

    # refuse a scan of too many cells before either grid is built
    meanfield.check_cell_count(grid_size(args.alpha_grid, "alpha"), grid_size(args.jt_grid, "Jt"))
    alpha_grid = parse_grid(args.alpha_grid, "alpha")
    jt_grid = parse_grid(args.jt_grid, "Jt")
    diagram = meanfield.scan_phase_diagram(alpha_grid, jt_grid)
    text = diagram.to_csv()
    jt_near_one = min(diagram.Jt_grid, key=lambda j: abs(j - 1.0))
    boundary = diagram.max_retrieval_alpha(Jt=jt_near_one)
    summary = (
        f"max retrieval alpha at Jt={format_float(jt_near_one)}: "
        f"{'none' if boundary is None else format_float(boundary)}\n"
    )
    if args.out:
        _write_output(text, args.out)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    return EXIT_OK


def cmd_classical(args) -> int:
    from . import classical

    alpha_grid = parse_grid(args.alpha_grid, "alpha")
    table = classical.capacity_experiment_seeded(
        args.n,
        alpha_grid,
        trials=args.trials,
        corruption=args.corruption,
        seed=args.seed,
    )
    _write_output(table.to_csv(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_common(sub, patterns=False, seed=False, workers=False):
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if patterns:
        sub.add_argument(
            "--patterns", required=True, help="pattern file, one bit-string per line"
        )
    if seed:
        sub.add_argument(
            "--seed", type=int, required=True, help="64-bit master seed"
        )
    if workers:
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="ignored: the scan runs in one thread; output does not depend on it",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamem",
        description="probabilistic quantum associative memory toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("store", help="build the memory state from a pattern file")
    _add_common(s, patterns=True)
    s.add_argument("--dry-run", action="store_true", help="print gate count only")
    s.set_defaults(func=cmd_store)

    s = subs.add_parser("retrieve", help="run seeded probabilistic retrieval")
    _add_common(s, patterns=True, seed=True)
    s.add_argument("--input", required=True, help="input bit string")
    s.add_argument(
        "--corrupt", type=int, default=0, help="flip this many random input bits"
    )
    s.add_argument("--mask", help="comma-separated known-bit indices")
    s.add_argument("--b", type=int, default=1, help="control qubits (default 1)")
    s.add_argument("--T", type=int, default=1, help="attempt threshold (default 1)")
    s.add_argument(
        "--mode", choices=("repeat", "amplify"), default="repeat",
        help="repeat-until-recognized or amplitude amplification",
    )
    s.set_defaults(func=cmd_retrieve)

    s = subs.add_parser(
        "distribution", help="analytic recognition/output distribution (no RNG)"
    )
    _add_common(s, patterns=True)
    s.add_argument("--input", required=True, help="input bit string")
    s.add_argument("--mask", help="comma-separated known-bit indices")
    s.add_argument("--b", type=int, default=1, help="control qubits (default 1)")
    s.set_defaults(func=cmd_distribution)

    s = subs.add_parser("thermo", help="effective-distance/entropy scan over b")
    _add_common(s)
    s.add_argument("--d-over-n", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument(
        "--b-grid", default="log:0.01:100000:29",
        help="lin:LO:HI:COUNT, log:LO:HI:COUNT or comma list",
    )
    s.set_defaults(func=cmd_thermo)

    s = subs.add_parser("tune", help="smallest b meeting an accuracy target")
    _add_common(s)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--nu", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_tune)

    s = subs.add_parser("phase", help="mean-field phase diagram scan")
    _add_common(s, workers=True)
    s.add_argument("--alpha-grid", default="lin:0.02:1.2:60")
    s.add_argument("--jt-grid", default="lin:0.2:12:60")
    s.set_defaults(func=cmd_phase)

    s = subs.add_parser("classical", help="classical Hopfield capacity experiment")
    _add_common(s, seed=True, workers=True)
    s.add_argument("--n", type=int, default=500)
    s.add_argument("--alpha-grid", default="lin:0.05:0.25:5")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument(
        "--corruption", type=float, default=0.05, help="input corruption rate"
    )
    s.set_defaults(func=cmd_classical)

    return parser


#: built once per process; parse_args does not change it
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if getattr(args, "seed", None) is not None and not 0 <= args.seed < 2**64:
        PARSER.exit(EXIT_VALIDATION, "qamem: seed must fit in 64 bits\n")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # module error types are ValueError subclasses (bad files, bad ranges)
        sys.stderr.write(f"qamem: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
