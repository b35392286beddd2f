import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qamem
from qamem import meanfield, retrieval, seeds
from qamem.classical import MAX_CAPACITY_ELEMENTS
from qamem.thermo import MAX_N
from qamem.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_GRID_COUNT,
    emit_json,
    format_float,
    main,
    parse_grid,
)

SRC = Path(qamem.__file__).parents[1]


def run_process(*argv, code="import sys; from qamem.cli import main; sys.exit(main())"):
    """Run the CLI (or other code) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.fixture
def pattern_file(tmp_path):
    f = tmp_path / "patterns.txt"
    f.write_text("000\n111\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelpers:
    def test_format_float_17_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(0.5) == "0.5"

    def test_emit_json_roundtrips(self):
        doc = {"a": 1, "b": [0.25, None, True], "s": 'he said "hi"'}
        assert json.loads(emit_json(doc)) == doc

    def test_derive_seed_validation(self):
        with pytest.raises(ValueError, match="master seed must fit in 64 bits"):
            seeds.derive_seed(2**64, 0)
        with pytest.raises(ValueError, match="task index must be >= 0, got -1"):
            seeds.derive_seed(0, -1)

    def test_parse_grid_forms(self):
        assert parse_grid("1,2.5,4", "x") == [1.0, 2.5, 4.0]
        lin = parse_grid("lin:0:1:5", "x")
        assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        log = parse_grid("log:1:100:3", "x")
        assert log == pytest.approx([1.0, 10.0, 100.0])

    def test_parse_grid_rejects_bad(self):
        for bad in ("", "lin:1:0:5", "log:-1:1:3", "lin:0:1:1", "a,b", "nan",
                    "1,inf", "-inf,0", "lin:0:inf:3", "log:1:inf:3", "lin:nan:1:3"):
            with pytest.raises(ValueError):
                parse_grid(bad, "x")


    def test_grid_count_bounded_before_allocating(self):
        huge = "lin:0:1:1000000000000"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"bad alpha grid '{huge}'"):
                parse_grid(huge, "alpha")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 2**20
        for kind in ("lin", "log"):
            with pytest.raises(ValueError, match=f"at most {MAX_GRID_COUNT}"):
                parse_grid(f"{kind}:1:2:{MAX_GRID_COUNT + 1}", "x")
            assert len(parse_grid(f"{kind}:1:2:{MAX_GRID_COUNT}", "x")) == MAX_GRID_COUNT

    def test_huge_grid_count_exits_2(self, capsys):
        code, out, err = run(capsys, "phase", "--alpha-grid", "lin:0:1:1000000000000")
        assert code == EXIT_VALIDATION and out == ""
        assert "bad alpha grid 'lin:0:1:1000000000000'" in err

    def test_too_many_phase_cells_exit_2(self, capsys):
        """Two grids within MAX_GRID_COUNT whose cells exceed the scan's
        limit exit 2 with a message, not with a MemoryError."""
        code, out, err = run(capsys, "phase", "--alpha-grid", "lin:0.01:1:400", "--jt-grid", "lin:0.1:10:400")
        assert code == EXIT_VALIDATION and out == ""
        assert "400 x 400 grid has more than" in err

    @pytest.mark.parametrize("alpha, jt, shape", [
        ("lin:0.01:1:1000000", "lin:0.1:10:1000000", "1000000 x 1000000"),
        ("log:0.01:1:1000000", "0.5,1,2", "1000000 x 3"),
    ])
    def test_too_many_phase_cells_refused_before_any_grid(self, capsys, alpha, jt, shape):
        """A pair of grids of more than MAX_PHASE_CELLS cells exits 2 with
        a message before either grid is built, in little memory."""
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "phase", "--alpha-grid", alpha, "--jt-grid", jt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION and out == ""
        assert f"a {shape} grid has more than {meanfield.MAX_PHASE_CELLS} cells" in err
        assert peak < 2**20


class TestProcess:
    def test_in_process_sequence_matches_separate_calls(self, capsys, pattern_file):
        requests = [
            ["thermo", "--d-over-n", "0.1", "--n", "1000", "--b-grid", "log:0.1:100:5"],
            ["phase", "--alpha-grid", "0.05,0.5", "--jt-grid", "0.3,1,9"],
            ["retrieve", "--patterns", pattern_file, "--input", "001", "--b", "2",
             "--T", "3", "--seed", "7"],
        ]
        requests.append(requests[0])
        separate = []
        for argv in requests:
            proc = run_process(*argv)
            assert proc.returncode == EXIT_OK
            separate.append((proc.stdout, proc.stderr))
        for argv, want in zip(requests, separate):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (EXIT_OK, *want)
            # a rejected request in between changes nothing for the next one
            code, out, _ = run(capsys, "phase", "--alpha-grid", "nan")
            assert code == EXIT_VALIDATION and out == ""

    def test_import_loads_no_scipy(self):
        proc = run_process(
            code="import sys, qamem.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_source_has_no_scipy_or_module_level_lru_cache(self):
        """Also: every import sits at module level, except that each CLI
        command starts by importing the package modules it runs, and only
        the emitter module spells out the 17-digit float format."""
        for path in sorted((SRC / "qamem").glob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text)
            local = [  # a command's first statement: from . import ...
                f.body[0] for f in tree.body
                if path.name == "cli.py" and isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")
                and isinstance(f.body[0], ast.ImportFrom) and f.body[0].level == 1 and f.body[0].module is None
            ]
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), path
                assert node in tree.body or node in local, (path, node.lineno, "function-local import")
            if path.name != "emit.py":
                assert ".17g" not in text, path
            for node in tree.body:
                for deco in getattr(node, "decorator_list", ()):
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "attr", getattr(target, "id", ""))
                    assert name not in ("lru_cache", "cache"), (path, node.name)


class TestStore:
    def test_dry_run_gate_count(self, capsys, pattern_file):
        code, out, _ = run(capsys, "store", "--patterns", pattern_file, "--dry-run")
        assert code == EXIT_OK
        assert out == "gates: 19\n"

    def test_dry_run_refuses_lone_cr(self, capsys, tmp_path):
        """A lone CR is no line end: the file is refused, not read as the
        two patterns 01 and 10."""
        f = tmp_path / "p.txt"
        f.write_bytes(b"01\r10\n")
        code, out, err = run(capsys, "store", "--patterns", str(f), "--dry-run")
        assert code == EXIT_VALIDATION and out == ""
        assert f"{f}:1: non-binary character in '01\\r10'" in err

    def test_full_output_amplitudes(self, capsys, pattern_file):
        code, out, _ = run(capsys, "store", "--patterns", pattern_file)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["p"] == 2 and doc["gate_count"] == 19
        amps = {e["pattern"]: e["re"] for e in doc["amplitudes"]}
        assert amps["000"] == pytest.approx(2 ** -0.5, abs=1e-12)
        assert amps["111"] == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_json_schema(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("10\n01\n")
        code, out, _ = run(capsys, "store", "--patterns", str(f))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["p"] == 2 and doc["gate_count"] == 15
        patterns = [entry["pattern"] for entry in doc["amplitudes"]]
        assert patterns == sorted(patterns) == ["01", "10"]
        for entry in doc["amplitudes"]:
            assert entry["re"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
            assert entry["im"] == pytest.approx(0.0, abs=1e-12)

    def test_out_file(self, capsys, pattern_file, tmp_path):
        target = tmp_path / "o.json"
        code, out, _ = run(
            capsys, "store", "--patterns", pattern_file, "--out", str(target)
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["p"] == 2

    def test_missing_file_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "store", "--patterns", str(tmp_path / "nope.txt")
        )
        assert code == EXIT_VALIDATION
        assert "qamem:" in err


class TestDistribution:
    def test_known_values(self, capsys, pattern_file):
        code, out, _ = run(
            capsys,
            "distribution",
            "--patterns",
            pattern_file,
            "--input",
            "100",
            "--b",
            "1",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["p_rec"] == pytest.approx(0.5)
        probs = {e["pattern"]: e["prob"] for e in doc["distribution"]}
        assert probs["000"] == pytest.approx(0.75)
        assert probs["111"] == pytest.approx(0.25)

    def test_input_length_mismatch(self, capsys, pattern_file):
        code, _, err = run(
            capsys, "distribution", "--patterns", pattern_file, "--input", "10"
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["distribution", "retrieve"])
    @pytest.mark.parametrize("b", [10**400, int(9e307)])
    def test_b_past_float_range_exits_2(self, capsys, tmp_path, command, b):
        f = tmp_path / "p.txt"
        f.write_text("0000\n0011\n")
        argv = [command, "--patterns", str(f), "--input", "0001", "--b", str(b)]
        if command == "retrieve":
            argv += ["--seed", "1"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert err == "qamem: b too large: the exponent 2b exceeds the float range\n"

    def test_underflowed_law_exits_3(self, capsys, tmp_path):
        """Two patterns at distance 1 share the exact law, 1/2 each, but at
        b = 10^5 every weight underflows: exit 3 and nothing on stdout."""
        f = tmp_path / "p.txt"
        f.write_text("0000\n0011\n1100\n")
        argv = ["distribution", "--patterns", str(f), "--input", "0001", "--b", "100000"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NUMERIC and out == ""
        assert err == (
            "qamem: numeric failure: b = 100000 is too large for the closed form: its "
            "weights underflow to Z = 0, although a pattern lies at distance 1 < n = 4\n"
        )
        code, out, _ = run(capsys, *argv[:-1], "1000")  # Z = 3.4e-69
        assert code == EXIT_OK
        assert json.loads(out)["distribution"][0]["prob"] == 0.5

    def test_large_b_in_float_range_runs(self, capsys, pattern_file):
        code, out, _ = run(
            capsys, "distribution", "--patterns", pattern_file, "--input", "000",
            "--b", "10000000000000000000",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["b"], doc["p_rec"]) == (10**19, 0.5)


class TestRetrieve:
    def args(self, pattern_file, *extra):
        return (
            "retrieve",
            "--patterns",
            pattern_file,
            "--input",
            "000",
            "--seed",
            "7",
            *extra,
        )

    def test_exact_input_recognized(self, capsys, pattern_file):
        code, out, _ = run(capsys, *self.args(pattern_file))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["recognized"] is True
        assert doc["output"] in ("000", "111")
        assert doc["seed"] == 7 and doc["input"] == "000"

    def test_byte_deterministic(self, capsys, pattern_file):
        _, a, _ = run(capsys, *self.args(pattern_file, "--T", "5", "--corrupt", "1"))
        _, b, _ = run(capsys, *self.args(pattern_file, "--T", "5", "--corrupt", "1"))
        assert a == b

    def test_seed_changes_output_stream(self, capsys, pattern_file):
        base = self.args(pattern_file, "--T", "3", "--corrupt", "1")
        _, a, _ = run(capsys, *base)
        code, b, _ = run(capsys, *base[:-4], "--seed", "8", "--T", "3",
                         "--corrupt", "1")
        assert code == EXIT_OK
        doc_a, doc_b = json.loads(a), json.loads(b)
        assert doc_a["seed"] != doc_b["seed"]

    def test_amplify_mode(self, capsys, pattern_file):
        code, out, _ = run(
            capsys, *self.args(pattern_file, "--mode", "amplify", "--T", "20")
        )
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "amplitude_amplify"

    def test_amplify_unreachable_pattern_exits_2(self, tmp_path):
        # the input is the complement of the only stored pattern, so
        # p_rec = cos^4(pi/2) = 0 and there is nothing to amplify; run in a
        # subprocess so that a regression (about 2e32 iterations) times out
        # instead of hanging the suite
        f = tmp_path / "p.txt"
        f.write_text("01\n")
        argv = ["--patterns", str(f), "--input", "10", "--b", "2", "--seed", "1"]
        env = dict(os.environ, PYTHONPATH=str(Path(qamem.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "qamem.cli", "retrieve", *argv,
             "--mode", "amplify"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert "cannot amplify zero success probability" in proc.stderr

    def test_amplify_runs_no_grover_iterations(self, capsys, tmp_path, monkeypatch, pattern_file):
        def refuse(*args, **kwargs):
            raise AssertionError("amplitude_amplify was entered")

        monkeypatch.setattr(retrieval, "amplitude_amplify", refuse)
        code, _, _ = run(capsys, *self.args(pattern_file, "--mode", "amplify", "--mask", "0,2"))
        assert code == EXIT_OK
        # one pattern, input at distance 99 of 100: p_rec = sin^4(pi/200)
        # at b = 2 calls for 3183 iterations, which amplify mode never runs
        f = tmp_path / "p.txt"
        f.write_text("0" * 100 + "\n")
        code, out, _ = run(
            capsys, "retrieve", "--patterns", str(f), "--input", "1" * 99 + "0",
            "--b", "2", "--mode", "amplify", "--seed", "1",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["recognized"], doc["output"]) == (True, "0" * 100)

    def test_amplify_below_postselection_floor_exits_2(self, capsys, tmp_path):
        # p_rec = sin^16(pi/40) = 2.06e-18: too small a branch to read its
        # memory law, though amplification would recognize almost surely
        f = tmp_path / "p.txt"
        f.write_text("0" * 20 + "\n")
        code, out, err = run(
            capsys, "retrieve", "--patterns", str(f), "--input", "1" * 19 + "0",
            "--b", "8", "--mode", "amplify", "--seed", "1",
        )
        assert code == EXIT_VALIDATION and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("qamem: cannot amplify p_rec = 2.06e-18: the recognized branch is below")

    def test_bad_seed_rejected(self, capsys, pattern_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "retrieve",
                    "--patterns",
                    pattern_file,
                    "--input",
                    "000",
                    "--seed",
                    str(2**64),
                ]
            )


class TestThermo:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "thermo",
            "--d-over-n",
            "0.1",
            "--n",
            "1000",
            "--b-grid",
            "1,10,100",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("b,d_over_n,n,")
        assert len(lines) == 4

    def test_degenerate_is_numeric_failure(self, capsys):
        code, _, err = run(
            capsys,
            "thermo",
            "--d-over-n",
            "1.0",
            "--n",
            "100",
            "--b-grid",
            "1,10",
        )
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err

    def test_non_finite_b_grid_exits_2(self, capsys):
        code, out, err = run(
            capsys, "thermo", "--d-over-n", "0.1", "--n", "100", "--b-grid", "1,inf"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "bad b grid '1,inf'" in err
        # finite, but 2b overflows: exit 2 instead of NaN rows
        code, out, err = run(
            capsys, "thermo", "--d-over-n", "0.1", "--n", "100", "--b-grid", "1,1e308"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "2b finite" in err

    def test_free_energy_overflow_exits_2(self, capsys):
        # F = -log Z / b grows without bound as b -> 0: no inf or NaN rows
        code, out, err = run(
            capsys, "thermo", "--d-over-n", "0.1", "--n", "100", "--b-grid", "1e-320,1e-300,1"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert err == "qamem: b = 1e-320 is too small: F = -log Z / b overflows\n"

    def test_grid_on_the_midpoint_exits_0(self, capsys):
        # d = 2 = 2n/3: both points have D_eff equal to the midpoint
        code, out, _ = run(
            capsys, "thermo", "--d-over-n", "0.5", "--n", "3", "--b-grid", "1e300,1e305"
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3

    def test_bad_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "thermo", "--d-over-n", "nan", "--n", "100")
        assert code == EXIT_VALIDATION
        assert "d_over_n must be finite" in err
        code, _, err = run(capsys, "thermo", "--d-over-n", "0.1", "--n", "0")
        assert code == EXIT_VALIDATION
        assert "n must be >= 1" in err


class TestTune:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "tune", "--epsilon", "0.1", "--nu", "0.8", "--n", "1000"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["b"] == 11
        assert doc["T_amplified"] <= doc["T_repeat"]

    def test_unattainable_is_numeric_failure(self, capsys):
        code, _, err = run(
            capsys, "tune", "--epsilon", "0.1", "--nu", "1.0", "--n", "1000"
        )
        assert code == EXIT_NUMERIC

    def test_vanishing_z_is_numeric_failure(self, capsys):
        # epsilon * n rounds to d = n, where Z vanishes: exit 3 as in thermo
        code, out, err = run(
            capsys, "tune", "--epsilon", "0.999", "--nu", "0.5", "--n", "100"
        )
        assert code == EXIT_NUMERIC and out == ""
        assert "numeric failure: Z vanishes at d = n" in err

    def test_negative_n_is_validation(self, capsys):
        code, _, err = run(
            capsys, "tune", "--epsilon", "0.1", "--nu", "0.5", "--n", "-5"
        )
        assert code == EXIT_VALIDATION
        assert "n must be >= 1, got -5" in err

    def test_t_repeat_past_float_range_is_validation(self, capsys):
        code, out, err = run(
            capsys, "tune", "--epsilon", "0.055443360214999654", "--nu", "1.0", "--n", "1411"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("qamem: T_repeat = 1/p_rec exceeds the float range at b = ")

    def test_bad_epsilon_is_validation(self, capsys):
        code, _, _ = run(
            capsys, "tune", "--epsilon", "0.0", "--nu", "0.5", "--n", "100"
        )
        assert code == EXIT_VALIDATION


class TestPhase:
    GRID = ("--alpha-grid", "0.05,0.5", "--jt-grid", "0.3,1,9")

    def test_csv_and_summary(self, capsys):
        code, out, err = run(capsys, "phase", *self.GRID)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("alpha,Jt,")
        assert len(lines) == 7
        assert err.startswith("max retrieval alpha at Jt=1:")

    def test_workers_identical_output(self, capsys):
        _, a, _ = run(capsys, "phase", *self.GRID)
        _, b, _ = run(capsys, "phase", *self.GRID, "--workers", "4")
        assert a == b

    def test_nan_alpha_grid_exits_2(self, capsys):
        code, out, err = run(
            capsys, "phase", "--alpha-grid", "nan", "--jt-grid", "0.5,1"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "bad alpha grid 'nan'" in err

    def test_inf_jt_grid_exits_2(self, capsys):
        code, out, err = run(
            capsys, "phase", "--alpha-grid", "0.1", "--jt-grid", "1,inf"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "bad Jt grid '1,inf'" in err

    def test_non_ascending_grid_exits_2(self, capsys):
        code, out, err = run(
            capsys, "phase", "--alpha-grid", "0.5,0.1", "--jt-grid", "1"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "alpha grid must be strictly ascending" in err

    def test_out_file_moves_summary_to_stdout(self, capsys, tmp_path):
        target = tmp_path / "phase.csv"
        code, out, _ = run(capsys, "phase", *self.GRID, "--out", str(target))
        assert code == EXIT_OK
        assert out.startswith("max retrieval alpha")
        assert target.read_text().startswith("alpha,Jt,")


class TestClassical:
    ARGS = (
        "classical",
        "--n",
        "80",
        "--alpha-grid",
        "0.05,0.15",
        "--trials",
        "4",
        "--seed",
        "3",
    )

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "alpha,p,trials,mean_overlap,std_overlap"
        assert len(lines) == 3

    def test_workers_identical_output(self, capsys):
        _, a, _ = run(capsys, *self.ARGS)
        _, b, _ = run(capsys, *self.ARGS, "--workers", "3")
        assert a == b

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "0", "n must be >= 1, got 0"),
            ("--n", "-3", "n must be >= 1, got -3"),
            ("--trials", "0", "trials must be >= 1, got 0"),
            ("--trials", "-1", "trials must be >= 1, got -1"),
            ("--alpha-grid", "0.1,-0.5", "alpha must be finite and >= 0, got -0.5"),
        ],
    )
    def test_bad_argument_exits_2(self, capsys, flag, value, message):
        argv = list(self.ARGS)
        argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"qamem: {message}\n"

    def test_oversized_trial_refused_before_allocating(self, capsys):
        argv = ("classical", "--n", "500", "--alpha-grid", "1e6", "--trials", "1",
                "--seed", "1")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION and out == "" and peak < 2**20
        assert err == (
            "qamem: n=500, alpha=1000000.0: the patterns and couplings of a "
            f"trial (p*n + n*n elements) exceed the limit of {MAX_CAPACITY_ELEMENTS}\n"
        )


def run_quiet(argv):
    """(exit code, stdout, stderr) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_rejected(*argv):
    code, out, err = run_quiet(argv)
    assert code == EXIT_VALIDATION and out == "", (argv, code, err)
    assert err.startswith("qamem: ") and err.count("\n") == 1 and err.endswith("\n")


def assert_accepted(*argv):
    code, out, err = run_quiet(argv)
    assert code == EXIT_OK and out, (argv, code, err)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# above thermo.MAX_N: just above it, far above it, and past the float range
TOO_LARGE_N = st.integers(MAX_N + 1, MAX_N + 10) | st.integers(MAX_N + 1, 10**30) | st.just(10**400)
POSITIVE = st.floats(0.01, 1e4)


def spec(values) -> str:
    return ",".join(repr(v) for v in values)


@st.composite
def bad_grids(draw):
    """(kind, spec) of a grid that thermo and phase reject: a non-finite
    entry, a non-ascending list or range, or a COUNT outside [2,
    MAX_GRID_COUNT].  Only the non-ascending list passes parse_grid and
    classical, which takes its alphas in any order."""
    kind = draw(st.sampled_from(["non-finite", "non-ascending", "range", "count"]))
    if kind == "non-finite":
        values = draw(st.lists(POSITIVE, max_size=3))
        values.insert(draw(st.integers(0, len(values))), draw(NON_FINITE))
        return kind, spec(values)
    if kind == "non-ascending":
        values = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=4, unique=True)))
        i = draw(st.integers(0, len(values) - 2))
        values[i], values[i + 1] = values[i + 1], values[i]
        return kind, spec(values)
    lo, hi = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2, unique=True)))
    form = draw(st.sampled_from(["lin", "log"]))
    if kind == "range":
        return kind, f"{form}:{hi!r}:{lo!r}:{draw(st.integers(2, 5))}"
    count = draw(st.integers(MAX_GRID_COUNT + 1, 10**15) | st.integers(-5, 1))
    return kind, f"{form}:{lo!r}:{hi!r}:{count}"


def grid_points(form, lo, hi, count):
    if form == "log":
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


@st.composite
def good_grids(draw):
    """The valid neighbours: ascending positive lists and small ranges.  A
    range's COUNT is one whose points are strictly ascending: endpoints a
    few ulps apart leave room for few points or none (for log), so close
    endpoints keep only the counts that fit, and a log range with none
    becomes a lin one, whose two endpoints always fit."""
    if draw(st.booleans()):
        return spec(sorted(draw(st.lists(POSITIVE, min_size=1, max_size=4, unique=True))))
    lo, hi = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2, unique=True)))
    form = draw(st.sampled_from(["lin", "log"]))
    counts = [c for c in range(2, 6) if (np.diff(grid_points(form, lo, hi, c)) > 0).all()]
    if not counts:
        form, counts = "lin", [2]
    return f"{form}:{lo!r}:{hi!r}:{draw(st.sampled_from(counts))}"


class TestBoundaryProperties:
    """Bad values exit 2 with one ``qamem:`` line; valid neighbours exit 0."""

    THERMO = ("thermo", "--n=100", "--d-over-n=0.1", "--b-grid=1,10")
    TUNE = ("tune", "--epsilon=0.1", "--nu=0.8", "--n=1000")
    CLASSICAL = ("classical", "--n=20", "--alpha-grid=0.1", "--trials=1", "--seed=3")

    @staticmethod
    def with_option(argv, flag, value):
        return [a for a in argv if not a.startswith(flag + "=")] + [f"{flag}={value}"]

    @settings(max_examples=150, deadline=None)
    @given(kind_grid=bad_grids())
    # ranges whose endpoints are too close for COUNT ascending points
    @example(kind_grid=("range", "lin:0.01:0.010000000000000002:3"))
    @example(kind_grid=("range", "log:0.01:0.010000000000000002:3"))
    @example(kind_grid=("range", "lin:1:1.0000000000000004:5"))
    def test_bad_grid_spec(self, kind_grid):
        kind, grid = kind_grid
        assert_rejected(*self.with_option(self.THERMO, "--b-grid", grid))
        assert_rejected("phase", f"--alpha-grid={grid}", "--jt-grid=1")
        if kind != "non-ascending":
            with pytest.raises(ValueError, match="bad b grid"):
                parse_grid(grid, "b")
            assert_rejected(*self.with_option(self.CLASSICAL, "--alpha-grid", grid))

    @pytest.mark.parametrize("alphas, jts", [("0", "1e154"), ("1e308", "1")])
    def test_phase_coupling_overflow(self, alphas, jts):
        """-2 Jt^2 alpha past the float range (inf * 0 = NaN at alpha = 0)."""
        assert_rejected("phase", f"--alpha-grid={alphas}", f"--jt-grid={jts}")

    @pytest.mark.parametrize("alphas, jts", [("0.1", "1e150"), ("0", "1e153")])
    def test_phase_coupling_in_range_runs(self, alphas, jts):
        assert_accepted("phase", f"--alpha-grid={alphas}", f"--jt-grid={jts}")

    @pytest.mark.parametrize("mask", ["a", "9", "-1", ","])
    def test_bad_mask(self, tmp_path, mask):
        f = tmp_path / "p.txt"
        f.write_text("0110\n1011\n")
        argv = ("retrieve", "--patterns", str(f), "--input", "0111", "--seed", "1")
        assert_rejected(*argv, "--mask", mask)
        assert_accepted(*argv, "--mask", "0,3")

    @settings(max_examples=40, deadline=None)
    @given(grid=good_grids())
    def test_good_grid_spec(self, grid):
        assert_accepted(*self.with_option(self.THERMO, "--b-grid", grid))

    @settings(max_examples=100, deadline=None)
    @given(
        flag_value=st.one_of(
            st.tuples(st.just("--n"), st.integers(max_value=0) | TOO_LARGE_N),
            st.tuples(st.just("--d-over-n"), NON_FINITE),
            st.tuples(st.just("--d-over-n"), st.floats(max_value=0.0, exclude_max=True)),
            st.tuples(st.just("--d-over-n"), st.floats(min_value=1.0, exclude_min=True)),
        )
    )
    def test_bad_thermo(self, flag_value):
        assert_rejected(*self.with_option(self.THERMO, *flag_value))

    @pytest.mark.parametrize("command", [THERMO, TUNE])
    @pytest.mark.parametrize("n", [MAX_N + 1, 10**400])
    def test_n_above_limit_names_it(self, command, n):
        code, out, err = run_quiet(self.with_option(command, "--n", n))
        assert code == EXIT_VALIDATION and out == ""
        assert err == f"qamem: n must be <= MAX_N = {MAX_N}, got {n}\n"

    @pytest.mark.parametrize("mode", ["repeat", "amplify"])
    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_prepared_state_above_limit_refused(self, tmp_path, mode, p):
        """b rounds on p patterns prepare up to p*2^b keys: the smallest b
        above MAX_PREPARED_KEYS, and far above it, exit 2 before anything is
        allocated; a small b on the same memory runs."""
        path = tmp_path / "patterns.txt"
        path.write_text("".join(format(k, "04b") + "\n" for k in range(p)))
        argv = ("retrieve", f"--patterns={path}", "--input=0001", f"--mode={mode}", "--seed=3")
        first = next(b for b in range(64) if p << b > retrieval.MAX_PREPARED_KEYS)
        tracemalloc.start()
        try:
            for b in (first, first + 1, 10**9):
                code, out, err = run_quiet((*argv, f"--b={b}"))
                assert code == EXIT_VALIDATION and out == ""
                assert err.startswith(f"qamem: b = {b} rounds on {p} patterns")
                assert err.endswith(f"above the limit of {retrieval.MAX_PREPARED_KEYS} keys\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert_accepted(*argv, "--b=2")

    @pytest.mark.parametrize("mode", ["repeat", "amplify"])
    @pytest.mark.parametrize("T", [retrieval.MAX_ATTEMPTS + 1, 10**400])
    def test_attempts_above_limit_refused(self, tmp_path, mode, T):
        path = tmp_path / "patterns.txt"
        path.write_text("0110\n1011\n")
        argv = ("retrieve", f"--patterns={path}", "--input=0111", f"--mode={mode}", "--seed=3")
        code, out, err = run_quiet((*argv, f"--T={T}"))
        assert code == EXIT_VALIDATION and out == ""
        assert err == f"qamem: T must be <= MAX_ATTEMPTS = {retrieval.MAX_ATTEMPTS}, got {T}\n"
        assert_accepted(*argv, "--T=20")

    def test_n_at_limit_runs(self):
        # d/n = 0.99 keeps the levels at 10^5 entries
        argv = self.with_option(self.THERMO, "--n", MAX_N)
        assert_accepted(*self.with_option(argv, "--d-over-n", "0.99"))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3000), d_over_n=st.floats(0.0, 0.45))
    def test_good_thermo(self, n, d_over_n):
        argv = self.with_option(self.THERMO, "--n", n)
        assert_accepted(*self.with_option(argv, "--d-over-n", repr(d_over_n)))

    @settings(max_examples=100, deadline=None)
    @given(
        flag_value=st.one_of(
            st.tuples(st.just("--n"), st.integers(max_value=0) | TOO_LARGE_N),
            st.tuples(st.sampled_from(["--epsilon", "--nu"]), NON_FINITE),
            st.tuples(st.just("--epsilon"), st.floats(max_value=0.0)),
            st.tuples(st.just("--epsilon"), st.floats(min_value=1.0)),
            st.tuples(st.just("--nu"), st.floats(max_value=0.0, exclude_max=True)),
            st.tuples(st.just("--nu"), st.floats(min_value=1.0, exclude_min=True)),
        )
    )
    def test_bad_tune(self, flag_value):
        flag, value = flag_value
        assert_rejected(*self.with_option(self.TUNE, flag, repr(value)))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(10, 3000), epsilon=st.floats(0.01, 0.3), nu=st.floats(0.0, 0.8)
    )
    def test_good_tune(self, n, epsilon, nu):
        argv = ("tune", f"--n={n}", f"--epsilon={epsilon!r}", f"--nu={nu!r}")
        assert_accepted(*argv)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        epsilon=st.floats(1e-3, 0.5),
        nu=st.one_of(st.floats(0.99, 1.0), st.just(1.0)),
    )
    @example(n=1411, epsilon=0.055443360214999654, nu=1.0)
    def test_tune_near_full_accuracy(self, n, epsilon, nu):
        """nu near 1 gives a result, a T_repeat past the float range exits 2,
        and an unattainable target exits 3; none ends in a traceback."""
        code, out, err = run_quiet(("tune", f"--n={n}", f"--epsilon={epsilon!r}", f"--nu={nu!r}"))
        if code == EXIT_OK:
            doc = json.loads(out)
            assert 1 <= doc["T_amplified"] <= doc["T_repeat"]
        elif code == EXIT_VALIDATION:
            assert err.startswith("qamem: T_repeat = 1/p_rec exceeds the float range")
        else:
            assert code == EXIT_NUMERIC and "numeric failure" in err, err

    @settings(max_examples=100, deadline=None)
    @given(
        flag_value=st.one_of(
            st.tuples(st.sampled_from(["--n", "--trials"]), st.integers(max_value=0)),
            st.tuples(st.just("--alpha-grid"), NON_FINITE.map(repr)),
            st.tuples(
                st.just("--alpha-grid"),
                st.floats(max_value=0.0, exclude_max=True).map(repr),
            ),
            # above MAX_CAPACITY_ELEMENTS: too many patterns, or n*n alone
            st.tuples(
                st.just("--alpha-grid"),
                st.floats(MAX_CAPACITY_ELEMENTS / 20, 1e300).map(repr),
            ),
            st.tuples(
                st.just("--n"),
                st.integers(math.isqrt(MAX_CAPACITY_ELEMENTS) + 1, 10**400),
            ),
        )
    )
    def test_bad_classical(self, flag_value):
        assert_rejected(*self.with_option(self.CLASSICAL, *flag_value))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        trials=st.integers(1, 3),
        alphas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    )
    def test_good_classical(self, n, trials, alphas):
        argv = self.with_option(self.CLASSICAL, "--n", n)
        argv = self.with_option(argv, "--trials", trials)
        assert_accepted(*self.with_option(argv, "--alpha-grid", spec(alphas)))
