"""Seeded CLI output pinned byte for byte.

Each case runs one ``qamem`` command in-process and compares its stdout with
``tests/golden/<case>.out``.  The inputs keep every stored pattern below
Hamming distance n from the (corrupted) input, so no weight sits on the
cos(pi/2) = 0 edge.  After an intended output change, rewrite the expected
files with ``PYTHONPATH=src python tests/test_cli_golden.py`` and state the
change.
"""
from pathlib import Path

import pytest

from qamem.cli import main

GOLDEN = Path(__file__).parent / "golden"
P4 = str(GOLDEN / "patterns4.txt")
P6 = str(GOLDEN / "patterns6.txt")
# one pattern: each per-pattern table has one row
P1 = str(GOLDEN / "patterns1.txt")
# 300 patterns of 24 bits drawn around 12 shared prefixes, so that many
# entries tie on their leading bits and the sort order is exercised
P24 = str(GOLDEN / "patterns24.txt")

PHASE = ("phase", "--alpha-grid", "0.05,0.5", "--jt-grid", "0.5,1,9")
CLASSICAL = (
    "classical", "--n", "60", "--alpha-grid", "0.05,0.2", "--trials", "5",
    "--seed", "99",
)

CASES = {
    "store_dry_run": ("store", "--patterns", P6, "--dry-run"),
    "store": ("store", "--patterns", P6),
    "store_p4": ("store", "--patterns", P4),
    "store_p1": ("store", "--patterns", P1),
    "retrieve_repeat": (
        "retrieve", "--patterns", P4, "--input", "0011", "--b", "2",
        "--T", "5", "--seed", "99",
    ),
    "retrieve_p1": (
        "retrieve", "--patterns", P1, "--input", "0100", "--b", "2", "--T", "3",
        "--seed", "7",
    ),
    "retrieve_repeat_corrupt": (
        "retrieve", "--patterns", P4, "--input", "0011", "--corrupt", "1",
        "--b", "2", "--T", "5", "--seed", "99",
    ),
    "retrieve_repeat_masked": (
        "retrieve", "--patterns", P6, "--input", "011110", "--mask", "0,2,3",
        "--b", "3", "--T", "4", "--seed", "5",
    ),
    "retrieve_amplify_masked": (
        "retrieve", "--patterns", P4, "--input", "0011", "--mask", "0,2",
        "--b", "2", "--T", "3", "--mode", "amplify", "--seed", "12",
    ),
    "retrieve_amplify_corrupt": (
        "retrieve", "--patterns", P6, "--input", "011110", "--corrupt", "1",
        "--b", "2", "--T", "6", "--mode", "amplify", "--seed", "31",
    ),
    "distribution": (
        "distribution", "--patterns", P6, "--input", "011110", "--b", "3",
    ),
    "distribution_p1": ("distribution", "--patterns", P1, "--input", "0100", "--b", "2"),
    "distribution_masked": (
        "distribution", "--patterns", P4, "--input", "0011", "--mask", "1,3",
        "--b", "2",
    ),
    "distribution_p24": (
        "distribution", "--patterns", P24, "--input",
        "011101000100100111001001", "--b", "3",
    ),
    "distribution_p24_masked": (
        "distribution", "--patterns", P24, "--input",
        "011101000100100111001001", "--mask", "0,1,2,3,5,8,13,21,22,23",
        "--b", "2",
    ),
    "store_dry_run_p24": ("store", "--patterns", P24, "--dry-run"),
    "thermo": (
        "thermo", "--d-over-n", "0.1", "--n", "1000", "--b-grid", "1,10,100",
    ),
    "tune": ("tune", "--epsilon", "0.1", "--nu", "0.8", "--n", "1000"),
    "phase": PHASE,
    "phase_workers": PHASE + ("--workers", "2"),
    "classical": CLASSICAL,
    "classical_workers": CLASSICAL + ("--workers", "2"),
}


def run_case(name: str, capsys) -> str:
    code = main(list(CASES[name]))
    assert code == 0, capsys.readouterr().err
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(name, capsys) == want


if __name__ == "__main__":
    import contextlib
    import io

    for case, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, case
        (GOLDEN / f"{case}.out").write_text(buf.getvalue(), encoding="utf-8")
