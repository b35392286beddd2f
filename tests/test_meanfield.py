import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qamem import meanfield
from qamem.meanfield import (
    MAX_EXPONENT,
    MAX_PHASE_CELLS,
    PROBES,
    ROOT_GRID,
    ROOT_XTOL,
    MeanFieldError,
    MfParams,
    OrderParameters,
    SingularDenominatorError,
    classify_phase,
    iterate_finite,
    residual,
    scan_phase_diagram,
    solve_single,
)


def reference_iterate(alpha, jt, m, r, eta=0.5, tol=1e-10, max_iterations=10_000):
    """The module docstring's damped iteration for one (m, r) start, in plain floats.

    Returns (m, r, converged), or None where the r-equation denominator
    falls below 1e-6.  exp(-8(Jt)^2 alpha r) is taken as the fourth power
    of exp(-2(Jt)^2 alpha r), so that rounding matches and orbits that do
    not converge stay comparable after 10^4 steps.
    """
    prev_m = prev_r = 0.0
    for _ in range(max_iterations):
        damp = math.exp(-2 * jt**2 * alpha * r)
        den = 1 - 2 * jt * math.cos(2 * jt * m) * damp
        if abs(den) < 1e-6:
            return None
        new_m = math.sin(2 * jt * m) * damp
        new_r = max(0.0, (1 - math.cos(4 * jt * m) * damp**4) / (2 * den**2))
        step_m, step_r = eta * (new_m - m), eta * (new_r - r)
        if step_m * prev_m + step_r * prev_r < 0 and eta > 1e-3:
            eta, step_m, step_r = eta / 2, step_m / 2, step_r / 2
        m, r = m + step_m, r + step_r
        prev_m, prev_r = step_m, step_r
        if max(abs(step_m), abs(step_r)) < tol:
            return m, r, True
    return m, r, False


def reference_cell(alpha, jt):
    """(phase, [(m, r, label)]) by running the probes one after another."""
    solutions, converged, retrieval, glassy = [], False, False, False
    for m0, r0 in PROBES:
        label = f"m={m0:g},r={r0:g}"
        out = reference_iterate(alpha, jt, m0, r0)
        if out is None:
            return "unclassified", solutions
        m, r, ok = out
        solutions.append((m, r, label if ok else label + " (not converged)"))
        if ok:
            converged = True
            retrieval = retrieval or abs(m) > 1e-3
            glassy = glassy or (m0 == 0 and abs(m) <= 1e-3 and r > 1e-3)
    if not converged:
        return "unclassified", solutions
    if retrieval:
        return ("F+SG" if glassy else "F"), solutions
    return ("SG" if glassy else "P"), solutions


class TestParams:
    def test_validation(self):
        with pytest.raises(MeanFieldError):
            MfParams(alpha=-0.1, Jt=1.0)
        with pytest.raises(MeanFieldError):
            MfParams(alpha=0.1, Jt=0.0)
        with pytest.raises(MeanFieldError):
            MfParams(alpha=0.1, Jt=1.0, M_ext=1.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(MeanFieldError, match="alpha must be finite"):
                MfParams(alpha=bad, Jt=1.0)
            with pytest.raises(MeanFieldError, match="Jt must be finite"):
                MfParams(alpha=0.1, Jt=bad)
            with pytest.raises(MeanFieldError, match="g_over_J must be finite"):
                MfParams(alpha=0.1, Jt=1.0, g_over_J=bad)
        # the factor -2 Jt^2 alpha overflows (inf * 0 = NaN at alpha = 0)
        for alpha, jt in ((0.0, 1e154), (1e308, 1.0)):
            with pytest.raises(MeanFieldError, match="2 Jt\\^2 alpha must be finite"):
                MfParams(alpha=alpha, Jt=jt)
        for alpha, jt in ((0.1, 1e150), (0.0, 1e153)):
            assert MfParams(alpha=alpha, Jt=jt).Jt == jt

    def test_coupling_argument_must_be_finite(self):
        # 4Jt(m + (g/J)M) overflowed, and classify_phase ran every probe on NaN
        big = sys.float_info.max / 4
        for jt, g, field in ((1e10, 1e300, 1.0), (1.0, math.nextafter(big, math.inf), -1.0)):
            with pytest.raises(MeanFieldError, match=r"4 Jt \(1 \+ \|\(g/J\) M_ext\|\) must be finite"):
                MfParams(0.0, jt, g, field)
            values = f"Jt = {jt}, g_over_J = {g}, M_ext = {field}"
            with pytest.raises(MeanFieldError, match=re.escape(values)):
                solve_single(jt, g, field)

    def test_coupling_argument_at_the_limit(self):
        # 4 * 1 * (1 + max/4) is max: the largest argument, at |m| = 1, fits
        params = MfParams(0.0, 1.0, sys.float_info.max / 4, -1.0)
        for m in (1.0, -1.0):
            assert math.isfinite(residual(params, OrderParameters(m, 0.0)))
        assert all(-1.0 <= m <= 1.0 for m in solve_single(1.0, sys.float_info.max / 4, -1.0))


def reference_roots(Jt, offset):
    """solve_single's roots by bisecting every bracket at once on numpy
    arrays until all are at most ROOT_XTOL wide, ascending."""

    def f(m):
        return np.sin(2.0 * Jt * (m + offset)) - m

    xs = np.linspace(-1.0, 1.0, ROOT_GRID + 1)
    vals = f(xs)
    roots = list(xs[:-1][vals[:-1] == 0.0])
    bracket = vals[:-1] * vals[1:] < 0
    lo, hi = xs[:-1][bracket], xs[1:][bracket]
    side = np.sign(vals[:-1][bracket])
    while np.any(hi - lo > ROOT_XTOL):
        mid = (lo + hi) / 2
        sign = np.sign(f(mid)) * side
        lo = np.where(sign >= 0, mid, lo)
        hi = np.where(sign <= 0, mid, hi)
    roots += list((lo + hi) / 2)
    if vals[-1] == 0.0:
        roots.append(1.0)
    return sorted(map(float, roots))


class TestSinglePattern:
    @settings(max_examples=200, deadline=None)
    @given(
        jt=st.floats(0.01, 40.0) | st.sampled_from((0.5, 0.51, math.pi / 4, 1.0, 9.0)),
        g_over_j=st.just(0.0) | st.floats(-3.0, 3.0),
        m_ext=st.floats(-1.0, 1.0),
    )
    def test_roots_match_array_bisection(self, jt, g_over_j, m_ext):
        """Bisection on Python floats finds the array bisection's roots bit
        for bit, and solve_single keeps the stable ones among them."""
        offset = g_over_j * m_ext
        want = reference_roots(jt, offset)
        got = meanfield._roots(jt, offset)
        assert [m.hex() for m in got] == [m.hex() for m in want]
        stable = []
        for m in want:
            if not any(abs(m - s) < 1e-9 for s in stable):
                if abs(2.0 * jt * math.cos(2.0 * jt * (m + offset))) < 1.0:
                    stable.append(m)
        assert [m.hex() for m in solve_single(jt, g_over_j, m_ext)] == [m.hex() for m in stable]

    def test_below_bifurcation_only_zero(self):
        assert solve_single(0.3) == [0.0]
        assert solve_single(0.49) == [0.0]

    def test_above_bifurcation_symmetric_pair(self):
        roots = solve_single(0.51)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-roots[1], abs=1e-12)
        assert roots[1] == pytest.approx(0.33726825409612915, abs=1e-9)

    def test_perfect_recall_at_quarter_pi(self):
        roots = solve_single(math.pi / 4)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_roots_satisfy_equation(self):
        for jt in (0.6, 1.0, 2.0):
            for m in solve_single(jt):
                assert math.sin(2 * jt * m) == pytest.approx(m, abs=1e-9)

    def test_validation(self):
        with pytest.raises(MeanFieldError):
            solve_single(0.0)
        # the checks of MfParams: NaN and inf returned [] before, inf after
        # two RuntimeWarnings
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(MeanFieldError, match="Jt must be finite and > 0"):
                solve_single(bad)
            with pytest.raises(MeanFieldError, match="g_over_J must be finite"):
                solve_single(1.0, bad, 1.0)
            with pytest.raises(MeanFieldError, match="M_ext must be in"):
                solve_single(1.0, 0.5, bad)
        with pytest.raises(MeanFieldError, match="M_ext must be in"):
            solve_single(1.0, 0.5, 1.5)

    def test_roots_match_brentq(self):
        for jt in np.linspace(0.05, 2.0, 50):
            jt = float(jt)

            def f(m):
                return math.sin(2 * jt * m) - m

            xs = np.linspace(-1.0, 1.0, 2001)
            want = []
            for x0, x1 in zip(xs, xs[1:]):
                if f(x0) == 0.0:
                    want.append(float(x0))
                elif f(x0) * f(x1) < 0:
                    want.append(brentq(f, x0, x1, xtol=1e-14))
            want = [m for m in want if abs(2 * jt * math.cos(2 * jt * m)) < 1]
            got = solve_single(jt)
            assert len(got) == len(want)
            assert got == pytest.approx(want, abs=1e-13)
            for m in got:
                assert abs(f(m)) < 1e-13


class TestIteration:
    def test_zero_loading_matches_single_pattern(self):
        sol, ok = iterate_finite(
            MfParams(alpha=1e-8, Jt=0.8), OrderParameters(1.0, 0.01)
        )
        assert ok
        assert sol.m == pytest.approx(max(solve_single(0.8)), abs=1e-6)

    def test_finite_loading_example(self):
        sol, ok = iterate_finite(
            MfParams(alpha=0.1, Jt=1.0), OrderParameters(1.0, 0.01)
        )
        assert ok
        assert sol.m == pytest.approx(0.8973918654091562, abs=1e-8)
        assert sol.r == pytest.approx(0.4148243321863485, abs=1e-8)

    def test_heavy_loading_kills_overlap(self):
        sol, ok = iterate_finite(
            MfParams(alpha=2.0, Jt=1.0), OrderParameters(1.0, 0.01)
        )
        assert ok
        assert abs(sol.m) < 1e-6
        assert sol.r > 0.5

    def test_converged_point_is_fixed_point(self):
        for alpha, jt in ((0.0, 1.0), (0.1, 1.0), (0.5, 9.0), (2.0, 1.0)):
            params = MfParams(alpha=alpha, Jt=jt)
            sol, ok = iterate_finite(params, OrderParameters(1.0, 0.01))
            if ok:
                assert residual(params, sol) < 1e-8

    def test_sign_symmetry(self):
        params = MfParams(alpha=0.1, Jt=1.0)
        pos, _ = iterate_finite(params, OrderParameters(1.0, 0.01))
        neg, _ = iterate_finite(params, OrderParameters(-1.0, 0.01))
        assert neg.m == pytest.approx(-pos.m, abs=1e-9)
        assert neg.r == pytest.approx(pos.r, abs=1e-9)

    def test_r_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = MfParams(
                alpha=float(rng.uniform(0.0, 1.5)),
                Jt=float(rng.uniform(0.3, 10.0)),
            )
            try:
                sol, _ = iterate_finite(params, OrderParameters(1.0, 0.01))
            except SingularDenominatorError:
                continue
            assert sol.r >= 0.0

    def test_singular_denominator_raises(self):
        # at alpha = 0, Jt = 0.5 and m = r = 0 the r-denominator is exactly 0
        params, origin = MfParams(0.0, 0.5), OrderParameters(0.0, 0.0)
        with pytest.raises(SingularDenominatorError, match="r-equation denominator below"):
            iterate_finite(params, origin)
        with pytest.raises(SingularDenominatorError, match="r-equation denominator 0.0 at"):
            residual(params, origin)

    def test_bad_start_raises(self):
        # exp(-2 Jt^2 alpha r) overflowed with OverflowError at r = -1000
        # (and its fourth power at r = -100); NaN ran 10^4 steps to NaN
        params = MfParams(1.0, 1.0)
        for m, r, match in (
            (1.0, math.nan, "m and r must be finite"),
            (math.inf, 0.1, "m and r must be finite"),
            (math.nan, 0.1, "m and r must be finite"),
            (1.0, -math.inf, "m and r must be finite"),
            (1.0, -1000.0, "-2 Jt\\^2 alpha r must be at most"),
            (1.0, -100.0, "-2 Jt\\^2 alpha r must be at most"),
        ):
            with pytest.raises(MeanFieldError, match=match):
                iterate_finite(params, OrderParameters(m, r))
            with pytest.raises(MeanFieldError, match=match):
                residual(params, OrderParameters(m, r))

    def test_overflowing_argument_start_raises(self):
        # 4Jt(m + (g/J)M) overflowed on the first step: iterate_finite warned
        # and ran 10^4 steps to NaN, residual returned NaN
        for call, params, start in (
            (iterate_finite, MfParams(0.0, 1e8), OrderParameters(1e301, 0.0)),
            (residual, MfParams(0.0, 1.0), OrderParameters(1e308, 0.0)),
        ):
            with pytest.raises(MeanFieldError, match=r"4 Jt \(\|m\| \+ \|\(g/J\) M_ext\|\) must be finite"):
                call(params, start)

    def test_start_at_exponent_bound(self):
        # -2 Jt^2 alpha r = MAX_EXPONENT: no overflow, hence no RuntimeWarning
        params, start = MfParams(1.0, 1.0), OrderParameters(1.0, -MAX_EXPONENT / 2)
        sol, ok = iterate_finite(params, start)
        assert ok and math.isfinite(sol.m) and sol.r >= 0.0
        assert math.isfinite(residual(params, start))

    def test_overlap_decreases_with_loading(self):
        prev = 1.1
        for alpha in (0.02, 0.05, 0.1, 0.15):
            sol, ok = iterate_finite(
                MfParams(alpha=alpha, Jt=1.0), OrderParameters(1.0, 0.01)
            )
            assert ok
            assert sol.m < prev
            prev = sol.m


class TestClassification:
    def test_retrieval_phase(self):
        cell = classify_phase(MfParams(alpha=0.05, Jt=1.0))
        assert cell.phase == "F"
        ret = cell.retrieval_solution()
        assert ret is not None and ret.m > 0.9

    def test_mixed_phase_weak_branch(self):
        cell = classify_phase(MfParams(alpha=0.5, Jt=9.0))
        assert cell.phase == "F+SG"
        ret = cell.retrieval_solution()
        assert ret.m == pytest.approx(0.165, abs=0.01)

    def test_glassy_phase(self):
        cell = classify_phase(MfParams(alpha=2.0, Jt=9.0))
        assert cell.phase == "SG"

    def test_disordered_phase(self):
        cell = classify_phase(MfParams(alpha=0.05, Jt=0.3))
        assert cell.phase == "P"

    def test_singular_gives_unclassified(self):
        # at alpha=0, Jt=1/2 the zero start sits exactly on the vanishing
        # denominator of the r equation
        cell = classify_phase(MfParams(alpha=0.0, Jt=0.5))
        assert cell.phase == "unclassified"

    def test_solution_lookup(self):
        cell = classify_phase(MfParams(alpha=0.05, Jt=1.0))
        assert cell.solution_from("m=1,r=0.01") is not None
        assert cell.solution_from("nope") is None


class TestDiagram:
    def small_scan(self):
        return scan_phase_diagram((0.05, 0.5, 2.0), (0.3, 1.0, 9.0))

    def test_cell_indexing_and_phases(self):
        diag = self.small_scan()
        assert diag.cell(0, 1).phase == "F"  # alpha=0.05, Jt=1
        assert diag.cell(0, 0).phase == "P"  # alpha=0.05, Jt=0.3
        assert diag.cell(1, 2).phase == "F+SG"  # alpha=0.5, Jt=9
        assert diag.cell(2, 2).phase == "SG"  # alpha=2, Jt=9

    def test_max_retrieval_alpha(self):
        diag = self.small_scan()
        assert diag.max_retrieval_alpha() == pytest.approx(0.5)
        assert diag.max_retrieval_alpha(Jt=1.0) == pytest.approx(0.05)

    def test_capacity_at_unit_coupling(self):
        # the retrieval region at Jt = 1 terminates near alpha = 0.175
        assert classify_phase(MfParams(alpha=0.17, Jt=1.0)).phase in ("F", "F+SG")
        assert classify_phase(MfParams(alpha=0.18, Jt=1.0)).phase not in (
            "F",
            "F+SG",
        )

    def test_csv_shape(self):
        diag = self.small_scan()
        lines = diag.to_csv().splitlines()
        assert lines[0] == (
            "alpha,Jt,m_retrieval,r_retrieval,m_from_zero,r_from_zero,phase"
        )
        assert len(lines) == 10
        assert lines[1].split(",")[-1] in ("P", "F", "SG", "F+SG", "unclassified")

    def test_matches_sequential_reference(self):
        # P, F, F+SG and SG cells; at Jt = 0.5 a singular probe (unclassified)
        # and, at alpha = 0, probes that do not converge in 10^4 steps
        diag = scan_phase_diagram((0.0, 0.05, 0.17, 0.18, 0.5, 2.0), (0.3, 0.5, 1.0, 9.0))
        seen = set()
        for cell in diag.cells:
            phase, solutions = reference_cell(cell.params.alpha, cell.params.Jt)
            assert cell.phase == phase
            assert [label for _, label in cell.solutions] == [s[2] for s in solutions]
            for (sol, _), (m, r, _) in zip(cell.solutions, solutions):
                assert abs(sol.m - m) <= 1e-12 * max(1.0, abs(m))
                assert abs(sol.r - r) <= 1e-12 * max(1.0, abs(r))
            seen.add(phase)
            seen.update("not converged" for _, lab in cell.solutions if "not" in lab)
        assert seen == {"P", "F", "F+SG", "SG", "unclassified", "not converged"}

    def test_grid_validation(self):
        with pytest.raises(MeanFieldError):
            scan_phase_diagram((), (1.0,))
        with pytest.raises(MeanFieldError):
            scan_phase_diagram((0.2, 0.1), (1.0,))

    def test_cell_count_refused_before_any_cell(self, monkeypatch):
        """A grid of more than MAX_PHASE_CELLS cells is refused before a
        cell is built; one at the limit is scanned."""
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell was built")

        alphas = np.linspace(0.01, 1.0, MAX_PHASE_CELLS // 2 + 1)
        monkeypatch.setattr(meanfield, "MfParams", no_cells)
        with pytest.raises(MeanFieldError, match=f"more than {MAX_PHASE_CELLS} cells"):
            scan_phase_diagram(alphas, (0.5, 1.0))
        monkeypatch.undo()
        monkeypatch.setattr(meanfield, "MAX_PHASE_CELLS", 6)
        assert len(scan_phase_diagram((0.05, 0.5), (0.3, 1.0, 9.0)).cells) == 6
        with pytest.raises(MeanFieldError, match="more than 6 cells"):
            scan_phase_diagram((0.05, 0.5, 2.0), (0.3, 1.0, 9.0))


class TestLibmAgreement:
    """The agreements with math that _rhs rests on, on this numpy and libm."""

    # signed zeros, one, and subnormal and smallest normal magnitudes
    SPECIAL = (-0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308)

    def check(self, name, xs, got, f):
        want = np.array([f(x) for x in xs.tolist()])
        bad = np.flatnonzero(np.asarray(got).view(np.int64) != want.view(np.int64))
        assert not bad.size, (
            f"numpy {np.__version__}: {name} differs from math on {bad.size} of "
            f"{xs.size} arguments, first at {xs[bad[0]]!r}"
        )

    def args(self, lo, hi, seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([rng.uniform(lo, hi, 100_000), self.SPECIAL])

    def test_complex_exp(self):
        # exponents -2(Jt)^2 alpha r from underflow up to the start bound
        xs = self.args(-800.0, MAX_EXPONENT, 1)
        self.check("exp on complex128 with zero imaginary part", xs,
                   np.exp(xs.astype(np.complex128)).real, math.exp)

    def test_float_power(self):
        # damping factors: in [0, 1] once r >= 0, up to exp(MAX_EXPONENT) before
        xs = np.concatenate([
            self.args(0.0, 1.0, 2),
            np.exp(np.random.default_rng(3).uniform(0.0, MAX_EXPONENT, 10_000)),
        ])
        self.check("float_power(x, 4.0)", xs, np.float_power(xs, 4.0),
                   lambda x: math.pow(x, 4.0))

    def test_sin_cos(self):
        # 2Jt(m + (g/J)M) and twice that, beyond the grids' |Jt| <= 12 and |m| <= 1
        xs = np.concatenate([self.args(-100.0, 100.0, 4), self.args(-1e6, 1e6, 5)])
        self.check("sin", xs, np.sin(xs), math.sin)
        self.check("cos", xs, np.cos(xs), math.cos)


class TestScalarFinish:
    """_iterate's float finish gives the lockstep loop's bits."""

    # the grid of test_matches_sequential_reference: a singular probe and
    # probes that run all 10^4 steps
    GRID = ((0.0, 0.05, 0.17, 0.18, 0.5, 2.0), (0.3, 0.5, 1.0, 9.0))

    def run(self, monkeypatch, scalar_pairs):
        monkeypatch.setattr(meanfield, "SCALAR_PAIRS", scalar_pairs)
        cells = [MfParams(a, j) for a in self.GRID[0] for j in self.GRID[1]]
        m, r, converged, stop = meanfield._iterate(cells, PROBES)
        defined = np.arange(len(PROBES)) < stop[:, None]
        return (m[defined], r[defined], converged[defined], stop.tolist(),
                scan_phase_diagram(*self.GRID))

    @pytest.mark.parametrize("scalar_pairs", [meanfield.SCALAR_PAIRS, 10**6])
    def test_matches_lockstep(self, monkeypatch, scalar_pairs):
        m, r, converged, stop, diag = self.run(monkeypatch, 0)
        fm, fr, fconverged, fstop, fdiag = self.run(monkeypatch, scalar_pairs)
        assert stop == fstop and min(stop) < len(PROBES)
        assert (m == fm).all() and (r == fr).all() and (converged == fconverged).all()
        assert [c.phase for c in diag.cells] == [c.phase for c in fdiag.cells]
        for cell, fcell in zip(diag.cells, fdiag.cells):
            assert [lab for _, lab in cell.solutions] == [lab for _, lab in fcell.solutions]
            assert [s.m for s, _ in cell.solutions] == [s.m for s, _ in fcell.solutions]
            assert [s.r for s, _ in cell.solutions] == [s.r for s, _ in fcell.solutions]
        assert diag.to_csv() == fdiag.to_csv()

    def test_singular_message(self, monkeypatch):
        messages = []
        for scalar_pairs in (0, 10**6):
            monkeypatch.setattr(meanfield, "SCALAR_PAIRS", scalar_pairs)
            for start in (OrderParameters(0.0, 0.0), OrderParameters(1e-3, 0.0)):
                with pytest.raises(SingularDenominatorError) as err:
                    iterate_finite(MfParams(0.0, 0.5), start)
                messages.append(str(err.value))
        assert messages[:2] == messages[2:]

    def test_infinite_argument_stays_in_lockstep(self, monkeypatch):
        # 4Jt(m + (g/J)M) overflows on the first step from a huge start m:
        # math.cos raises where numpy gives NaN, so the pair goes on in the
        # lockstep loop.  iterate_finite refuses such a start, so the loop
        # is called directly.
        params, start = MfParams(0.0, 1e8), (1e301, 0.0)
        runs = []
        for scalar_pairs in (0, 10**6):
            monkeypatch.setattr(meanfield, "SCALAR_PAIRS", scalar_pairs)
            with np.errstate(over="ignore"):
                runs.append(meanfield._iterate([params], [start]))
        m, _, ok, _ = runs[0]
        assert math.isnan(m[0, 0]) and not ok[0, 0]
        assert repr(runs[0]) == repr(runs[1])
