import math

import numpy as np
import pytest

from qamem.meanfield import (
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


class TestSinglePattern:
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

    def test_overlap_decreases_with_loading(self):
        prev = 1.1
        for alpha in (0.02, 0.05, 0.1, 0.15):
            sol, ok = iterate_finite(
                MfParams(alpha=alpha, Jt=1.0), OrderParameters(1.0, 0.01)
            )
            assert ok
            assert sol.m < prev
            prev = sol.m

    def test_validation(self):
        with pytest.raises(MeanFieldError):
            iterate_finite(
                MfParams(alpha=0.1, Jt=1.0), OrderParameters(1.0, 0.0), eta=0.0
            )


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

    def test_grid_validation(self):
        with pytest.raises(MeanFieldError):
            scan_phase_diagram((), (1.0,))
        with pytest.raises(MeanFieldError):
            scan_phase_diagram((0.2, 0.1), (1.0,))
