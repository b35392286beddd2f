import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qamem import thermo
from qamem.thermo import (
    MAX_TUNE_B,
    ThermoError,
    TuneResult,
    UndefinedPotentialsError,
    energy_level,
    partition_avg,
    potentials,
    scan_transition,
    tune,
)


def continuum_reference(b, x0, log=False):
    """mean of cos^{2b}(pi*x/2) over [x0, 1] by mpmath at 40 digits, or its
    log, which stays finite where the mean underflows a double.

    The integrand peaks at x0 with width 1/(pi*b*tan(pi*x0/2)), or
    2/(pi*sqrt(b)) at x0 = 0; the breakpoints double from that width.
    """
    with mpmath.workdps(40):
        x0 = mpmath.mpf(x0)
        width = 2 / (mpmath.pi * mpmath.sqrt(b))
        if x0 > 0:
            width = min(width, 1 / (mpmath.pi * b * mpmath.tan(mpmath.pi * x0 / 2)))
        cuts = [x0 + width * 2**k for k in range(16)]
        points = [x0] + [x for x in cuts if x < 1] + [mpmath.mpf(1)]
        total = mpmath.quad(lambda x: mpmath.cos(mpmath.pi * x / 2) ** (2 * b), points)
        mean = total / (1 - x0)
        return float(mpmath.log(mean) if log else mean)


def doubling_tune(epsilon, nu, n):
    """The reference search of tune: slack at b = 1, then at b = 2, 4,
    8, ..., then a bisection of the last doubling; each b is one evaluation
    of the discrete levels.  The last doubling is clamped to MAX_TUNE_B,
    so the search covers every b up to it."""
    d = round(epsilon * n)
    levels = thermo._Levels(d, n)
    points = {}

    def slack(b):
        points[b] = levels.point(b)
        return points[b].D_eff - epsilon - (1.0 - nu)

    if slack(1) <= 0:
        best = 1
    else:
        lo, hi = 1, 2
        while slack(hi) > 0:
            if hi == MAX_TUNE_B:
                raise thermo.UnattainableTargetError(
                    f"accuracy target unattainable within b <= {MAX_TUNE_B}"
                )
            lo, hi = hi, min(hi * 2, MAX_TUNE_B)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if slack(mid) > 0:
                lo = mid
            else:
                hi = mid
        best = hi

    point = points[best]
    log_p_rec = 2.0 * best * math.log(math.cos(math.pi * point.D_eff / 2.0))
    if -log_p_rec > math.log(sys.float_info.max):
        raise ThermoError(f"T_repeat = 1/p_rec exceeds the float range at b = {best}")
    return TuneResult(
        b=best,
        T_repeat=math.ceil(math.exp(-log_p_rec)),
        T_amplified=math.ceil(math.exp(-log_p_rec / 2.0)),
        achieved_D=point.D_eff,
    )


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except ThermoError as exc:
        return type(exc), str(exc)


class TestEnergyLevel:
    def test_examples(self):
        assert energy_level(0, 8) == 0.0
        assert energy_level(8, 8) == math.inf
        n = 6
        assert energy_level(3, n) == pytest.approx(
            -2 * math.log(math.cos(math.pi * 3 / (2 * n))), abs=1e-14
        )

    def test_out_of_range(self):
        with pytest.raises(ThermoError):
            energy_level(-1, 4)
        with pytest.raises(ThermoError):
            energy_level(5, 4)


class TestPartition:
    def test_b_zero_is_one(self):
        assert partition_avg(0, 0, 100) == 1.0
        assert partition_avg(0, 30, 100) == 1.0

    def test_d_equals_n_is_zero(self):
        assert partition_avg(2.0, 10, 10) == 0.0

    def test_matches_direct_sum(self):
        # independent plain-float evaluation at small n
        for b, d, n in ((1.0, 0, 8), (3.5, 2, 8), (10.0, 5, 12)):
            total = sum(
                math.cos(math.pi * j / (2 * n)) ** (2 * b) for j in range(d, n + 1)
            )
            want = total / (n - d + 1)
            assert partition_avg(b, d, n) == pytest.approx(want, rel=1e-12)

    def test_continuum_b_one(self):
        # integral of cos^2(pi x/2) on [0, 1] is exactly 1/2
        assert partition_avg(1.0, 0, 1000, mode="continuum") == pytest.approx(
            0.5, abs=1e-10
        )

    def test_continuum_matches_quadrature(self):
        b, x0 = 4.0, 0.2
        val, _ = quad(lambda x: math.cos(math.pi * x / 2) ** (2 * b), x0, 1.0)
        want = val / (1 - x0)
        n = 10
        assert partition_avg(b, round(x0 * n), n, mode="continuum") == pytest.approx(
            want, rel=1e-9
        )

    @pytest.mark.parametrize("b", [0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("x0", [0.0, 0.01, 0.1, 0.3, 0.5, 0.9])
    def test_continuum_matches_mpmath(self, b, x0):
        n = 1000
        got = partition_avg(b, round(x0 * n), n, mode="continuum")
        # below the smallest normal double the answer must underflow to ~0
        assert got == pytest.approx(continuum_reference(b, x0), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("b", [1e6, 2.0**23])
    @pytest.mark.parametrize("x0", [0.0, 0.01, 0.1, 0.5])
    def test_continuum_log_space_matches_mpmath(self, b, x0):
        # at these b the plain mean underflows below x0 = 0 or is far from
        # normal; its log is what tune solves with
        got = thermo._continuum_log_avg(b, x0)
        assert got == pytest.approx(continuum_reference(b, x0, log=True), rel=1e-12, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        b=st.floats(0.01, 50.0),
        n=st.integers(1, 64),
        d_frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_fsum(self, b, n, d_frac):
        # cos^{2b} summed exactly in plain floats; b <= 50 keeps every term normal
        d = int(d_frac * n)
        terms = [math.cos(math.pi * j / (2 * n)) ** (2 * b) for j in range(d, n)]
        energies = [-2 * math.log(math.cos(math.pi * j / (2 * n))) for j in range(d, n)]
        z = math.fsum(terms) / (n - d + 1)
        u = math.fsum(t * e for t, e in zip(terms, energies)) / math.fsum(terms)
        assert partition_avg(b, d, n) == pytest.approx(z, rel=1e-12)
        pt = potentials(b, d, n)
        assert pt.Z_ratio == pytest.approx(z, rel=1e-12)
        assert pt.U == pytest.approx(u, rel=1e-12, abs=1e-15)

    def test_discrete_converges_to_continuum(self):
        cont = partition_avg(3.0, 1, 10, mode="continuum")
        for n in (10**4, 10**5):
            dsc = partition_avg(3.0, round(0.1 * n), n)
            assert abs(dsc - cont) < 1e-4

    def test_validation(self):
        with pytest.raises(ThermoError):
            partition_avg(-1.0, 0, 10)
        with pytest.raises(ThermoError):
            partition_avg(1.0, 11, 10)
        with pytest.raises(ThermoError):
            partition_avg(1.0, 0, 10, mode="bogus")
        # 2b overflows: the weights would be nan, not a partition function
        for b in (math.inf, 1e308):
            for mode in ("discrete", "continuum"):
                with pytest.raises(ThermoError, match="2b finite"):
                    partition_avg(b, 3, 10, mode=mode)


class TestPotentials:
    def test_thermodynamic_identity(self):
        for b in (0.5, 1.0, 7.0, 100.0):
            for d in (0, 10, 300):
                pt = potentials(b, d, 1000)
                assert pt.F == pytest.approx(pt.U - pt.S / b, abs=1e-9)

    def test_partition_consistency(self):
        pt = potentials(2.5, 50, 500)
        assert pt.Z_ratio == pytest.approx(partition_avg(2.5, 50, 500), rel=1e-12)
        assert pt.F == pytest.approx(-math.log(pt.Z_ratio) / 2.5, abs=1e-12)

    def test_distance_encodes_partition(self):
        # cos^{2b}(pi*D/2) reproduces Z exactly, by construction of D
        for b, d, n in ((1.0, 0, 100), (50.0, 10, 100), (1e4, 80000, 8000000)):
            pt = potentials(b, d, n)
            assert math.cos(math.pi * pt.D_eff / 2) ** (2 * b) == pytest.approx(
                pt.Z_ratio, rel=1e-9
            )

    def test_high_temperature_limit(self):
        # b -> 0 with n*b large: F -> 2 log 2 and D -> 2/3
        pt = potentials(0.001, 0, 10**7)
        assert pt.F == pytest.approx(2 * math.log(2), abs=5e-3)
        assert pt.D_eff == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_low_temperature_limit(self):
        # b -> inf: F approaches the lowest energy level E(d)
        pt = potentials(1e5, 100, 1000)
        assert pt.F == pytest.approx(energy_level(100, 1000), abs=1e-3)
        assert pt.D_eff == pytest.approx(0.1, abs=1e-3)

    def test_entropy_nonpositive(self):
        for b in (0.01, 0.1, 1.0, 10.0, 1e4):
            for d_over_n in (0.0, 0.01, 0.1, 0.3):
                pt = potentials(b, round(d_over_n * 1000), 1000)
                assert pt.S <= 1e-12

    def test_distance_monotone_in_b(self):
        prev = 1.0
        for b in np.logspace(-2, 5, 40):
            cur = potentials(b, 10, 1000).D_eff
            assert cur <= prev + 1e-12
            prev = cur

    def test_distance_bounds(self):
        for b in (0.1, 1.0, 100.0):
            d, n = 50, 500
            D = potentials(b, d, n).D_eff
            # upper bound is the disordered value, 2/3 up to finite-n effects
            assert d / n - 1e-12 <= D <= 2.0 / 3.0 + 0.01

    def test_large_deep_checkpoint(self):
        pt = potentials(1e4, 80000, 8000000)
        assert pt.D_eff == pytest.approx(0.01888921113279636, abs=1e-10)
        assert pt.Z_ratio == pytest.approx(1.499759101426339e-4, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ThermoError):
            potentials(0.0, 0, 10)
        for b in (math.inf, math.nan, 1e308):
            with pytest.raises(ThermoError, match="b must be finite"):
                potentials(b, 0, 10)
        with pytest.raises(UndefinedPotentialsError):
            potentials(1.0, 10, 10)
        with pytest.raises(ThermoError, match="need 0 <= d <= n, got d=11"):
            potentials(1.0, 11, 10)

    def test_free_energy_overflow_refused(self):
        """Z_ratio tends to (n-d)/(n-d+1) as b -> 0, so F = -log Z / b
        grows without bound; where it leaves the float range, b is refused."""
        assert potentials(1e-310, 10, 100).F == pytest.approx(1.1e308, rel=0.01)
        with pytest.raises(ThermoError, match="b = 1e-320 is too small"):
            potentials(1e-320, 10, 100)

    def test_numpy_b_overflow_raises_without_warning(self):
        """A NumPy-float b overflows F as a Python float does: the only
        sign of it is the ThermoError, not a RuntimeWarning first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ThermoError, match="b = 1e-320 is too small"):
                scan_transition(0.1, 100, list(np.array([1e-320, 1.0])))


class TestScan:
    def grid(self):
        return list(np.logspace(-2, 5, 29))

    def test_points_and_rescaling(self):
        scan = scan_transition(0.01, 10**4, self.grid())
        assert len(scan.points) == 29
        assert min(scan.s_rescaled) == pytest.approx(0.0, abs=1e-12)
        assert max(scan.s_rescaled) <= 1.0 + 1e-12
        # entropy rescaled to start near its disordered value
        assert scan.s_rescaled[0] == pytest.approx(max(scan.s_rescaled), rel=1e-6)

    def test_crossover_located(self):
        scan = scan_transition(0.01, 10**4, self.grid())
        assert scan.b_crossover is not None
        mid = (0.01 + 2.0 / 3.0) / 2.0
        d_at = potentials(scan.b_crossover, 100, 10**4).D_eff
        assert d_at == pytest.approx(mid, abs=0.02)

    def test_crossover_on_equal_points(self):
        """d = 2 = 2n/3 puts the ordered limit on the midpoint, so both
        points have D_eff exactly 2/3: the scan reaches it at the first."""
        scan = scan_transition(0.5, 3, [1e300, 1e305])
        assert [pt.D_eff for pt in scan.points] == [2 / 3, 2 / 3]
        assert scan.b_crossover == 1e300

    def test_requires_ascending_grid(self):
        with pytest.raises(ThermoError):
            scan_transition(0.01, 1000, [1.0, 1.0, 2.0])
        with pytest.raises(ThermoError):
            scan_transition(0.01, 1000, [])

    def test_rejects_bad_size(self):
        for d_over_n in (math.nan, math.inf):
            with pytest.raises(ThermoError, match="d_over_n must be finite"):
                scan_transition(d_over_n, 1000, [1.0])
        with pytest.raises(ThermoError, match="n must be >= 1"):
            scan_transition(0.1, 0, [1.0])

    def test_csv_shape(self):
        scan = scan_transition(0.1, 1000, [0.5, 5.0, 50.0])
        lines = scan.to_csv().splitlines()
        assert lines[0] == "b,d_over_n,n,Z_ratio,F,U,S,S_rescaled,D_eff"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == pytest.approx(0.1)


class TestTune:
    def test_trivial_target_gives_b_one(self):
        res = tune(0.1, 0.0, 1000)
        assert res == TuneResult(
            b=1,
            T_repeat=res.T_repeat,
            T_amplified=res.T_amplified,
            achieved_D=res.achieved_D,
        )
        assert res.b == 1

    def test_minimality(self):
        eps, nu, n = 0.1, 0.8, 1000
        res = tune(eps, nu, n)
        d = round(eps * n)
        assert potentials(res.b, d, n).D_eff - eps <= 1 - nu
        if res.b > 1:
            assert potentials(res.b - 1, d, n).D_eff - eps > 1 - nu

    def test_thresholds_follow_distance(self):
        res = tune(0.1, 0.8, 1000)
        p_avg = math.cos(math.pi * res.achieved_D / 2) ** (2 * res.b)
        assert res.T_repeat == math.ceil(1.0 / p_avg)
        assert res.T_amplified == math.ceil(1.0 / math.sqrt(p_avg))
        assert res.T_amplified <= res.T_repeat

    def test_unattainable_raises(self):
        with pytest.raises(ThermoError):
            tune(0.1, 1.0, 1000)

    def test_t_repeat_past_float_range_raises(self):
        with pytest.raises(ThermoError, match=r"^T_repeat = 1/p_rec exceeds the float range at b = \d+$"):
            tune(0.055443360214999654, 1.0, 1411)

    def test_validation(self):
        with pytest.raises(ThermoError):
            tune(0.0, 0.5, 100)
        with pytest.raises(ThermoError):
            tune(0.5, 1.5, 100)
        with pytest.raises(ThermoError, match="n must be >= 1, got -5"):
            tune(0.1, 0.5, -5)

    def test_answer_above_two_to_the_23(self):
        # nu is the continuum's target at b = 9e6 for d = 0; the largest b a
        # doubling from 1 reaches below MAX_TUNE_B is 2^23
        eps, nu, n = 1e-6, 0.99937945812, 10**5
        res = tune(eps, nu, n)
        assert 2**23 < res.b <= MAX_TUNE_B
        assert potentials(res.b, 0, n).D_eff - eps - (1 - nu) <= 0
        assert potentials(res.b - 1, 0, n).D_eff - eps - (1 - nu) > 0

    @pytest.mark.parametrize(
        "args, want",
        [
            ((0.05, 0.914, 1_020_000), None),
            # criterion 11's input and its printed result
            ((0.01, 0.9911, 8_000_000), TuneResult(9982, 6628, 82, 0.018899746009528356)),
        ],
    )
    def test_continuum_start_needs_few_evaluations(self, monkeypatch, args, want):
        # every b tested against the discrete levels is one O(n) evaluation
        calls = []
        point = thermo._Levels.point
        monkeypatch.setattr(
            thermo._Levels, "point", lambda self, b: calls.append(b) or point(self, b)
        )
        res = tune(*args)
        assert len(calls) <= 3, calls
        if want is not None:
            assert res == want

    @settings(max_examples=150, deadline=None)
    @given(
        epsilon=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(1e-6, 1e-2),
        ),
        nu=st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0), st.just(1.0)),
        n=st.one_of(st.integers(1, 64), st.integers(1, 5000)),
    )
    @example(epsilon=0.05, nu=0.914, n=1_020_000)
    @example(epsilon=0.1, nu=0.8, n=1000)  # tune.out
    @example(epsilon=0.1, nu=0.0, n=1000)  # b = 1
    @example(epsilon=0.1, nu=1.0, n=1000)
    @example(epsilon=1e-4, nu=0.9995, n=1000)  # d = 0, b near 5e6
    @example(epsilon=0.999, nu=0.5, n=100)  # d = n
    @example(epsilon=0.055443360214999654, nu=1.0, n=1411)  # T_repeat past the float range
    def test_matches_doubling_search(self, epsilon, nu, n):
        assert outcome(tune, epsilon, nu, n) == outcome(doubling_tune, epsilon, nu, n)

    @settings(max_examples=300, deadline=None)
    @given(
        answer=st.one_of(st.integers(1, 64), st.integers(1, MAX_TUNE_B + 1)),
        start=st.one_of(st.integers(-2, 64), st.integers(1, MAX_TUNE_B + 2)),
    )
    @example(answer=1, start=1)
    @example(answer=MAX_TUNE_B, start=1)
    @example(answer=MAX_TUNE_B + 1, start=1)
    @example(answer=2**23 + 1, start=1)
    def test_search_finds_the_first_b(self, answer, start):
        calls = []

        def slack(b):
            calls.append(b)
            return 0.0 if b >= answer else 1.0

        got = thermo._first_b(slack, start)
        assert got == (answer if answer <= MAX_TUNE_B else None)
        assert all(1 <= b <= MAX_TUNE_B for b in calls)
        # a gallop of at most 24 steps, and a bisection of its last step
        assert len(calls) <= 48
        if start == answer <= MAX_TUNE_B:
            assert len(calls) == (1 if answer == 1 else 2)
