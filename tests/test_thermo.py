import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qamem.thermo import (
    ThermoError,
    TuneResult,
    UndefinedPotentialsError,
    effective_distance,
    energy_level,
    partition_avg,
    potentials,
    scan_transition,
    tune,
)


def continuum_reference(b, x0):
    """mean of cos^{2b}(pi*x/2) over [x0, 1] by mpmath at 40 digits.

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
        return float(total / (1 - x0))


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
            cur = effective_distance(b, 10, 1000)
            assert cur <= prev + 1e-12
            prev = cur

    def test_distance_bounds(self):
        for b in (0.1, 1.0, 100.0):
            d, n = 50, 500
            D = effective_distance(b, d, n)
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
        d_at = effective_distance(scan.b_crossover, 100, 10**4)
        assert d_at == pytest.approx(mid, abs=0.02)

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
        assert effective_distance(res.b, d, n) - eps <= 1 - nu
        if res.b > 1:
            assert effective_distance(res.b - 1, d, n) - eps > 1 - nu

    def test_thresholds_follow_distance(self):
        res = tune(0.1, 0.8, 1000)
        p_avg = math.cos(math.pi * res.achieved_D / 2) ** (2 * res.b)
        assert res.T_repeat == math.ceil(1.0 / p_avg)
        assert res.T_amplified == math.ceil(1.0 / math.sqrt(p_avg))
        assert res.T_amplified <= res.T_repeat

    def test_unattainable_raises(self):
        with pytest.raises(ThermoError):
            tune(0.1, 1.0, 1000)

    def test_validation(self):
        with pytest.raises(ThermoError):
            tune(0.0, 0.5, 100)
        with pytest.raises(ThermoError):
            tune(0.5, 1.5, 100)
        with pytest.raises(ThermoError, match="n must be >= 1, got -5"):
            tune(0.1, 0.5, -5)
