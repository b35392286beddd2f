import numpy as np
import pytest

from qamem.classical import (
    ClassicalError,
    capacity_experiment_seeded,
    energy,
    hebb,
    overlap,
    update_async,
)
from qamem.patterns import Pattern, PatternSet


def S(*strings):
    return PatternSet(tuple(Pattern.from_string(s) for s in strings))


class TestHebb:
    def test_single_pattern_couplings(self):
        net = hebb(S("0110"))
        xi = np.array(Pattern.from_string("0110").to_spins(), dtype=float)
        want = np.outer(xi, xi) / 4
        np.fill_diagonal(want, 0.0)
        assert np.allclose(net.weights, want)

    def test_symmetric_zero_diagonal(self):
        net = hebb(S("01101", "10011", "11111"))
        assert np.allclose(net.weights, net.weights.T)
        assert np.allclose(np.diag(net.weights), 0.0)

    def test_energy_example(self):
        net = hebb(S("00"))
        # w_01 = w_10 = 1/2; E(++) = -1/2 * 2 * (1/2) = -1/2
        assert energy(net, (1, 1)) == pytest.approx(-0.5)
        assert energy(net, (1, -1)) == pytest.approx(0.5)

    def test_state_validation(self):
        net = hebb(S("010"))
        with pytest.raises(ClassicalError):
            energy(net, (1, 1))
        with pytest.raises(ClassicalError):
            energy(net, (1, 0, 1))


class TestDynamics:
    def test_stored_pattern_is_fixed_point(self):
        ps = S("011010", "110001")
        net = hebb(ps)
        rng = np.random.default_rng(0)
        for pat in ps:
            final, converged = update_async(net, pat.to_spins(), rng)
            assert converged
            assert tuple(final) == pat.to_spins()

    def test_complement_is_fixed_point(self):
        pat = Pattern.from_string("011010")
        net = hebb(PatternSet((pat,)))
        rng = np.random.default_rng(1)
        final, converged = update_async(net, pat.complement().to_spins(), rng)
        assert converged
        assert tuple(final) == pat.complement().to_spins()

    def test_corrupted_input_recalled(self):
        pat = Pattern.from_string("0110100110")
        net = hebb(PatternSet((pat,)))
        rng = np.random.default_rng(2)
        start = np.array(pat.to_spins())
        start[:2] *= -1
        final, converged = update_async(net, start, rng)
        assert converged
        assert abs(overlap(final, pat.to_spins())) == pytest.approx(1.0)

    def test_energy_never_increases(self):
        rng = np.random.default_rng(3)
        n = 30
        ps = PatternSet(
            tuple(
                Pattern(tuple(int(b) for b in rng.integers(0, 2, size=n)))
                for _ in range(4)
            )
        )
        net = hebb(ps)
        for _ in range(10):
            s = rng.choice([-1, 1], size=n)
            e0 = energy(net, s)
            final, _ = update_async(net, s, rng, sweeps=5)
            assert energy(net, final) <= e0 + 1e-12

    def test_sweeps_validation(self):
        net = hebb(S("01"))
        with pytest.raises(ClassicalError):
            update_async(net, (1, -1), np.random.default_rng(0), sweeps=0)


class TestOverlap:
    def test_examples(self):
        assert overlap((1, 1, 1, 1), (1, 1, 1, 1)) == 1.0
        assert overlap((1, 1), (-1, -1)) == -1.0
        assert overlap((1, -1, 1, -1), (1, 1, 1, 1)) == 0.0

    def test_validation(self):
        with pytest.raises(ClassicalError):
            overlap((1, 1), (1, 1, 1))
        with pytest.raises(ClassicalError):
            overlap((1, 0), (1, 1))


class TestCapacity:
    def test_degrades_past_loading_threshold(self):
        table = capacity_experiment_seeded(
            200, (0.05, 0.2), trials=10, corruption=0.05, seed=11
        )
        low, high = table.rows
        assert low.mean_overlap > 0.95
        assert high.mean_overlap < low.mean_overlap - 0.1
        assert low.p == 10 and high.p == 40

    def test_seeded_matches_itself(self):
        kwargs = dict(
            n=100, alpha_grid=(0.05, 0.15), trials=6, corruption=0.05, seed=42
        )
        a = capacity_experiment_seeded(**kwargs).to_csv()
        b = capacity_experiment_seeded(**kwargs).to_csv()
        assert a == b

    def test_csv_shape(self):
        table = capacity_experiment_seeded(
            n=50, alpha_grid=(0.1,), trials=3, corruption=0.0, seed=1
        )
        lines = table.to_csv().splitlines()
        assert lines[0] == "alpha,p,trials,mean_overlap,std_overlap"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[1] == "5" and fields[2] == "3"

    def test_corruption_validation(self):
        with pytest.raises(ClassicalError):
            capacity_experiment_seeded(50, (0.1,), 2, corruption=1.0, seed=0)
