import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamem import classical
from qamem.classical import (
    ClassicalError,
    _hebb_net,
    capacity_experiment_seeded,
    energy,
    hebb,
    overlap,
    update_async,
)
from qamem.patterns import Pattern, PatternSet


def S(*strings):
    return PatternSet(tuple(Pattern.from_string(s) for s in strings))


def integer_couplings(xi):
    """C = xi^T xi with a zero diagonal, in int64."""
    c = np.asarray(xi, dtype=np.int64).T @ np.asarray(xi, dtype=np.int64)
    np.fill_diagonal(c, 0)
    return c


def reference_update(xi, s, rng, sweeps):
    """The documented rule, transcribed with Python-int fields.

    Each sweep visits rng.permutation(n) in order and sets s_i to the sign
    of h_i = sum_j C_ij s_j, keeping s_i when h_i == 0.
    """
    rows = [[int(v) for v in row] for row in xi]
    n = len(s)
    c = [
        [0 if i == j else sum(r[i] * r[j] for r in rows) for j in range(n)]
        for i in range(n)
    ]
    s = [int(v) for v in s]
    for _ in range(sweeps):
        changed = False
        for i in rng.permutation(n):
            field = sum(cij * sj for cij, sj in zip(c[i], s))
            if field > 0 and s[i] != 1:
                s[i] = 1
                changed = True
            elif field < 0 and s[i] != -1:
                s[i] = -1
                changed = True
        if not changed:
            return s, True
    return s, False


def zero_field_visits(n, p, seed):
    """(integer-zero fields met, of them flipped) in one seeded recall.

    Runs update_async one sweep at a time and replays each sweep's
    permutation on a copy of the rng.  A spin is visited once per sweep, so
    at its visit the spins visited before it hold their end-of-sweep values
    and the rest their start-of-sweep values: that gives its exact field.
    """
    data = np.random.default_rng(seed)
    xi = data.choice([-1, 1], size=(p, n))
    c = integer_couplings(xi)
    net = _hebb_net(xi)
    state = xi[0].copy()
    state[data.choice(n, size=n // 20, replace=False)] *= -1
    rng = np.random.default_rng(seed + 100)
    met = flipped = 0
    for _ in range(50):
        order = copy.deepcopy(rng).permutation(n)
        after, converged = update_async(net, state, rng, sweeps=1)
        current = state.copy()
        for i in order:
            field = int(c[i] @ current)
            if field == 0:
                met += 1
                flipped += int(after[i] != current[i])
            else:
                assert after[i] == (1 if field > 0 else -1)
            current[i] = after[i]
        state = after
        if converged:
            return met, flipped
    raise AssertionError("no convergence in 50 sweeps")


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
            assert energy(net, final) <= e0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 8),
        sweeps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_integer_transcription(self, n, p, sweeps, seed):
        data = np.random.default_rng(seed)
        xi = data.choice([-1, 1], size=(p, n))
        start = data.choice([-1, 1], size=n)
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        final, converged = update_async(_hebb_net(xi), start, rng, sweeps)
        want, want_converged = reference_update(xi, start, ref_rng, sweeps)
        assert final.tolist() == want
        assert converged == want_converged
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_fields_keep_their_spin(self):
        # n not a power of two and p even: fields can be exactly zero, and
        # w = C/n is inexact, so a float field may leave a +-1e-17 residue
        zeros = zero_flips = 0
        for seed in range(8):
            met, flipped = zero_field_visits(100, 40, seed)
            zeros += met
            zero_flips += flipped
        assert zeros > 0
        assert zero_flips == 0

    def test_couplings_are_integers_and_weights_their_ratio(self):
        xi = np.random.default_rng(4).choice([-1, 1], size=(7, 30))
        net = _hebb_net(xi)
        assert np.array_equal(net.couplings, integer_couplings(xi))
        assert np.array_equal(net.weights, net.couplings / 30)

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

    @pytest.mark.parametrize(
        "n, alphas, trials, message",
        [
            (0, (0.1,), 2, "n must be"),
            (-3, (0.1,), 2, "n must be"),
            (50, (0.1,), 0, "trials must be"),
            (50, (0.1, -0.2), 2, "alpha must be"),
            (50, (float("nan"),), 2, "alpha must be"),
            (50, (float("inf"),), 2, "alpha must be"),
        ],
    )
    def test_argument_validation(self, n, alphas, trials, message):
        with pytest.raises(ClassicalError, match=message):
            capacity_experiment_seeded(n, alphas, trials, corruption=0.0, seed=0)

    def test_trial_size_limit(self, monkeypatch):
        # alpha = 4 at n = 500 fits under the limit and runs
        table = capacity_experiment_seeded(500, (4.0,), 1, corruption=0.05, seed=0)
        assert table.rows[0].p == 2000
        # p*n + n*n at the limit is allowed, one pattern more is refused
        monkeypatch.setattr(classical, "MAX_CAPACITY_ELEMENTS", 50 * 150 + 50 * 50)
        assert capacity_experiment_seeded(50, (3.0,), 1, 0.0, seed=0).rows[0].p == 150
        with pytest.raises(ClassicalError, match="n=50, alpha=3.02: .* limit of 10000"):
            capacity_experiment_seeded(50, (0.1, 3.02), 1, 0.0, seed=0)
