"""Classical Hopfield baseline: Hebb couplings, energy, asynchronous dynamics.

Patterns are stored in the couplings w_ij = (1/n) sum_mu xi_i xi_j (zero
diagonal) and retrieved by zero-temperature asynchronous updates
s_i <- sign(sum_j w_ij s_j), which never increase the energy
E = -(1/2) sum_{i != j} w_ij s_i s_j.  The capacity experiment measures the
final overlap with a target pattern from corrupted starts as the loading
factor alpha = p/n grows; retrieval degrades sharply past alpha ~ 0.14
because of crosstalk between stored patterns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emit import csv_text
from .patterns import PatternSet
from .seeds import task_rng

#: sweeps of asynchronous updates per capacity trial
CAPACITY_SWEEPS = 50


class ClassicalError(ValueError):
    pass


@dataclass(frozen=True)
class HopfieldNet:
    weights: np.ndarray  # symmetric, zero diagonal

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _as_spins(s) -> np.ndarray:
    arr = np.asarray(s, dtype=np.int64)
    if arr.ndim != 1 or not np.all(np.abs(arr) == 1):
        raise ClassicalError("state must be a 1-D sequence of +/-1 spins")
    return arr


def _hebb_net(xi) -> HopfieldNet:
    """Hebb couplings of the (p, n) spin rows ``xi``.

    Every entry of xi.T @ xi is an integer sum, exact in float64, so the
    weights do not depend on how the product is evaluated.
    """
    xi = np.asarray(xi, dtype=np.float64)
    w = xi.T @ xi / xi.shape[1]
    np.fill_diagonal(w, 0.0)
    return HopfieldNet(weights=w)


def hebb(pattern_set: PatternSet) -> HopfieldNet:
    """Couplings w_ij = (1/n) sum over patterns of xi_i * xi_j, zero diagonal."""
    return _hebb_net([p.to_spins() for p in pattern_set])


def energy(net: HopfieldNet, s) -> float:
    spins = _as_spins(s)
    if spins.shape[0] != net.n:
        raise ClassicalError(
            f"state length {spins.shape[0]} does not match n={net.n}"
        )
    return -0.5 * float(spins @ net.weights @ spins)


def update_async(
    net: HopfieldNet, s, rng: np.random.Generator, sweeps: int = 100
) -> tuple[np.ndarray, bool]:
    """Asynchronous single-spin updates in seeded random order.

    Each sweep visits every neuron once in a fresh random permutation and
    sets s_i to the sign of its local field, keeping the current value on a
    zero field (which makes every accepted flip lower the energy).  Returns
    the final state and whether a full sweep passed with no change.
    """
    if sweeps < 1:
        raise ClassicalError("sweeps must be >= 1")
    spins = _as_spins(s).copy()
    if spins.shape[0] != net.n:
        raise ClassicalError(
            f"state length {spins.shape[0]} does not match n={net.n}"
        )
    w = net.weights
    for _ in range(sweeps):
        changed = False
        for i in rng.permutation(net.n):
            field = w[i] @ spins
            if field > 0 and spins[i] != 1:
                spins[i] = 1
                changed = True
            elif field < 0 and spins[i] != -1:
                spins[i] = -1
                changed = True
        if not changed:
            return spins, True
    return spins, False


def overlap(a, b) -> float:
    """Normalized overlap (1/n) sum_i a_i b_i between two spin states."""
    sa, sb = _as_spins(a), _as_spins(b)
    if sa.shape != sb.shape:
        raise ClassicalError("overlap requires equal-length states")
    return float(sa @ sb) / sa.shape[0]


@dataclass(frozen=True)
class CapacityRow:
    alpha: float
    p: int
    trials: int
    mean_overlap: float
    std_overlap: float


@dataclass(frozen=True)
class CapacityTable:
    rows: tuple[CapacityRow, ...]

    def to_csv(self) -> str:
        return csv_text(
            ["alpha", "p", "trials", "mean_overlap", "std_overlap"],
            (
                [row.alpha, row.p, row.trials, row.mean_overlap, row.std_overlap]
                for row in self.rows
            ),
        )


def _capacity_trial(
    n: int, p: int, corruption: float, rng: np.random.Generator
) -> float:
    xi = rng.choice([-1, 1], size=(p, n))
    net = _hebb_net(xi)
    start = xi[0].copy()
    k = round(corruption * n)
    if k:
        flip = rng.choice(n, size=k, replace=False)
        start[flip] *= -1
    final, _ = update_async(net, start, rng, sweeps=CAPACITY_SWEEPS)
    return abs(overlap(final, xi[0]))


def capacity_experiment_seeded(
    n: int,
    alpha_grid,
    trials: int,
    corruption: float,
    seed: int,
) -> CapacityTable:
    """Mean retrieval overlap from corrupted inputs at each loading factor.

    For every alpha, stores p = round(alpha * n) random patterns, starts the
    dynamics from the first pattern with a fraction of spins flipped, and
    records the final overlap with that target.  Trial (i_alpha, i_trial)
    runs on its own generator seeded from the master seed and the flat task
    index, so each trial's result depends on that index alone.
    """
    if not 0.0 <= corruption < 1.0:
        raise ClassicalError("corruption must be in [0, 1)")
    rows = []
    for i, alpha in enumerate(float(a) for a in alpha_grid):
        p = max(1, round(alpha * n))
        rngs = (task_rng(seed, i * trials + t) for t in range(trials))
        arr = np.array(
            [_capacity_trial(n, p, corruption, rng) for rng in rngs]
        )
        rows.append(
            CapacityRow(
                alpha=alpha,
                p=p,
                trials=trials,
                mean_overlap=float(arr.mean()),
                std_overlap=float(arr.std()),
            )
        )
    return CapacityTable(rows=tuple(rows))
