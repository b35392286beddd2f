"""Classical Hopfield baseline: Hebb couplings, energy, asynchronous dynamics.

Patterns xi^mu are stored in the couplings w_ij = C_ij / n, where
C = sum_mu xi^mu (xi^mu)^T with a zero diagonal, and retrieved by
zero-temperature asynchronous updates s_i <- sign(h_i) with the field
h = C s, which never increase the energy E = -(1/2n) s.C.s.  The net holds
the integer couplings C themselves, as float64: |C_ij| <= p and
|h_i| <= p*n, far below 2^53, so every field is an exact integer, a zero
field is exactly zero, and the tie rule (keep s_i on a zero field) holds.
Since h changes only when a spin flips, a sweep is event-driven: one
vector pass over the rest of the visiting order finds the next spin with
s_i h_i < 0, its flip updates h in O(n), and the pass resumes after it.

The capacity experiment measures the final overlap with a target pattern
from corrupted starts as the loading factor alpha = p/n grows; retrieval
degrades sharply past alpha ~ 0.14 because of crosstalk between stored
patterns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emit import csv_text
from .patterns import PatternSet
from .seeds import task_rng

#: sweeps of asynchronous updates per capacity trial
CAPACITY_SWEEPS = 50
#: most elements of the patterns xi and couplings C of one capacity trial,
#: p*n + n*n; a trial at the limit peaks at about 16 bytes per element
MAX_CAPACITY_ELEMENTS = 10**7


class ClassicalError(ValueError):
    pass


@dataclass(frozen=True)
class HopfieldNet:
    couplings: np.ndarray  # C = xi^T xi as float64 integers, zero diagonal

    @property
    def n(self) -> int:
        return self.couplings.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The Hebb weights w = C / n (symmetric, zero diagonal)."""
        return self.couplings / self.n


def _as_spins(s) -> np.ndarray:
    arr = np.asarray(s, dtype=np.int64)
    if arr.ndim != 1 or not np.all(np.abs(arr) == 1):
        raise ClassicalError("state must be a 1-D sequence of +/-1 spins")
    return arr


def _net_spins(net: HopfieldNet, s) -> np.ndarray:
    spins = _as_spins(s)
    if spins.shape[0] != net.n:
        raise ClassicalError(
            f"state length {spins.shape[0]} does not match n={net.n}"
        )
    return spins


def _hebb_net(xi) -> HopfieldNet:
    """Hebb couplings of the (p, n) spin rows ``xi``.

    Every entry of xi.T @ xi is an integer sum, exact in float64, so the
    couplings do not depend on how the product is evaluated.
    """
    xi = np.asarray(xi, dtype=np.float64)
    c = xi.T @ xi
    np.fill_diagonal(c, 0.0)
    return HopfieldNet(couplings=c)


def hebb(pattern_set: PatternSet) -> HopfieldNet:
    """Couplings w_ij = (1/n) sum over patterns of xi_i * xi_j, zero diagonal."""
    return _hebb_net(2 * pattern_set.bits.astype(np.int8) - 1)


def energy(net: HopfieldNet, s) -> float:
    """E = -(1/2n) s.C.s, exact up to the final division."""
    spins = _net_spins(net, s)
    return -float(spins @ net.couplings @ spins) / (2 * net.n)


def update_async(
    net: HopfieldNet, s, rng: np.random.Generator, sweeps: int = 100
) -> tuple[np.ndarray, bool]:
    """Asynchronous single-spin updates in seeded random order.

    Each sweep visits every neuron once in a fresh ``rng.permutation(n)``
    and sets s_i to the sign of its exact integer field h_i = (C s)_i,
    keeping the current value on a zero field (so every accepted flip
    lowers the energy).  Returns the final state and whether a full sweep
    passed with no change.

    The sweep is event-driven, with the same visits and outcomes as
    testing one neuron at a time: h changes only on a flip, so one vector
    pass over the rest of the order finds the next visit with s_i h_i < 0;
    flipping s_i adds 2 s_i C[:, i] to h, and the pass resumes after that
    visit.  A sweep with no flip costs one pass.
    """
    if sweeps < 1:
        raise ClassicalError("sweeps must be >= 1")
    spins = _net_spins(net, s).astype(np.float64)
    c = net.couplings
    h = c @ spins
    for _ in range(sweeps):
        order = rng.permutation(net.n)
        changed = False
        k = 0
        while k < net.n:
            # visits from k on, in order, whose field opposes their spin
            rest = order[k:]
            against = (spins * h)[rest] < 0
            j = int(against.argmax())
            if not against[j]:
                break
            i = rest[j]
            spins[i] = -spins[i]
            h += (2.0 * spins[i]) * c[i]  # C is symmetric: row i is column i
            changed = True
            k += j + 1
        if not changed:
            return spins.astype(np.int64), True
    return spins.astype(np.int64), False


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


def _capacity_p(n: int, alpha: float) -> int:
    return max(1, round(alpha * n))


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
    if n < 1:
        raise ClassicalError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ClassicalError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= corruption < 1.0:
        raise ClassicalError("corruption must be in [0, 1)")
    alphas = [float(a) for a in alpha_grid]
    for alpha in alphas:
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ClassicalError(f"alpha must be finite and >= 0, got {alpha}")
        # exact n*n, then alpha*n, before round() sees an overflowed product
        if (
            n * n > MAX_CAPACITY_ELEMENTS
            or alpha * n > MAX_CAPACITY_ELEMENTS
            or _capacity_p(n, alpha) * n + n * n > MAX_CAPACITY_ELEMENTS
        ):
            raise ClassicalError(
                f"n={n}, alpha={alpha}: the patterns and couplings of a trial "
                f"(p*n + n*n elements) exceed the limit of {MAX_CAPACITY_ELEMENTS}"
            )
    rows = []
    for i, alpha in enumerate(alphas):
        p = _capacity_p(n, alpha)
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
