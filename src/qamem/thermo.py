"""Effective statistical mechanics of the average memory.

The post-selected output distribution is a Boltzmann distribution at
fictitious temperature t = 1/b with energy levels

    E(d) = -2 log cos(pi*d/2n).

Averaging over pattern distributions with minimal input distance d (taken
uniform on j in [d, n], the large-n unconstrained limit) gives an averaged
partition function per pattern

    Z_ratio(b, d, n) = mean_{j=d..n} cos^{2b}(pi*j/2n)

from which free energy, internal energy, entropy and the effective
input/output Hamming distance follow.  All heavy evaluations work in
log space (cos^{2b} as exp(2b*log cos)) so that b up to 1e7 and n up to
1e7 stay finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp


class ThermoError(ValueError):
    pass


class UndefinedPotentialsError(ThermoError):
    """Z vanishes (d = n with b > 0); no finite free energy exists."""


@dataclass(frozen=True)
class ThermoPoint:
    b: float
    d_over_n: float
    n: int
    Z_ratio: float
    F: float
    U: float
    S: float
    D_eff: float


@dataclass(frozen=True)
class TuneResult:
    b: int
    T_repeat: int
    T_amplified: int
    achieved_D: float


def energy_level(d: float, n: int) -> float:
    """Boltzmann energy of a branch at Hamming distance d; +inf at d = n."""
    if d < 0 or d > n:
        raise ThermoError(f"need 0 <= d <= n, got d={d}, n={n}")
    if d == n:
        return math.inf
    return -2.0 * math.log(math.cos(math.pi * d / (2 * n)))


@lru_cache(maxsize=4)
def _log_cos_tail(d: int, n: int) -> np.ndarray:
    """log cos(pi*j/2n) for j = d..n-1 (the j = n term vanishes identically)."""
    j = np.arange(d, n, dtype=np.float64)
    return np.log(np.cos(np.pi * j / (2 * n)))


def partition_avg(b: float, d: int, n: int, mode: str = "discrete") -> float:
    """Averaged partition function per pattern."""
    if d < 0 or d > n or b < 0:
        raise ThermoError(f"invalid range: b={b}, d={d}, n={n}")
    if mode == "continuum":
        x0 = d / n
        if x0 >= 1.0:
            return 0.0
        val, _ = quad(
            lambda x: math.exp(2 * b * math.log(math.cos(math.pi * x / 2)))
            if x < 1.0
            else 0.0,
            x0,
            1.0,
            limit=200,
        )
        return val / (1.0 - x0)
    if mode != "discrete":
        raise ThermoError(f"unknown mode {mode!r}")
    count = n - d + 1
    if b == 0:
        return 1.0
    if d == n:
        return 0.0
    logs = 2.0 * b * _log_cos_tail(d, n)
    return float(np.exp(logsumexp(logs))) / count


def potentials(b: float, d: int, n: int) -> ThermoPoint:
    """Free energy, internal energy, entropy and effective distance at (b, d)."""
    if not 0 < b < math.inf:
        raise ThermoError(f"b must be finite and > 0, got {b}")
    if d < 0 or d > n:
        raise ThermoError(f"need 0 <= d <= n, got d={d}")
    if d == n:
        raise UndefinedPotentialsError("Z vanishes at d = n")
    count = n - d + 1
    log_cos = _log_cos_tail(d, n)
    logw = 2.0 * b * log_cos
    log_z = float(logsumexp(logw)) - math.log(count)
    F = -log_z / b
    weights = np.exp(logw - logw.max())
    weights /= weights.sum()
    energies = -2.0 * log_cos
    U = float(np.dot(weights, energies))
    S = b * (U - F)
    D_eff = (2.0 / math.pi) * math.acos(math.exp(-F / 2.0))
    return ThermoPoint(
        b=b, d_over_n=d / n, n=n, Z_ratio=math.exp(log_z), F=F, U=U, S=S, D_eff=D_eff
    )


def effective_distance(b: float, d: int, n: int) -> float:
    return potentials(b, d, n).D_eff


@dataclass(frozen=True)
class TransitionScan:
    points: tuple[ThermoPoint, ...]
    s_rescaled: tuple[float, ...]
    b_crossover: float | None

    def to_csv(self) -> str:
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["b", "d_over_n", "n", "Z_ratio", "F", "U", "S", "S_rescaled", "D_eff"]
        )
        for pt, s_resc in zip(self.points, self.s_rescaled):
            writer.writerow(
                [
                    format(pt.b, ".17g"),
                    format(pt.d_over_n, ".17g"),
                    pt.n,
                    format(pt.Z_ratio, ".17g"),
                    format(pt.F, ".17g"),
                    format(pt.U, ".17g"),
                    format(pt.S, ".17g"),
                    format(s_resc, ".17g"),
                    format(pt.D_eff, ".17g"),
                ]
            )
        return buf.getvalue()


def scan_transition(d_over_n: float, n: int, b_grid) -> TransitionScan:
    """Scan the order/disorder transition over an ascending grid of b values.

    The crossover is located where the effective distance crosses the
    midpoint between its ordered (d/n) and disordered (2/3) limits.
    """
    if not math.isfinite(d_over_n):
        raise ThermoError(f"d_over_n must be finite, got {d_over_n}")
    if n < 1:
        raise ThermoError(f"n must be >= 1, got {n}")
    b_grid = list(b_grid)
    if not b_grid:
        raise ThermoError("empty b grid")
    if any(b2 <= b1 for b1, b2 in zip(b_grid, b_grid[1:])):
        raise ThermoError("b grid must be strictly ascending")
    d = round(d_over_n * n)
    points = tuple(potentials(b, d, n) for b in b_grid)

    s_values = [pt.S for pt in points]
    s_min = min(s_values)
    if s_min < 0:
        s_rescaled = tuple((s - s_min) / (0.0 - s_min) for s in s_values)
    else:
        s_rescaled = tuple(1.0 for _ in s_values)

    midpoint = (d / n + 2.0 / 3.0) / 2.0
    b_cr = None
    for prev, cur in zip(points, points[1:]):
        if prev.D_eff >= midpoint >= cur.D_eff:
            # log-linear interpolation between the bracketing grid points
            f = (prev.D_eff - midpoint) / (prev.D_eff - cur.D_eff)
            b_cr = math.exp(
                math.log(prev.b) + f * (math.log(cur.b) - math.log(prev.b))
            )
            break
    return TransitionScan(points=points, s_rescaled=s_rescaled, b_crossover=b_cr)


MAX_TUNE_B = 10**7


def tune(epsilon: float, nu: float, n: int) -> TuneResult:
    """Smallest integer b meeting the accuracy target, with both thresholds.

    The target is D(b, eps*n) - eps <= 1 - nu; the repetition threshold is
    the inverse of the average recognition probability cos^{2b}(pi*D/2),
    and amplitude amplification lowers it to its square root.
    """
    if not 0.0 < epsilon < 1.0:
        raise ThermoError("epsilon must be in (0, 1)")
    if not 0.0 <= nu <= 1.0:
        raise ThermoError("nu must be in [0, 1]")
    if n < 1:
        raise ThermoError(f"n must be >= 1, got {n}")
    d = round(epsilon * n)

    def slack(b: int) -> float:
        return effective_distance(b, d, n) - epsilon - (1.0 - nu)

    if slack(1) <= 0:
        best = 1
    else:
        lo, hi = 1, 2
        while slack(hi) > 0:
            lo, hi = hi, hi * 2
            if hi > MAX_TUNE_B:
                raise ThermoError(
                    f"accuracy target unattainable within b <= {MAX_TUNE_B}"
                )
        # slack(lo) > 0 >= slack(hi); D is monotone decreasing in b
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if slack(mid) > 0:
                lo = mid
            else:
                hi = mid
        best = hi

    point = potentials(best, d, n)
    log_p_rec = 2.0 * best * math.log(math.cos(math.pi * point.D_eff / 2.0))
    t_repeat = math.ceil(math.exp(-log_p_rec))
    t_amplified = math.ceil(math.exp(-log_p_rec / 2.0))
    return TuneResult(
        b=best,
        T_repeat=t_repeat,
        T_amplified=t_amplified,
        achieved_D=point.D_eff,
    )
