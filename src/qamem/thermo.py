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

The same average taken as an integral over x = j/n in [d/n, 1], whose
log :func:`_continuum_log_avg` gives, costs O(1) in n.  It differs from the
discrete mean by 1.5e-5 relative at (b, d, n) = (86, 51000, 1020000) and
by 3.5e-5 at (9982, 80000, 8000000).  :func:`tune` uses it to find where
to start: it solves the continuum accuracy target for an integer b, then
confirms or corrects that b against the exact discrete sum with one
gallop-and-bisect search, so a good start costs two O(n) evaluations.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .emit import csv_text


class ThermoError(ValueError):
    pass


class UndefinedPotentialsError(ThermoError):
    """Z vanishes (d = n with b > 0); no finite free energy exists."""


class UnattainableTargetError(ThermoError):
    """No b up to MAX_TUNE_B meets the accuracy target."""


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
    """Boltzmann energy of a branch at Hamming distance d; +inf at d = n.

    A paper object, the E(d) of the module docstring; the tests check the
    low-temperature limit of F against it.
    """
    if d < 0 or d > n:
        raise ThermoError(f"need 0 <= d <= n, got d={d}, n={n}")
    if d == n:
        return math.inf
    return -2.0 * math.log(math.cos(math.pi * d / (2 * n)))


#: Gauss-Legendre nodes per panel of the continuum integral
CONTINUUM_NODES = 30
#: panels halving toward each end of the continuum integral
CONTINUUM_LEVELS = 60
#: numpy's exp returns exactly 0.0 below -745.1332
EXP_UNDERFLOW = -745.2


def _check_b(b: float) -> None:
    # the weights are exp(2b log cos), so 2b must be finite too
    if not 0 < 2.0 * b < math.inf:
        raise ThermoError(f"b must be finite and > 0, with 2b finite; got {b}")


def _check_integers(d, n) -> None:
    """Reject a d or n that is not an integer: the levels are j = d..n."""
    if not (isinstance(d, numbers.Integral) and isinstance(n, numbers.Integral)):
        raise ThermoError(f"d and n must be integers, got d={d}, n={n}")


class _Levels:
    """The energy levels E_j = -2 log cos(pi*j/2n), j = d..n-1, of one (d, n).

    Built once and shared by every b evaluated against them; the j = n
    level has zero weight for b > 0 and is left out of the arrays.
    """

    def __init__(self, d: int, n: int):
        _check_integers(d, n)
        if d < 0 or d > n:
            raise ThermoError(f"need 0 <= d <= n, got d={d}")
        if d == n:
            raise UndefinedPotentialsError("Z vanishes at d = n")
        self.d, self.n, self.count = d, n, n - d + 1
        # log cos(pi*j/2n), built in place: at n ~ 1e7 each array is 80 MB
        self.log_cos = np.arange(d, n, dtype=np.float64)
        self.log_cos *= np.pi
        self.log_cos /= 2 * n
        np.log(np.cos(self.log_cos, out=self.log_cos), out=self.log_cos)
        self.weights = np.empty_like(self.log_cos)

    def log_sum(self, b: float) -> tuple[float, np.ndarray]:
        """log sum_j cos^{2b}(pi*j/2n) in one exp pass.

        Leaves the unnormalised Boltzmann weights exp(2b log cos - max) in
        ``self.weights`` and returns the view of their head, the part that
        exp does not underflow to 0.  log cos falls as j grows, so the
        maximal terms lead the array; the sum keeps them apart and rounds
        as ``scipy.special.logsumexp`` does.
        """
        scale = 2.0 * b
        log_cos, w = self.log_cos, self.weights
        top = scale * float(log_cos[0])
        # the terms from index `live` on are exactly 0 after exp: skip them
        lo, live = 1, log_cos.size
        while lo < live:
            mid = (lo + live) // 2
            if scale * float(log_cos[mid]) - top < EXP_UNDERFLOW:
                live = mid
            else:
                lo = mid + 1
        head = w[:live]
        np.multiply(log_cos[:live], scale, out=head)
        # ties with the maximum only when 2b*log cos underflows (tiny b)
        ties = 1 if live == 1 or head[1] != top else int(np.count_nonzero(head == top))
        np.subtract(head, top, out=head)
        np.exp(head, out=head)
        w[live:] = 0.0
        w[:ties] = 0.0
        rest = w.sum()
        w[:ties] = 1.0
        return float(np.log1p(rest / ties) + np.log(float(ties)) + top), head

    def free_energy(self, b: float) -> tuple[float, float, np.ndarray]:
        """log Z and F = -log Z / b at b, and the weights' head as
        :meth:`log_sum` leaves it; one exp pass and one sum."""
        _check_b(b)
        log_sum, head = self.log_sum(b)
        log_z = log_sum - math.log(self.count)
        F = -log_z / float(b)  # a Python float division overflows without a warning
        if not math.isfinite(F):  # b -> 0 sends F = -log Z / b to infinity
            raise ThermoError(f"b = {b} is too small: F = -log Z / b overflows")
        return log_z, F, head

    def point(self, b: float) -> ThermoPoint:
        log_z, F, head = self.free_energy(b)
        head /= self.weights.sum()
        # energies are -2 log cos: the factor is exact, so no energy array
        U = -2.0 * float(np.dot(self.weights, self.log_cos))
        S = b * (U - F)
        return ThermoPoint(
            b=b,
            d_over_n=self.d / self.n,
            n=self.n,
            Z_ratio=math.exp(log_z),
            F=F,
            U=U,
            S=S,
            D_eff=_distance(F),
        )


def _distance(F: float) -> float:
    """The effective distance D_eff, a fraction of n with
    cos^{2b}(pi*D_eff/2) = Z, from the free energy F = -log Z / b."""
    return (2.0 / math.pi) * math.acos(math.exp(-F / 2.0))


#: the continuum nodes and weights, built by the first _continuum_grid call
_GRID: tuple[np.ndarray, np.ndarray] | None = None


def _continuum_grid() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the continuum mean over t in [0, 1]:
    Gauss-Legendre panels that halve toward both ends.

    The weights sum to 1, so the mean of f(L*t) is their dot product with
    the values.  ``leggauss`` is most of the cost of an evaluation, so the
    grid is built on first use, not at import, and kept read-only.  It is
    read as ``np.polynomial.legendre.leggauss`` here, since numpy imports
    ``numpy.polynomial`` on first attribute access: ``import qamem.thermo``
    does not load it.
    """
    global _GRID
    if _GRID is None:
        low = np.concatenate(([0.0], 0.5 * 0.5 ** np.arange(CONTINUUM_LEVELS, -1, -1)))
        edges = np.concatenate((low, 1.0 - low[-2::-1]))
        mid = (edges[1:] + edges[:-1]) / 2
        radius = (edges[1:] - edges[:-1]) / 2
        nodes, weights = np.polynomial.legendre.leggauss(CONTINUUM_NODES)
        t = (mid[:, None] + radius[:, None] * nodes).ravel()
        w = (radius[:, None] * weights).ravel()
        for column in (t, w):
            column.flags.writeable = False
        _GRID = t, w
    return _GRID


def _continuum_log_avg(b: float, x0: float) -> float:
    """log of the mean over x in [x0, 1] of cos^{2b}(pi*x/2).

    In u = 1 - x the integrand is sin^{2b}(pi*u/2) on [0, L], L = 1 - x0,
    so nodes close to x = 1 keep their full relative precision.  It peaks
    at u = L with width about 1/(pi*b*tan(pi*x0/2)) for large b and has a
    steep u^{2b} edge at u = 0 for small b, so the panels halve toward
    both ends.  The sum subtracts the top exponent, so no b up to
    MAX_TUNE_B underflows to a mean of 0.
    """
    t, w = _continuum_grid()
    log_values = 2.0 * b * np.log(np.sin((np.pi / 2 * (1.0 - x0)) * t))
    top = float(log_values.max())
    return top + math.log(float(np.dot(w, np.exp(log_values - top))))


def partition_avg(b: float, d: int, n: int) -> float:
    """Averaged partition function per pattern."""
    _check_integers(d, n)
    if d < 0 or d > n or b < 0:
        raise ThermoError(f"invalid range: b={b}, d={d}, n={n}")
    if b == 0:
        return 1.0
    _check_b(b)
    if d == n:
        return 0.0
    return float(np.exp(_Levels(d, n).log_sum(b)[0])) / (n - d + 1)


def potentials(b: float, d: int, n: int) -> ThermoPoint:
    """Free energy, internal energy, entropy and effective distance at (b, d)."""
    _check_b(b)
    return _Levels(d, n).point(b)


@dataclass(frozen=True)
class TransitionScan:
    points: tuple[ThermoPoint, ...]
    s_rescaled: tuple[float, ...]
    b_crossover: float | None

    def to_csv(self) -> str:
        # a b given as an int is still printed as a float
        return csv_text(
            ["b", "d_over_n", "n", "Z_ratio", "F", "U", "S", "S_rescaled", "D_eff"],
            (
                [float(pt.b), pt.d_over_n, pt.n, pt.Z_ratio, pt.F, pt.U, pt.S, s, pt.D_eff]
                for pt, s in zip(self.points, self.s_rescaled)
            ),
        )


#: largest n that :func:`scan_transition` and :func:`tune` accept: their
#: arrays hold one entry per distance d..n, bounded like the 10^7 elements
#: of classical.MAX_CAPACITY_ELEMENTS
MAX_N = 10**7


def _check_n(n) -> None:
    """Reject n outside [1, MAX_N], comparing exactly before any float of n
    is formed."""
    if n < 1:
        raise ThermoError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ThermoError(f"n must be <= MAX_N = {MAX_N}, got {n}")


def scan_transition(d_over_n: float, n: int, b_grid) -> TransitionScan:
    """Scan the order/disorder transition over an ascending grid of b values.

    The crossover is located where the effective distance crosses the
    midpoint between its ordered (d/n) and disordered (2/3) limits.
    """
    if not 0.0 <= d_over_n <= 1.0:  # NaN fails the comparison too
        raise ThermoError(f"d_over_n must be finite and in [0, 1], got {d_over_n}")
    _check_n(n)
    b_grid = list(b_grid)
    if not b_grid:
        raise ThermoError("empty b grid")
    if any(b2 <= b1 for b1, b2 in zip(b_grid, b_grid[1:])):
        raise ThermoError("b grid must be strictly ascending")
    d = round(d_over_n * n)
    _check_b(b_grid[0])  # a bad b is reported before a bad d, as in potentials
    levels = _Levels(d, n)
    points = tuple(levels.point(b) for b in b_grid)

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
            if prev.D_eff == cur.D_eff:  # both on the midpoint, reached at prev
                b_cr = prev.b
            else:  # log-linear interpolation between the bracketing grid points
                f = (prev.D_eff - midpoint) / (prev.D_eff - cur.D_eff)
                b_cr = math.exp(
                    math.log(prev.b) + f * (math.log(cur.b) - math.log(prev.b))
                )
            break
    return TransitionScan(points=points, s_rescaled=s_rescaled, b_crossover=b_cr)


MAX_TUNE_B = 10**7


def _first_b(slack, start: int) -> int | None:
    """Smallest integer b in [1, MAX_TUNE_B] with slack(b) <= 0, or None
    when slack(MAX_TUNE_B) > 0; slack must not rise with b.

    The search gallops from ``start`` in steps of 1, 2, 4, ... toward the
    sign change, upward while slack > 0 and downward while slack <= 0, and
    then bisects the last step.  From start = 1 the gallop tests b = 2, 4,
    8, ...; from the answer itself it makes two calls, slack(start) <= 0 <
    slack(start - 1).
    """
    start = min(max(start, 1), MAX_TUNE_B)
    step = 1
    if slack(start) > 0:
        lo = start
        while True:
            if lo == MAX_TUNE_B:
                return None
            hi = min(lo + step, MAX_TUNE_B)
            if slack(hi) <= 0:
                break
            lo, step = hi, step * 2
    else:
        hi = start
        while True:
            if hi == 1:
                return 1
            lo = max(hi - step, 1)
            if slack(lo) > 0:
                break
            hi, step = lo, step * 2
    # slack(lo) > 0 >= slack(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slack(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def tune(epsilon: float, nu: float, n: int) -> TuneResult:
    """Smallest integer b meeting the accuracy target, with both thresholds.

    The target is D(b, eps*n) - eps <= 1 - nu; the repetition threshold is
    the inverse of the average recognition probability cos^{2b}(pi*D/2),
    and amplitude amplification lowers it to its square root.

    D falls monotonically in b, so the answer is the b with slack(b) <= 0
    < slack(b - 1), slack = D - eps - (1 - nu).  The search first finds
    that b for the continuum average, at O(1) per b, and starts the exact
    search over the discrete levels there (at MAX_TUNE_B if no b meets the
    continuum target); every b tested against the levels costs one O(n)
    evaluation of the free energy alone (no U or S).  The answer does not
    depend on the start, and the result is the discrete D_eff at it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ThermoError("epsilon must be in (0, 1)")
    if not 0.0 <= nu <= 1.0:
        raise ThermoError("nu must be in [0, 1]")
    _check_n(n)
    d = round(epsilon * n)
    levels = _Levels(d, n)
    distances: dict[int, float] = {}

    def continuum_slack(b: int) -> float:
        F = -_continuum_log_avg(b, d / n) / b
        return _distance(F) - epsilon - (1.0 - nu)

    def slack(b: int) -> float:
        distances[b] = _distance(levels.free_energy(b)[1])
        return distances[b] - epsilon - (1.0 - nu)

    best = _first_b(slack, _first_b(continuum_slack, 1) or MAX_TUNE_B)
    if best is None:
        raise UnattainableTargetError(
            f"accuracy target unattainable within b <= {MAX_TUNE_B}"
        )

    D = distances[best]
    log_p_rec = 2.0 * best * math.log(math.cos(math.pi * D / 2.0))
    try:
        t_repeat = math.ceil(math.exp(-log_p_rec))
    except OverflowError:
        raise ThermoError(f"T_repeat = 1/p_rec exceeds the float range at b = {best}") from None
    t_amplified = math.ceil(math.exp(-log_p_rec / 2.0))
    return TuneResult(
        b=best,
        T_repeat=t_repeat,
        T_amplified=t_amplified,
        achieved_D=D,
    )
