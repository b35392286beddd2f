"""Mean-field order parameters of the open quantum Hopfield network.

Single stored pattern: the overlap obeys m = sin(2Jt(m + (g/J)M)), with a
bifurcation at Jt = 1/2 and perfect recall (m = 1) at Jt = pi/4.

Finite loading alpha = p/n couples the overlap m with a spin-glass
parameter r:

    m = sin(2Jt(m + (g/J)M)) * exp(-2(Jt)^2 alpha r)
    r = (1 - cos(4Jt(m + (g/J)M)) * exp(-8(Jt)^2 alpha r))
        / (2 * [1 - 2Jt cos(2Jt(m + (g/J)M)) * exp(-2(Jt)^2 alpha r)]^2)

The coupled system is solved by damped fixed-point iteration; phases are
classified by which fixed points are reachable from a fixed set of probe
initializations.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

DENOMINATOR_FLOOR = 1e-6
CONVERGENCE_TOL = 1e-10
MAX_ITERATIONS = 10_000
ORDER_THRESHOLD = 1e-3

#: probe initializations (m, r) used for basin-of-attraction classification;
#: the (0.2, 0.01) probe reaches the weak-retrieval branch at large coupling
#: (overlap ~ 0.165 near Jt = 9) that the full-overlap probes overshoot
PROBES = ((1.0, 0.01), (0.5, 0.1), (0.2, 0.01), (0.0, 0.1), (0.0, 0.0))


class MeanFieldError(ValueError):
    pass


class SingularDenominatorError(MeanFieldError):
    """The r-equation denominator vanished; the fixed point is undefined."""


@dataclass(frozen=True)
class MfParams:
    alpha: float
    Jt: float
    g_over_J: float = 0.0
    M_ext: float = 0.0

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise MeanFieldError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.Jt > 0 and math.isfinite(self.Jt)):
            raise MeanFieldError(f"Jt must be finite and > 0, got {self.Jt}")
        if not math.isfinite(self.g_over_J):
            raise MeanFieldError(f"g_over_J must be finite, got {self.g_over_J}")
        if not -1.0 <= self.M_ext <= 1.0:
            raise MeanFieldError(f"M_ext must be in [-1, 1], got {self.M_ext}")


@dataclass(frozen=True)
class OrderParameters:
    m: float
    r: float


@dataclass(frozen=True)
class PhaseCell:
    params: MfParams
    solutions: tuple[tuple[OrderParameters, str], ...]
    phase: str  # one of "P", "F", "SG", "F+SG", "unclassified"

    def solution_from(self, label: str) -> OrderParameters | None:
        for sol, lab in self.solutions:
            if lab == label:
                return sol
        return None

    def retrieval_solution(self) -> OrderParameters | None:
        """Converged solution of largest overlap among nonzero-overlap probes."""
        best = None
        for sol, label in self.solutions:
            if label.startswith("m=0,") or label.endswith("(not converged)"):
                continue
            if best is None or abs(sol.m) > abs(best.m):
                best = sol
        return best


def _rhs(params: MfParams, m: float, r: float) -> tuple[float, float]:
    jt = params.Jt
    h = m + params.g_over_J * params.M_ext
    damp = math.exp(-2.0 * jt * jt * params.alpha * r)
    new_m = math.sin(2.0 * jt * h) * damp
    den = 1.0 - 2.0 * jt * math.cos(2.0 * jt * h) * damp
    if abs(den) < DENOMINATOR_FLOOR:
        raise SingularDenominatorError(
            f"r-equation denominator {den} at m={m}, r={r}"
        )
    num = 1.0 - math.cos(4.0 * jt * h) * damp ** 4
    new_r = 0.5 * num / (den * den)
    return new_m, max(new_r, 0.0)


def iterate_finite(
    params: MfParams,
    init: OrderParameters,
    eta: float = 0.5,
    tol: float = CONVERGENCE_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[OrderParameters, bool]:
    """Damped fixed-point iteration of the coupled (m, r) system.

    Returns the last iterate and a convergence flag; the damping is halved
    whenever consecutive steps reverse direction (oscillation), which keeps
    the iteration stable near the singular region of the r equation.
    """
    if not 0.0 < eta <= 1.0:
        raise MeanFieldError(f"damping must be in (0, 1], got {eta}")
    m, r = init.m, init.r
    prev_step = (0.0, 0.0)
    for _ in range(max_iterations):
        fm, fr = _rhs(params, m, r)
        step = (eta * (fm - m), eta * (fr - r))
        if step[0] * prev_step[0] + step[1] * prev_step[1] < 0 and eta > 1e-3:
            eta *= 0.5
            step = (step[0] * 0.5, step[1] * 0.5)
        m, r = m + step[0], r + step[1]
        prev_step = step
        if max(abs(step[0]), abs(step[1])) < tol:
            return OrderParameters(m, r), True
    return OrderParameters(m, r), False


def residual(params: MfParams, sol: OrderParameters) -> float:
    """Max-norm residual of the two fixed-point equations at a solution."""
    fm, fr = _rhs(params, sol.m, sol.r)
    return max(abs(fm - sol.m), abs(fr - sol.r))


def solve_single(
    Jt: float, g_over_J: float = 0.0, M_ext: float = 0.0, grid: int = 2000
) -> list[float]:
    """Stable overlaps of the single-pattern equation m = sin(2Jt(m + (g/J)M)).

    Roots are located by sign-change bracketing on [-1, 1]; a root is stable
    when |2Jt cos(2Jt(m + (g/J)M))| < 1.
    """
    if Jt <= 0:
        raise MeanFieldError(f"Jt must be > 0, got {Jt}")

    def f(m: float) -> float:
        return math.sin(2.0 * Jt * (m + g_over_J * M_ext)) - m

    xs = np.linspace(-1.0, 1.0, grid + 1)
    vals = [f(x) for x in xs]
    roots: list[float] = []
    for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
        if v0 == 0.0:
            roots.append(float(x0))
        elif v0 * v1 < 0:
            roots.append(float(brentq(f, x0, x1, xtol=1e-14)))
    if vals[-1] == 0.0:
        roots.append(1.0)

    stable: list[float] = []
    for m in roots:
        if any(abs(m - s) < 1e-9 for s in stable):
            continue
        slope = 2.0 * Jt * math.cos(2.0 * Jt * (m + g_over_J * M_ext))
        if abs(slope) < 1.0:
            stable.append(m)
    return sorted(stable)


def classify_phase(params: MfParams, eta: float = 0.5) -> PhaseCell:
    """Classify a parameter point by running the iteration from the probes.

    A cell supports retrieval when some probe converges to m above the
    order threshold; it carries spin-glass order when the zero-overlap
    probes converge to r above the threshold without developing an overlap
    (m = 0 is invariant under the iteration, so those probes can only
    reveal the glassy branch).  Retrieval without glassy order is F, with
    it F+SG; glassy order alone is SG, neither is P.
    """
    solutions: list[tuple[OrderParameters, str]] = []
    any_converged = False
    retrieval = False
    glassy = False
    for m0, r0 in PROBES:
        label = f"m={m0:g},r={r0:g}"
        try:
            sol, ok = iterate_finite(params, OrderParameters(m0, r0), eta=eta)
        except SingularDenominatorError:
            return PhaseCell(params, tuple(solutions), "unclassified")
        if not ok:
            solutions.append((sol, label + " (not converged)"))
            continue
        solutions.append((sol, label))
        any_converged = True
        if abs(sol.m) > ORDER_THRESHOLD:
            retrieval = True
        elif m0 == 0.0 and sol.r > ORDER_THRESHOLD:
            glassy = True
    if not any_converged:
        phase = "unclassified"
    elif retrieval:
        phase = "F+SG" if glassy else "F"
    elif glassy:
        phase = "SG"
    else:
        phase = "P"
    return PhaseCell(params, tuple(solutions), phase)


@dataclass(frozen=True)
class PhaseDiagram:
    alpha_grid: tuple[float, ...]
    Jt_grid: tuple[float, ...]
    cells: tuple[PhaseCell, ...]  # row-major: alpha outer, Jt inner

    def cell(self, i_alpha: int, i_jt: int) -> PhaseCell:
        return self.cells[i_alpha * len(self.Jt_grid) + i_jt]

    def max_retrieval_alpha(self, Jt: float | None = None) -> float | None:
        """Largest alpha with an F or F+SG cell (optionally at a fixed Jt)."""
        best = None
        for cell in self.cells:
            if cell.phase not in ("F", "F+SG"):
                continue
            if Jt is not None and abs(cell.params.Jt - Jt) > 1e-12:
                continue
            if best is None or cell.params.alpha > best:
                best = cell.params.alpha
        return best

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "alpha",
                "Jt",
                "m_retrieval",
                "r_retrieval",
                "m_from_zero",
                "r_from_zero",
                "phase",
            ]
        )
        for cell in self.cells:
            ret = cell.retrieval_solution()
            zero = cell.solution_from("m=0,r=0.1")
            writer.writerow(
                [
                    format(cell.params.alpha, ".17g"),
                    format(cell.params.Jt, ".17g"),
                    format(ret.m if ret else math.nan, ".17g"),
                    format(ret.r if ret else math.nan, ".17g"),
                    format(zero.m if zero else math.nan, ".17g"),
                    format(zero.r if zero else math.nan, ".17g"),
                    cell.phase,
                ]
            )
        return buf.getvalue()


def scan_phase_diagram(alpha_grid, Jt_grid, eta: float = 0.5) -> PhaseDiagram:
    """Classify every (alpha, Jt) cell of an ascending rectangular grid."""
    alpha_grid = tuple(float(a) for a in alpha_grid)
    jt_grid = tuple(float(j) for j in Jt_grid)
    for grid, name in ((alpha_grid, "alpha"), (jt_grid, "Jt")):
        if not grid:
            raise MeanFieldError(f"empty {name} grid")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise MeanFieldError(f"{name} grid must be strictly ascending")
    cells = tuple(
        classify_phase(MfParams(alpha=a, Jt=j), eta=eta)
        for a in alpha_grid
        for j in jt_grid
    )
    return PhaseDiagram(alpha_grid, jt_grid, cells)
