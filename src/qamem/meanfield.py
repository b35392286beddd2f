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

import math
from dataclasses import dataclass

import numpy as np

from .emit import csv_text

DENOMINATOR_FLOOR = 1e-6
CONVERGENCE_TOL = 1e-10
MAX_ITERATIONS = 10_000
#: starting damping of every fixed-point iteration
DAMPING = 0.5
ORDER_THRESHOLD = 1e-3
#: solve_single brackets roots on this many equal steps of [-1, 1]
ROOT_GRID = 2000
#: solve_single bisects each bracket until it is at most this wide
ROOT_XTOL = 4e-16

#: probe initializations (m, r) used for basin-of-attraction classification;
#: the (0.2, 0.01) probe reaches the weak-retrieval branch at large coupling
#: (overlap ~ 0.165 near Jt = 9) that the full-overlap probes overshoot
PROBES = ((1.0, 0.01), (0.5, 0.1), (0.2, 0.01), (0.0, 0.1), (0.0, 0.0))
#: each probe's solution label, converged and not
_LABELS = tuple(f"m={m0:g},r={r0:g}" for m0, r0 in PROBES)
_UNCONVERGED = tuple(label + " (not converged)" for label in _LABELS)
#: _iterate finishes on Python floats once at most this many pairs are
#: active.  A lockstep iteration costs about 40 us however few pairs it
#: holds, a float pair-iteration 1 to 2 us, so the floats cost less below
#: 40 / 2 = 20 pairs even at their slowest; scan times were flat for
#: values from 8 to 128.
SCALAR_PAIRS = 20
#: iterate_finite and residual refuse a start whose exponent -2(Jt)^2 alpha r
#: is above this, where exp(-8(Jt)^2 alpha r) = exp(708) still fits a float
MAX_EXPONENT = 177.0
#: most cells of one phase scan; a cell (its parameters, its five probes'
#: solutions and labels, its CSV row) holds about 2 KB, so a scan at the
#: limit peaks near 200 MB
MAX_PHASE_CELLS = 10**5


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
        _check_coupling(self.Jt, self.g_over_J, self.M_ext)
        if not math.isfinite(2.0 * self.Jt * self.Jt * self.alpha):
            raise MeanFieldError(
                f"2 Jt^2 alpha must be finite, got Jt = {self.Jt}, alpha = {self.alpha}"
            )


def _check_coupling(Jt, g_over_J, M_ext) -> None:
    """The checks that MfParams and solve_single share."""
    if not (Jt > 0 and math.isfinite(Jt)):
        raise MeanFieldError(f"Jt must be finite and > 0, got {Jt}")
    if not math.isfinite(g_over_J):
        raise MeanFieldError(f"g_over_J must be finite, got {g_over_J}")
    if not -1.0 <= M_ext <= 1.0:
        raise MeanFieldError(f"M_ext must be in [-1, 1], got {M_ext}")
    # the largest argument the equations take, 4Jt(m + (g/J)M) at |m| = 1
    if not math.isfinite(4.0 * Jt * (1.0 + abs(g_over_J * M_ext))):
        raise MeanFieldError(
            f"4 Jt (1 + |(g/J) M_ext|) must be finite, got Jt = {Jt}, "
            f"g_over_J = {g_over_J}, M_ext = {M_ext}"
        )


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


def _coefficients(cells, copies: int):
    """Per-pair factors 2Jt, 4Jt, -2(Jt)^2 alpha and (g/J)M, each cell repeated."""
    jt = np.repeat([c.Jt for c in cells], copies)
    alpha = np.repeat([c.alpha for c in cells], copies)
    offset = np.repeat([c.g_over_J * c.M_ext for c in cells], copies)
    return 2.0 * jt, 4.0 * jt, -2.0 * jt * jt * alpha, offset


def _rhs(two_jt, four_jt, coef, offset, m, r):
    """Elementwise right-hand sides (m, r) and r-equation denominator.

    Every element is bit-identical to ``_finish``'s scalar formula, which
    takes math.exp, math.pow(., 4.0), math.sin and math.cos and rounds
    left to right.  numpy's +, -, *, / and its sin and cos round as Python
    floats and math do.  exp goes through complex128 with a zero imaginary
    part, which numpy hands to libm's cexp; cexp(x + 0i) is libm's exp(x)
    for every x the iteration meets, which the start checks keep at most
    ``MAX_EXPONENT`` (glibc's cexp rescales only above about 709).  numpy's
    own float64 exp differs from libm's in the last bit on about 5% of
    arguments.  np.float_power calls libm's pow, where np.power differs on
    about 5%.  ``TestLibmAgreement`` in the tests checks these agreements.
    Pairs with a singular denominator get meaningless r values (0/0 when
    it is exactly 0); the callers silence numpy's division warnings and
    drop those pairs.
    """
    h = m + offset
    damp = np.exp((coef * r).astype(np.complex128)).real
    arg = two_jt * h
    new_m = np.sin(arg) * damp
    den = 1.0 - two_jt * np.cos(arg) * damp
    num = 1.0 - np.cos(four_jt * h) * np.float_power(damp, 4.0)
    new_r = 0.5 * num / (den * den)
    return new_m, np.where(0.0 > new_r, 0.0, new_r), den


def _finish(two_jt, four_jt, coef, offset, m, r, eta, prev_m, prev_r, steps):
    """Run one pair of ``_iterate`` to its end on Python floats.

    Takes the same operations in the same order as ``_rhs`` and one pass of
    ``_iterate``'s loop, so every float is the same, for at most ``steps``
    iterations.  Returns the last iterate, the convergence flag and whether
    the denominator went singular; a singular pair returns its iterate from
    before that step, as ``_iterate`` keeps it.
    """
    exp, pow, sin, cos = math.exp, math.pow, math.sin, math.cos
    for _ in range(steps):
        h = m + offset
        damp = exp(coef * r)
        arg = two_jt * h
        den = 1.0 - two_jt * cos(arg) * damp
        if abs(den) < DENOMINATOR_FLOOR:  # before dividing: Python raises on 0
            return m, r, False, True
        step_m = eta * (sin(arg) * damp - m)
        new_r = 0.5 * (1.0 - cos(four_jt * h) * pow(damp, 4.0)) / (den * den)
        step_r = eta * ((0.0 if 0.0 > new_r else new_r) - r)
        if step_m * prev_m + step_r * prev_r < 0 and eta > 1e-3:
            eta, step_m, step_r = eta * 0.5, step_m * 0.5, step_r * 0.5
        prev_m, prev_r = step_m, step_r
        abs_m, abs_r = abs(step_m), abs(step_r)
        m, r = m + step_m, r + step_r
        if (abs_r if abs_r > abs_m else abs_m) < CONVERGENCE_TOL:
            return m, r, True, False
    return m, r, False, False


@np.errstate(divide="ignore", invalid="ignore")  # see _rhs
def _iterate(cells, inits):
    """Damped fixed-point iteration of every (cell, init) pair in lockstep.

    Each pair keeps its own damping, halved whenever consecutive steps
    reverse direction (oscillation), which keeps the iteration stable near
    the singular region of the r equation.  A pair stops when its step is
    below ``CONVERGENCE_TOL`` or its denominator is singular; a singular
    pair keeps its iterate from before the step.  The inits of a cell are
    probes tried in order: a singular probe also stops the cell's later
    probes.  Returns the last iterates m and r and the convergence flags,
    each of shape (cells, inits), and per cell the index of its first
    singular probe (``len(inits)`` if none); the entries of the probes at
    or after that index are not defined.

    The first time at most ``SCALAR_PAIRS`` pairs are active, ``_finish``
    runs each to its end, probes in order, in the same floats.  Pairs share
    nothing but the stop rule: a singular probe sets its cell's stop index,
    which the later probes of the cell then skip, so every defined output
    is the lockstep loop's.  A pair whose math call raises (an infinite
    argument, where numpy gives inf or NaN) stays in the lockstep loop.
    """
    n_inits = len(inits)
    size = len(cells) * n_inits
    m = np.tile(np.array([m0 for m0, _ in inits], dtype=np.float64), len(cells))
    r = np.tile(np.array([r0 for _, r0 in inits], dtype=np.float64), len(cells))
    out_m, out_r = m.copy(), r.copy()
    converged = np.zeros(size, dtype=bool)
    stop = np.full(len(cells), n_inits)
    pair = np.arange(size)
    # per active pair: 2Jt, 4Jt, -2(Jt)^2 alpha, (g/J)M, m, r, eta, last steps
    etas, prev_m, prev_r = np.full(size, DAMPING), np.zeros(size), np.zeros(size)
    columns = (*_coefficients(cells, n_inits), m, r, etas, prev_m, prev_r)
    steps, floats_tried = 0, False
    while pair.size and steps < MAX_ITERATIONS:
        if pair.size <= SCALAR_PAIRS and not floats_tried:
            floats_tried = True
            keep = np.zeros(pair.size, dtype=bool)
            for k, (p, *args) in enumerate(zip(pair.tolist(), *(a.tolist() for a in columns))):
                cell, probe = divmod(p, n_inits)
                if probe >= stop[cell]:
                    continue
                try:
                    end = _finish(*args, MAX_ITERATIONS - steps)
                except (ValueError, OverflowError):
                    keep[k] = True
                    continue
                out_m[p], out_r[p], converged[p], singular = end
                if singular:
                    stop[cell] = probe
        else:
            steps += 1
            two_jt, four_jt, coef, offset, m, r, etas, prev_m, prev_r = columns
            fm, fr, den = _rhs(two_jt, four_jt, coef, offset, m, r)
            step_m = etas * (fm - m)
            step_r = etas * (fr - r)
            halve = (step_m * prev_m + step_r * prev_r < 0) & (etas > 1e-3)
            if np.count_nonzero(halve):
                etas = np.where(halve, etas * 0.5, etas)
                step_m = np.where(halve, step_m * 0.5, step_m)
                step_r = np.where(halve, step_r * 0.5, step_r)
            abs_m, abs_r = np.abs(step_m), np.abs(step_r)
            done = np.where(abs_r > abs_m, abs_r, abs_m) < CONVERGENCE_TOL
            next_m, next_r = m + step_m, r + step_r
            finished = done
            singular = np.abs(den) < DENOMINATOR_FLOOR
            if np.count_nonzero(singular):
                cell, probe = np.divmod(pair[singular], n_inits)
                np.minimum.at(stop, cell, probe)
                stopped = pair % n_inits >= stop[pair // n_inits]
                done = done & ~stopped
                finished = done | stopped
                next_m = np.where(singular, m, next_m)
                next_r = np.where(singular, r, next_r)
            columns = (two_jt, four_jt, coef, offset, next_m, next_r, etas, step_m, step_r)
            if not np.count_nonzero(finished):
                continue
            out_m[pair[finished]], out_r[pair[finished]] = next_m[finished], next_r[finished]
            converged[pair[done]] = True
            keep = ~finished
        pair = pair[keep]
        columns = tuple(a[keep] for a in columns)
    out_m[pair], out_r[pair] = columns[4], columns[5]
    shape = (len(cells), n_inits)
    return out_m.reshape(shape), out_r.reshape(shape), converged.reshape(shape), stop


def _check_start(params: MfParams, start: OrderParameters) -> None:
    """Refuse a start (m, r) that the iteration cannot evaluate in floats.

    No later step has a larger exponent -2(Jt)^2 alpha r than the start:
    the r equation's right-hand side is never negative, so a negative r
    rises toward it and a nonnegative r stays nonnegative.  A start m at
    which the first step's argument 4Jt(m + (g/J)M) could overflow is
    refused too.
    """
    m, r = start.m, start.r
    if not (math.isfinite(m) and math.isfinite(r)):
        raise MeanFieldError(f"m and r must be finite, got m = {m}, r = {r}")
    if not math.isfinite(4.0 * params.Jt * (abs(m) + abs(params.g_over_J * params.M_ext))):
        raise MeanFieldError(
            f"4 Jt (|m| + |(g/J) M_ext|) must be finite, got m = {m}, Jt = {params.Jt}"
        )
    exponent = -2.0 * params.Jt * params.Jt * params.alpha * r
    if exponent > MAX_EXPONENT:
        raise MeanFieldError(
            f"-2 Jt^2 alpha r must be at most {MAX_EXPONENT}, got {exponent} at r = {r}"
        )


def iterate_finite(
    params: MfParams, init: OrderParameters
) -> tuple[OrderParameters, bool]:
    """Damped fixed-point iteration of the coupled (m, r) system.

    Returns the last iterate and a convergence flag; the damping starts at
    ``DAMPING`` and is halved whenever consecutive steps reverse direction
    (oscillation), which keeps the iteration stable near the singular
    region of the r equation.
    """
    _check_start(params, init)
    m, r, ok, stop = _iterate([params], [(init.m, init.r)])
    if stop[0] == 0:
        raise SingularDenominatorError(
            f"r-equation denominator below {DENOMINATOR_FLOOR} "
            f"at m={m[0, 0]}, r={r[0, 0]}"
        )
    return OrderParameters(float(m[0, 0]), float(r[0, 0])), bool(ok[0, 0])


def residual(params: MfParams, sol: OrderParameters) -> float:
    """Max-norm residual of the two fixed-point equations at a solution."""
    _check_start(params, sol)
    with np.errstate(divide="ignore", invalid="ignore"):
        fm, fr, den = _rhs(
            *_coefficients([params], 1), np.array([sol.m], float), np.array([sol.r], float)
        )
    if abs(den[0]) < DENOMINATOR_FLOOR:
        raise SingularDenominatorError(
            f"r-equation denominator {den[0]} at m={sol.m}, r={sol.r}"
        )
    return max(abs(float(fm[0]) - sol.m), abs(float(fr[0]) - sol.r))


def solve_single(Jt: float, g_over_J: float = 0.0, M_ext: float = 0.0) -> list[float]:
    """Stable overlaps of the single-pattern equation m = sin(2Jt(m + (g/J)M)).

    A root is stable when |2Jt cos(2Jt(m + (g/J)M))| < 1; the roots are
    those of :func:`_roots`.
    """
    _check_coupling(Jt, g_over_J, M_ext)
    offset = g_over_J * M_ext
    stable: list[float] = []
    for m in _roots(Jt, offset):
        if any(abs(m - s) < 1e-9 for s in stable):
            continue
        slope = 2.0 * Jt * math.cos(2.0 * Jt * (m + offset))
        if abs(slope) < 1.0:
            stable.append(m)
    return stable


def _roots(Jt: float, offset: float) -> list[float]:
    """The roots of sin(2Jt(m + offset)) - m on [-1, 1], ascending.

    They are located by sign-change bracketing on ``ROOT_GRID`` steps, and
    the brackets are bisected on Python floats in rounds, each halving
    every bracket, until all are at most ``ROOT_XTOL`` wide.  math.sin
    rounds as np.sin does (``TestLibmAgreement`` in the tests checks it), so
    the roots are those of a bisection of all brackets at once in arrays.
    """
    xs = np.linspace(-1.0, 1.0, ROOT_GRID + 1)
    vals = np.sin(2.0 * Jt * (xs + offset)) - xs
    roots = xs[:-1][vals[:-1] == 0.0].tolist()
    bracket = vals[:-1] * vals[1:] < 0
    lo, hi = xs[:-1][bracket].tolist(), xs[1:][bracket].tolist()
    side = np.sign(vals[:-1][bracket]).tolist()  # f's sign at lo: +1 or -1
    sin, two_jt = math.sin, 2.0 * Jt
    while any(b - a > ROOT_XTOL for a, b in zip(lo, hi)):
        for k, (a, b, s) in enumerate(zip(lo, hi, side)):
            mid = (a + b) / 2
            sign = (sin(two_jt * (mid + offset)) - mid) * s
            if sign >= 0:
                lo[k] = mid
            if sign <= 0:
                hi[k] = mid
    roots += [(a + b) / 2 for a, b in zip(lo, hi)]
    if vals[-1] == 0.0:
        roots.append(1.0)
    return sorted(roots)


def _classify(params: MfParams, m, r, converged, stop: int) -> PhaseCell:
    """Phase of one cell from the iterates of its probes (see classify_phase)."""
    solutions: list[tuple[OrderParameters, str]] = []
    any_converged = False
    retrieval = False
    glassy = False
    for (m0, _), label, unconverged, sol_m, sol_r, ok in zip(
        PROBES[:stop], _LABELS, _UNCONVERGED, m, r, converged
    ):
        sol = OrderParameters(sol_m, sol_r)
        if not ok:
            solutions.append((sol, unconverged))
            continue
        solutions.append((sol, label))
        any_converged = True
        if abs(sol.m) > ORDER_THRESHOLD:
            retrieval = True
        elif m0 == 0.0 and sol.r > ORDER_THRESHOLD:
            glassy = True
    if stop < len(PROBES) or not any_converged:
        phase = "unclassified"
    elif retrieval:
        phase = "F+SG" if glassy else "F"
    elif glassy:
        phase = "SG"
    else:
        phase = "P"
    return PhaseCell(params, tuple(solutions), phase)


def _classify_cells(cells) -> tuple[PhaseCell, ...]:
    m, r, converged, stop = _iterate(cells, PROBES)
    return tuple(
        _classify(params, *rows, int(k))
        for params, *rows, k in zip(cells, m.tolist(), r.tolist(), converged.tolist(), stop)
    )


def classify_phase(params: MfParams) -> PhaseCell:
    """Classify a parameter point by running the iteration from the probes.

    A cell supports retrieval when some probe converges to m above the
    order threshold; it carries spin-glass order when the zero-overlap
    probes converge to r above the threshold without developing an overlap
    (m = 0 is invariant under the iteration, so those probes can only
    reveal the glassy branch).  Retrieval without glassy order is F, with
    it F+SG; glassy order alone is SG, neither is P.  A probe that meets a
    singular denominator makes the cell unclassified, keeping the probes
    before it.
    """
    return _classify_cells([params])[0]


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
        missing = OrderParameters(math.nan, math.nan)
        rows = []
        for cell in self.cells:
            ret = cell.retrieval_solution() or missing
            zero = cell.solution_from("m=0,r=0.1") or missing
            rows.append(
                [cell.params.alpha, cell.params.Jt, ret.m, ret.r, zero.m, zero.r, cell.phase]
            )
        return csv_text(
            [
                "alpha",
                "Jt",
                "m_retrieval",
                "r_retrieval",
                "m_from_zero",
                "r_from_zero",
                "phase",
            ],
            rows,
        )


def check_cell_count(alphas: int, jts: int) -> None:
    """Refuse a grid of ``alphas`` x ``jts`` cells above
    :data:`MAX_PHASE_CELLS`."""
    if alphas * jts > MAX_PHASE_CELLS:
        raise MeanFieldError(f"a {alphas} x {jts} grid has more than {MAX_PHASE_CELLS} cells")


def scan_phase_diagram(alpha_grid, Jt_grid) -> PhaseDiagram:
    """Classify every (alpha, Jt) cell of an ascending rectangular grid of
    at most :data:`MAX_PHASE_CELLS` cells.

    All (cell, probe) pairs iterate together; each cell gets what
    classify_phase would give it.
    """
    alpha_grid = tuple(float(a) for a in alpha_grid)
    jt_grid = tuple(float(j) for j in Jt_grid)
    check_cell_count(len(alpha_grid), len(jt_grid))
    for grid, name in ((alpha_grid, "alpha"), (jt_grid, "Jt")):
        if not grid:
            raise MeanFieldError(f"empty {name} grid")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise MeanFieldError(f"{name} grid must be strictly ascending")
    cells = [MfParams(alpha=a, Jt=j) for a in alpha_grid for j in jt_grid]
    return PhaseDiagram(alpha_grid, jt_grid, _classify_cells(cells))
