"""Reference computations and output checks, written apart from qamem.

Every formula here is taken from the docstrings of the qamem modules and
computed with numpy alone; nothing in this file imports qamem.  Each check
appends a message to a :class:`Checks` record when the program's value
disagrees with the reference, so one run can report every disagreement.
``selftest.py`` feeds each check a planted wrong value and requires that it
fires.
"""
from __future__ import annotations

import math

import numpy as np

#: absolute tolerance on probabilities, amplitudes and effective distances
TOL = 1e-9
#: residual allowed in the mean-field equations: the iteration stops on a
#: step below 1e-10 and damps by at most about 1e-3, so |f(x) - x| < 1e-7
MF_RESIDUAL_TOL = 1e-7
#: Monte-Carlo estimates must fall within this many standard deviations
MC_SIGMAS = 5.0


class Checks:
    """Collects failed checks; ``ok`` is true while none has failed."""

    def __init__(self):
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def true(self, cond: bool, what: str) -> None:
        if not cond:
            self.errors.append(what)

    def close(self, got: float, want: float, tol: float, what: str) -> None:
        if not abs(got - want) <= tol:
            self.errors.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


# ------------------------------------------------------------- patterns


def bits(strings) -> np.ndarray:
    """(p, n) uint8 matrix of bit strings; column j is character j."""
    return np.array([[c == "1" for c in s] for s in strings], dtype=np.uint8)


def hamming(P: np.ndarray, x: np.ndarray, mask=None) -> np.ndarray:
    """Hamming distance of every row of P to x, over the mask's columns."""
    diff = P != x
    if mask is not None:
        diff = diff[:, sorted(mask)]
    return diff.sum(axis=1)


# ------------------------------------------------------------- retrieval


def retrieval_law(P: np.ndarray, x: np.ndarray, b: int, mask=None):
    """p_rec = Z/p and P(k) = cos^{2b}(pi d_k / 2n) / Z (retrieval docstring)."""
    n = P.shape[1]
    w = np.cos(np.pi * hamming(P, x, mask) / (2 * n)) ** (2 * b)
    Z = float(w.sum())
    return Z / P.shape[0], (w / Z if Z > 0 else np.zeros_like(w))


def check_law(ck, what, P, x, b, got_p_rec, got_probs, mask=None):
    """got_probs: probabilities aligned with the rows of P."""
    p_rec, probs = retrieval_law(P, x, b, mask)
    ck.close(got_p_rec, p_rec, TOL, f"{what} p_rec")
    err = float(np.max(np.abs(np.asarray(got_probs, dtype=float) - probs)))
    ck.close(err, 0.0, TOL, f"{what} max |P(k) - closed form|")


def check_memory_state(ck, what, P, amps):
    """amps: {memory value: amplitude} of the whole state, other registers 0.

    The stored patterns carry 1/sqrt(p) and every other basis state 0.
    """
    p, n = P.shape
    stored = set((P.astype(np.int64) << np.arange(n)).sum(axis=1).tolist())
    want = 1.0 / math.sqrt(p)
    worst = 0.0
    for value in stored:
        worst = max(worst, abs(amps.get(value, 0.0) - want))
    for value, a in amps.items():
        if value not in stored:
            worst = max(worst, abs(a))
    ck.close(worst, 0.0, TOL, f"{what} max |amplitude - 1/sqrt(p) on stored, 0 elsewhere|")


def check_norm(ck, what, amps):
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    ck.close(norm, 1.0, TOL, f"{what} state norm")


def check_gate_count(ck, what, p, n, got):
    ck.true(got == p * (2 * n + 3) + 1, f"{what} gate count {got} != p(2n+3)+1 = {p * (2 * n + 3) + 1}")


def check_amplification(ck, what, p_rec, j, got_success):
    """Success after j Grover iterations is sin^2((2j+1) theta), sin^2 theta = p_rec."""
    theta = math.asin(math.sqrt(p_rec))
    ck.close(got_success, math.sin((2 * j + 1) * theta) ** 2, TOL, f"{what} success")


def check_monte_carlo(ck, what, runs, recognized, counts, p_success, T, probs):
    """Recognition rate against 1-(1-p)^T, and output frequencies against the
    conditional law, each within MC_SIGMAS binomial standard deviations.

    counts: output counts aligned with probs.  A single count of slack is
    allowed on each frequency so that an outcome of tiny probability seen
    once does not fail the check on its own.
    """
    p_within = 1.0 - (1.0 - p_success) ** T
    sigma = math.sqrt(p_within * (1.0 - p_within) / runs)
    ck.close(recognized / runs, p_within, MC_SIGMAS * sigma + 1.0 / runs, f"{what} recognition rate")
    if recognized:
        for k, q in enumerate(probs):
            sig = math.sqrt(q * (1.0 - q) / recognized)
            ck.close(counts[k] / recognized, q, MC_SIGMAS * sig + 1.0 / recognized, f"{what} frequency of pattern {k}")


# ------------------------------------------------------------- thermo


def thermo_point(b: float, d: int, n: int) -> tuple[float, float]:
    """(log Z_ratio, D_eff) at (b, d, n) from the thermo docstring.

    Z_ratio = mean_{j=d..n} cos^{2b}(pi j / 2n), summed in log space with a
    log-sum-exp of its own; D_eff solves cos^{2b}(pi D_eff / 2) = Z_ratio.
    """
    j = np.arange(d, n, dtype=np.float64)  # the j = n term is 0 for b > 0
    logw = 2.0 * b * np.log(np.sin(np.pi * (n - j) / (2 * n)))
    top = float(logw.max())
    log_z = top + math.log(float(np.exp(logw - top).sum())) - math.log(n - d + 1)
    return log_z, (2.0 / math.pi) * math.acos(math.exp(log_z / (2.0 * b)))


def check_thermo_point(ck, what, b, d, n, got_z, got_d):
    log_z, D = thermo_point(b, d, n)
    ck.close(math.log(got_z) if got_z > 0 else -math.inf, log_z, TOL, f"{what} log Z_ratio")
    ck.close(got_d, D, TOL, f"{what} D_eff")


def check_tune(ck, what, epsilon, nu, n, got_b, got_t_repeat, got_t_amp, got_d):
    """b is the smallest with D(b) - eps <= 1 - nu; T_repeat = ceil(1/P) and
    T_amplified = ceil(P^{-1/2}) with P = cos^{2b}(pi D / 2)."""
    d = round(epsilon * n)
    _, D = thermo_point(got_b, d, n)
    ck.close(got_d, D, TOL, f"{what} achieved D")
    ck.true(D - epsilon <= 1.0 - nu, f"{what} b={got_b} misses the target: D={D}")
    if got_b > 1:
        _, D_prev = thermo_point(got_b - 1, d, n)
        ck.true(D_prev - epsilon > 1.0 - nu, f"{what} b={got_b} is not the smallest: D(b-1)={D_prev}")
    log_p = 2.0 * got_b * math.log(math.cos(math.pi * D / 2.0))
    for got, x, name in ((got_t_repeat, math.exp(-log_p), "T_repeat"), (got_t_amp, math.exp(-log_p / 2.0), "T_amplified")):
        # a value within 1e-6 of an integer may round either way
        allowed = {math.ceil(x)} | ({round(x), round(x) + 1} if abs(x - round(x)) < 1e-6 else set())
        ck.true(got in allowed, f"{what} {name}={got}, want ceil({x})")


def check_scan(ck, what, d, n, points):
    """points: (b, Z_ratio, D_eff) in ascending b; D_eff is non-increasing."""
    for b, z, D in points:
        check_thermo_point(ck, f"{what} b={b:g}", b, d, n, z, D)
    Ds = [D for _, _, D in points]
    ck.true(all(y <= x + TOL for x, y in zip(Ds, Ds[1:])), f"{what} D_eff increases in b: {Ds}")


# ------------------------------------------------------------- mean field


def meanfield_residual(alpha, Jt, m, r, g_over_J=0.0, M_ext=0.0) -> float:
    """Max-norm residual of the finite-loading equations (meanfield docstring)."""
    h = m + g_over_J * M_ext
    e2 = math.exp(-2.0 * Jt * Jt * alpha * r)
    e8 = math.exp(-8.0 * Jt * Jt * alpha * r)
    m_rhs = math.sin(2.0 * Jt * h) * e2
    r_rhs = (1.0 - math.cos(4.0 * Jt * h) * e8) / (2.0 * (1.0 - 2.0 * Jt * math.cos(2.0 * Jt * h) * e2) ** 2)
    return max(abs(m_rhs - m), abs(r_rhs - r))


def check_meanfield_solution(ck, what, alpha, Jt, m, r):
    ck.close(meanfield_residual(alpha, Jt, m, r), 0.0, MF_RESIDUAL_TOL, f"{what} residual")


def check_single_pattern(ck, what, Jt, roots):
    """Roots of m = sin(2Jt m): a nonzero stable root iff Jt > 1/2; m = +-1 at pi/4."""
    for m in roots:
        ck.close(math.sin(2.0 * Jt * m) - m, 0.0, 1e-10, f"{what} root {m!r}")
    nonzero = [m for m in roots if abs(m) > 1e-6]
    ck.true(bool(nonzero) == (Jt > 0.5), f"{what} Jt={Jt}: stable roots {roots}")
    if abs(Jt - math.pi / 4) < 1e-15:
        ck.true(len(roots) == 2 and abs(roots[0] + 1) < TOL and abs(roots[1] - 1) < TOL, f"{what} roots {roots} != [-1, 1]")


# ------------------------------------------------------------- Hopfield


def hopfield_fields(xi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact integer fields n*h = (xi^T xi - diag) s for +-1 patterns xi (p, n)."""
    xi = xi.astype(np.int64)
    c = xi.T @ xi
    np.fill_diagonal(c, 0)
    return c @ s.astype(np.int64)


def check_hopfield_weights(ck, what, xi, weights):
    n = xi.shape[1]
    s = np.where(np.arange(n) % 3 == 0, -1, 1)
    err = float(np.max(np.abs(n * (weights @ s) - hopfield_fields(xi, s))))
    ck.close(err, 0.0, TOL, f"{what} max |n w s - integer field|")


def check_hopfield_stable(ck, what, xi, s):
    """A converged state has s_i h_i >= 0 for every i under integer fields."""
    worst = int(np.min(s.astype(np.int64) * hopfield_fields(xi, s)))
    ck.true(worst >= 0, f"{what} min s_i h_i = {worst} < 0")


def check_capacity(ck, what, rows):
    """rows: (alpha, mean overlap) of a capacity table at 5% input corruption."""
    for alpha, overlap in rows:
        if alpha <= 0.1 + 1e-12:
            ck.true(overlap >= 0.99, f"{what} alpha={alpha}: mean overlap {overlap} < 0.99")
        if abs(alpha - 0.25) < 1e-12:
            ck.true(overlap < 0.7, f"{what} alpha=0.25: mean overlap {overlap} >= 0.7")
