"""Planted-fault self-test: every output check must fire on a wrong value.

Each case feeds one check in ``oracles`` a value that is right and one that
is wrong in the way a plausible bug would be (the exponent b in place of
2b, D_eff off by 1e-6, a field off by one, ...), and requires the check to
pass the first and fail the second.  ``run.py`` runs this before every
measurement; it needs numpy only.

Run alone:  python3 perfbench/selftest.py
"""
from __future__ import annotations

import math
import sys

import numpy as np

import oracles as orc


def _fires(fn, *args) -> bool:
    ck = orc.Checks()
    fn(ck, "planted", *args)
    return not ck.ok


def cases():
    """(name, check, right args, wrong args)."""
    rng = np.random.default_rng(12345)
    P = rng.integers(0, 2, size=(6, 5)).astype(np.uint8)
    x = P[0] ^ np.array([1, 0, 0, 0, 0], dtype=np.uint8)
    b = 2
    n = P.shape[1]
    p_rec, probs = orc.retrieval_law(P, x, b)
    w_b = np.cos(np.pi * orc.hamming(P, x) / (2 * n)) ** b  # exponent b in place of 2b
    yield "law: exponent b for 2b", orc.check_law, (P, x, b, p_rec, probs), (P, x, b, w_b.sum() / 6, w_b / w_b.sum())
    yield "law: mask ignored", orc.check_law, (P, x, b, *orc.retrieval_law(P, x, b, {1, 2, 3, 4}), {1, 2, 3, 4}), (
        P, x, b, p_rec, probs, {1, 2, 3, 4})

    amps = {int((row.astype(np.int64) << np.arange(n)).sum()): 1 / math.sqrt(6) for row in P}
    wrong = {k: 1 / math.sqrt(7) for k in amps}
    yield "memory: 1/sqrt(p+1)", orc.check_memory_state, (P, amps), (P, wrong)
    leak = dict(amps)
    leak[max(amps) + 1 if max(amps) + 1 not in amps else -1] = 1e-6
    yield "memory: amplitude off the stored set", orc.check_memory_state, (P, amps), (P, leak)
    yield "norm: 1 + 1e-6", orc.check_norm, ([0.6, 0.8],), ([0.6, 0.8 + 1e-6],)
    yield "gate count off by one", orc.check_gate_count, (6, 5, 6 * 13 + 1), (6, 5, 6 * 13 + 2)
    theta = math.asin(math.sqrt(p_rec))
    yield "amplification: (2j+2) theta", orc.check_amplification, (p_rec, 1, math.sin(3 * theta) ** 2), (
        p_rec, 1, math.sin(4 * theta) ** 2)

    runs, T = 20_000, 2
    p_within = 1 - (1 - p_rec) ** T
    rec = round(runs * p_within)
    counts = [round(rec * q) for q in probs]
    shift = math.ceil(6 * math.sqrt(p_within * (1 - p_within) * runs)) + 1
    yield "Monte-Carlo: rate 6 sigma off", orc.check_monte_carlo, (runs, rec, counts, p_rec, T, probs), (
        runs, rec - shift, counts, p_rec, T, probs)
    yield "Monte-Carlo: law with exponent b", orc.check_monte_carlo, (runs, rec, counts, p_rec, T, probs), (
        runs, rec, [round(rec * q) for q in w_b / w_b.sum()], p_rec, T, probs)

    bt, d, nt = 40.0, 300, 20_000
    log_z, D = orc.thermo_point(bt, d, nt)
    z_b = orc.thermo_point(bt / 2, d, nt)[0]  # cos^b in place of cos^{2b}
    yield "thermo: D_eff + 1e-6", orc.check_thermo_point, (bt, d, nt, math.exp(log_z), D), (
        bt, d, nt, math.exp(log_z), D + 1e-6)
    yield "thermo: Z with exponent b", orc.check_thermo_point, (bt, d, nt, math.exp(log_z), D), (
        bt, d, nt, math.exp(z_b), D)
    pts = [(bb, math.exp(orc.thermo_point(bb, d, nt)[0]), orc.thermo_point(bb, d, nt)[1]) for bb in (1.0, 10.0, 100.0)]
    yield "scan: D_eff + 1e-6 at one point", orc.check_scan, (d, nt, pts), (
        d, nt, pts[:1] + [(pts[1][0], pts[1][1], pts[1][2] + 1e-6)] + pts[2:])

    eps, nu, nn = 0.05, 0.9, 20_000
    b_best = next(bb for bb in range(1, 10_000) if orc.thermo_point(bb, round(eps * nn), nn)[1] - eps <= 1 - nu)
    Dt = orc.thermo_point(b_best, round(eps * nn), nn)[1]
    lp = 2 * b_best * math.log(math.cos(math.pi * Dt / 2))
    right = (eps, nu, nn, b_best, math.ceil(math.exp(-lp)), math.ceil(math.exp(-lp / 2)), Dt)
    yield "tune: b + 1 is not the smallest", orc.check_tune, right, (
        eps, nu, nn, b_best + 1, *right[4:6], orc.thermo_point(b_best + 1, round(eps * nn), nn)[1])
    yield "tune: b - 1 misses the target", orc.check_tune, right, (
        eps, nu, nn, b_best - 1, *right[4:6], orc.thermo_point(b_best - 1, round(eps * nn), nn)[1])
    yield "tune: T_repeat + 1", orc.check_tune, right, right[:4] + (right[4] + 1,) + right[5:]
    yield "tune: T_amplified + 1", orc.check_tune, right, right[:5] + (right[5] + 1,) + right[6:]

    alpha, jt = 0.05, 1.0
    m, r = 0.9, 0.0
    for _ in range(2000):  # plain iteration of the docstring equations
        h = m
        e2 = math.exp(-2 * jt * jt * alpha * r)
        m, r = math.sin(2 * jt * h) * e2, (1 - math.cos(4 * jt * h) * e2**4) / (2 * (1 - 2 * jt * math.cos(2 * jt * h) * e2) ** 2)
    yield "mean field: m off by 1e-5", orc.check_meanfield_solution, (alpha, jt, m, r), (alpha, jt, m + 1e-5, r)
    yield "mean field: r off by 1e-5", orc.check_meanfield_solution, (alpha, jt, m, r), (alpha, jt, m, r + 1e-5)

    jt = 0.8
    root = 0.5
    for _ in range(200):  # Newton on sin(2 Jt m) - m
        root -= (math.sin(2 * jt * root) - root) / (2 * jt * math.cos(2 * jt * root) - 1)
    yield "single: root + 1e-6", orc.check_single_pattern, (jt, [-root, root]), (jt, [-root, root + 1e-6])
    yield "single: nonzero root lost above 1/2", orc.check_single_pattern, (jt, [-root, root]), (jt, [0.0])
    yield "single: +-1 lost at pi/4", orc.check_single_pattern, (math.pi / 4, [-1.0, 1.0]), (math.pi / 4, [-1.0, 0.0])

    xi = rng.choice([-1, 1], size=(4, 30))
    w = (xi.T @ xi).astype(float) / 30
    np.fill_diagonal(w, 0.0)
    w_bad = w.copy()
    w_bad[0, 1] += 1 / 30  # one integer coupling off by one
    yield "Hopfield: coupling off by one", orc.check_hopfield_weights, (xi, w), (xi, w_bad)
    s = xi[0].copy()
    changed = True
    while changed:  # zero-temperature dynamics under integer fields
        changed = False
        for i in range(30):
            h = int(orc.hopfield_fields(xi, s)[i])
            if h * s[i] < 0:
                s[i] = -s[i]
                changed = True
    fields = orc.hopfield_fields(xi, s)
    s_bad = s.copy()
    i = int(np.argmax(np.abs(fields)))
    s_bad[i] = -s_bad[i]
    yield "Hopfield: spin against its field", orc.check_hopfield_stable, (xi, s), (xi, s_bad)
    yield "capacity: overlap 0.98 at alpha 0.1", orc.check_capacity, ([(0.05, 1.0), (0.1, 1.0), (0.25, 0.4)],), (
        [(0.05, 1.0), (0.1, 0.98), (0.25, 0.4)],)
    yield "capacity: overlap 0.7 at alpha 0.25", orc.check_capacity, ([(0.1, 1.0), (0.25, 0.4)],), (
        [(0.1, 1.0), (0.25, 0.7)],)


def run() -> list[str]:
    """Names of the cases where a check missed its planted fault or failed a right value."""
    bad = []
    for name, check, right, wrong in cases():
        if _fires(check, *right):
            bad.append(f"{name}: right value rejected")
        if not _fires(check, *wrong):
            bad.append(f"{name}: planted fault not detected")
    return bad


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print("FAIL", line)
    print(f"{sum(1 for _ in cases())} planted faults, {len(problems)} problems")
    sys.exit(1 if problems else 0)
