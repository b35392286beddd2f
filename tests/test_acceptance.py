"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (with capture suspended so the
verdicts are visible in any run mode) and then asserts, so a failed criterion is
both visible in the summary line and red in the pytest report.
"""
import itertools
import math
import time
from collections import Counter

import numpy as np

from qamem import cli, classical, meanfield, thermo
from qamem.memory import (
    build_memory_operator,
    memory_gate_count,
    memory_register_amplitudes,
    store_sequential,
)
from qamem.patterns import Pattern, PatternSet
from qamem.retrieval import (
    RetrievalConfig,
    amplitude_amplify,
    analytic_distribution,
    optimal_iterations,
    recognition_lower_bound,
    retrieve,
    simulate_distribution,
)


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)


def P(s):
    return Pattern.from_string(s)


def S(*strings):
    return PatternSet(tuple(P(s) for s in strings))


def all_sets(n, max_p):
    pats = [Pattern(bits) for bits in itertools.product((0, 1), repeat=n)]
    for p in range(1, max_p + 1):
        for combo in itertools.combinations(pats, p):
            yield PatternSet(combo)


def random_set(rng, max_n, max_p):
    n = int(rng.integers(2, max_n + 1))
    p = int(rng.integers(1, min(max_p, 2**n) + 1))
    keys = rng.choice(2**n, size=p, replace=False)
    return PatternSet(
        tuple(Pattern(tuple((int(k) >> j) & 1 for j in range(n))) for k in keys)
    )


def random_input(rng, n):
    return Pattern(tuple(int(b) for b in rng.integers(0, 2, size=n)))


def storage_ok(pattern_set) -> bool:
    expected = 1.0 / math.sqrt(pattern_set.p)
    stored = set(pattern_set)
    for route in ("operator", "sequential"):
        if route == "operator":
            build = build_memory_operator(pattern_set)
            state = build.final_state
            amps = build.memory_amplitudes()
        else:
            state = store_sequential(pattern_set)
            amps = memory_register_amplitudes(state)
        utility_zero = state.section_values("utility") == 0
        utility_mass = sum(abs(a) ** 2 for a in state.amp_array[utility_zero].tolist())
        if abs(utility_mass - 1.0) > 1e-10:
            return False
        for pat in stored:
            if abs(amps.get(pat, 0.0) - expected) > 1e-10:
                return False
        for pat, amp in amps.items():
            if pat not in stored and abs(amp) > 1e-12:
                return False
    return True


def test_criterion_01_storage_exactness(capsys):
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        for ps in all_sets(n, 4):
            ok = ok and storage_ok(ps)
    rng = np.random.default_rng(1001)
    for _ in range(200):
        ok = ok and storage_ok(random_set(rng, 6, 8))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    verdict(
        capsys,
        1,
        ok,
        "both storage routes exact (exhaustive n<=4,p<=4 + 200 random), "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_gate_count(capsys):
    rng = np.random.default_rng(1002)
    ok = True
    tested = []
    for _ in range(30):
        ps = random_set(rng, 6, 8)
        build = build_memory_operator(ps)
        want = ps.p * (2 * ps.n + 3) + 1
        tested.append((ps.p, ps.n))
        ok = ok and build.gate_count == want == memory_gate_count(ps.p, ps.n)
    verdict(capsys, 2, ok, f"gate count p(2n+3)+1 exact on {len(tested)} (p, n) pairs")
    assert ok


def test_criterion_03_circuit_formula_equivalence(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    worst = 0.0
    cases = 0
    for n in (2, 3, 4, 5):
        for p in range(1, min(6, 2**n) + 1):
            for b in (1, 2, 3):
                keys = rng.choice(2**n, size=p, replace=False)
                ps = PatternSet(
                    tuple(
                        Pattern(tuple((int(k) >> j) & 1 for j in range(n)))
                        for k in keys
                    )
                )
                inp = random_input(rng, n)
                sim = simulate_distribution(ps, inp, b)
                ana = analytic_distribution(ps, inp, b)
                worst = max(worst, abs(sim.p_rec - ana.p_rec))
                if ana.p_rec > 1e-12:
                    for pat in ps:
                        worst = max(
                            worst,
                            abs(sim.probs.get(pat, 0.0) - ana.probs[pat]),
                        )
                cases += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 120.0
    verdict(
        capsys,
        3,
        ok,
        f"circuit vs closed form on {cases} cases, max |delta| = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_full_set_checkpoint(capsys):
    # With all 2^n patterns stored, d ~ Binomial(n, 1/2) and
    # cos^2(pi d / 2n) = (1 - s) / 2 with s = sin(pi (d - n/2) / n), odd under
    # d -> n - d.  Hence 2^b P_rec = 1 + sum_{even k >= 2} C(b, k) E[s^k],
    # which lies in [1, 1 + (2^(b-1) - 1) pi^2 / (4n)]: exactly 1/2 for b = 1,
    # above 2^-b at every finite n for b >= 2, and -> 2^-b as n -> infinity.
    def full_set(n):
        return PatternSet(
            tuple(Pattern(bits) for bits in itertools.product((0, 1), repeat=n))
        )

    # n = 3, by hand: cos^2(pi d / 6) = 1, 3/4, 1/4, 0 for d = 0..3, with
    # multiplicities 1, 3, 3, 1, so P_rec = (1 + 3 (3/4)^b + 3 (1/4)^b) / 8
    exact = {1: 1 / 2, 2: 23 / 64, 3: 37 / 128}
    ps3 = full_set(3)
    inputs = [Pattern(bits) for bits in itertools.product((0, 1), repeat=3)]
    analytic = {
        b: [analytic_distribution(ps3, x, b).p_rec for x in inputs] for b in (1, 2, 3)
    }
    circuit = {
        b: [simulate_distribution(ps3, x, b).p_rec for x in inputs] for b in (1, 2, 3)
    }
    independent_ok = all(max(v) - min(v) < 1e-12 for v in analytic.values())
    exact_ok = all(abs(v - exact[b]) < 1e-12 for b in exact for v in analytic[b])
    circuit_ok = all(abs(v - exact[b]) < 1e-12 for b in exact for v in circuit[b])
    # two-sided bound for n = 2..10, and the excess over 2^-b falling in n
    bound_ok = True
    excess = {b: [] for b in (1, 2, 3, 4)}
    for n in range(2, 11):
        ps = full_set(n)
        for b in excess:
            p_rec = analytic_distribution(ps, Pattern((0,) * n), b).p_rec
            upper = 1 + (2 ** (b - 1) - 1) * math.pi**2 / (4 * n)
            bound_ok = bound_ok and 1 - 1e-12 <= 2**b * p_rec <= upper + 1e-12
            excess[b].append(2**b * p_rec - 1)
    limit_ok = all(
        all(e1 > e2 for e1, e2 in zip(excess[b], excess[b][1:])) for b in (2, 3, 4)
    )
    ok = independent_ok and exact_ok and circuit_ok and bound_ok and limit_ok
    detail = ", ".join(
        f"b={b}: {analytic[b][0]:.8f} vs {exact[b]:.8f} exact, "
        f"circuit {circuit[b][0]:.8f}"
        for b in (1, 2, 3)
    )
    verdict(
        capsys,
        4,
        ok,
        f"full-set recognition probability at n=3 ({detail}); input-independent: "
        f"{'ok' if independent_ok else 'FAIL'}; 2^-b <= P_rec <= "
        f"2^-b (1 + (2^(b-1) - 1) pi^2/4n) for n=2..10, b=1..4: "
        f"{'ok' if bound_ok else 'FAIL'}; 2^b P_rec - 1 falls in n for b>=2 "
        f"(b=4: {excess[4][0]:.3f} at n=2 -> {excess[4][-1]:.3f} at n=10): "
        f"{'ok' if limit_ok else 'FAIL'}",
    )
    assert ok


def test_criterion_05_lower_bound(capsys):
    rng = np.random.default_rng(1005)
    gaps = []
    ok = True
    for _ in range(1000):
        ps = random_set(rng, 6, 8)
        b = int(rng.integers(1, 4))
        p_rec = analytic_distribution(ps, random_input(rng, ps.n), b).p_rec
        bound, _ = recognition_lower_bound(ps.p, ps.n, b)
        ok = ok and bound <= p_rec + 1e-12
        gaps.append(p_rec - bound)
    verdict(
        capsys,
        5,
        ok,
        "lower bound holds on 1000 random instances "
        f"(gap min {min(gaps):.3e}, mean {np.mean(gaps):.3e})",
    )
    assert ok


def test_criterion_06_no_spurious_memories(capsys):
    rng = np.random.default_rng(1006)
    ok = True
    # exact mode on random instances
    for _ in range(30):
        ps = random_set(rng, 5, 6)
        sim = simulate_distribution(ps, random_input(rng, ps.n), 2)
        stored = set(ps)
        for pat, prob in sim.probs.items():
            if pat not in stored:
                ok = ok and prob < 1e-12
    # sampled recognized runs: draw from the exact circuit-level conditional
    ps = S("00000", "00111", "11001", "11110")
    sim = simulate_distribution(ps, P("00101"), 2)
    pats = list(sim.probs)
    weights = np.array([sim.probs[p] for p in pats])
    weights /= weights.sum()
    draws = rng.choice(len(pats), size=100_000, p=weights)
    stored = set(ps)
    spurious = sum(1 for i in draws if pats[i] not in stored)
    ok = ok and spurious == 0
    verdict(
        capsys,
        6,
        ok,
        "no non-stored outputs (exact < 1e-12; "
        f"{spurious} spurious in 100000 sampled recognized runs)",
    )
    assert ok


def test_criterion_07_monte_carlo_consistency(capsys):
    fixtures = [
        (S("000", "111"), P("100"), 1, 1),
        (S("0000", "0011", "1110"), P("0010"), 2, 3),
        (S("01", "10"), P("00"), 1, 2),
    ]
    runs = 10_000
    ok = True
    details = []
    for idx, (ps, inp, b, T) in enumerate(fixtures):
        rng = np.random.default_rng(2000 + idx)
        config = RetrievalConfig(b=b, T=T)
        ana = analytic_distribution(ps, inp, b)
        p_within = 1.0 - (1.0 - ana.p_rec) ** T
        recognized = 0
        outputs = Counter()
        for _ in range(runs):
            report = retrieve(ps, inp, config, rng)
            if report.recognized:
                recognized += 1
                outputs[report.output] += 1
        freq = recognized / runs
        sigma = math.sqrt(p_within * (1 - p_within) / runs)
        ok = ok and abs(freq - p_within) <= 4 * sigma
        details.append(f"rec {freq:.4f} vs {p_within:.4f}")
        for pat in ps:
            q = ana.probs[pat]
            got = outputs[pat] / recognized
            sig = math.sqrt(max(q * (1 - q), 1e-12) / recognized)
            ok = ok and abs(got - q) <= 4 * sig
    verdict(capsys, 7, ok, f"{runs} seeded runs x 3 sets within 4 sigma ({'; '.join(details)})")
    assert ok


def test_criterion_08_amplitude_amplification(capsys):
    ok = True
    worst = 0.0
    rng = np.random.default_rng(1008)
    for _ in range(8):
        ps = random_set(rng, 4, 4)
        inp = random_input(rng, ps.n)
        b = int(rng.integers(1, 3))
        p_rec = analytic_distribution(ps, inp, b).p_rec
        if p_rec < 1e-9:
            continue
        theta = math.asin(math.sqrt(min(p_rec, 1.0)))
        for j in (0, 1, 2):
            run = amplitude_amplify(ps, inp, b, j)
            want = math.sin((2 * j + 1) * theta) ** 2
            worst = max(worst, abs(run.success_probability - want))
    ok = ok and worst < 1e-9

    def attempts_to_09(p_rec):
        # iterations until 0.9 success, capped at the optimal rotation
        # (at p_rec = 0.5 the rotation tops out at 0.5 success)
        theta = math.asin(math.sqrt(p_rec))
        cap = optimal_iterations(p_rec)
        for j in range(cap + 1):
            if math.sin((2 * j + 1) * theta) ** 2 >= 0.9:
                return j + 1
        return cap + 1

    scaled = {p: attempts_to_09(p) * math.sqrt(p) for p in (0.5, 0.1, 0.02)}
    ratio = max(scaled.values()) / min(scaled.values())
    ok = ok and ratio < 2.0
    verdict(
        capsys,
        8,
        ok,
        f"rotation law max |delta| = {worst:.2e}; O(1/sqrt(P)) scaling spread "
        f"x{ratio:.2f} over P in {{0.5, 0.1, 0.02}}",
    )
    assert ok


def test_criterion_09_mean_field_single_pattern(capsys):
    # bifurcation: largest Jt with only the zero root, scanned at 1e-3 step
    lo, hi = 0.4, 0.6
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if len(meanfield.solve_single(mid)) == 1:
            lo = mid
        else:
            hi = mid
    bifurcation = 0.5 * (lo + hi)
    roots = meanfield.solve_single(math.pi / 4)
    recall = max(roots)
    ok = abs(bifurcation - 0.5) <= 0.005 and abs(recall - 1.0) <= 1e-6
    verdict(
        capsys,
        9,
        ok,
        f"bifurcation at Jt = {bifurcation:.4f} (want 0.500 +/- 0.005); "
        f"m(pi/4) = {recall:.8f}",
    )
    assert ok


def test_criterion_10_mean_field_finite_loading(capsys):
    start = time.monotonic()
    # overlap above 0.9 through alpha = 0.1 at Jt = 1
    overlap_ok = True
    m_at_limit = None
    for alpha in (0.02, 0.04, 0.06, 0.08, 0.1):
        sol, converged = meanfield.iterate_finite(
            meanfield.MfParams(alpha=alpha, Jt=1.0),
            meanfield.OrderParameters(1.0, 0.01),
        )
        overlap_ok = overlap_ok and converged and sol.m > 0.9
        m_at_limit = sol.m
    # retrieval boundary at Jt = 1
    lo, hi = 0.1, 0.3
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        cell = meanfield.classify_phase(meanfield.MfParams(alpha=mid, Jt=1.0))
        if cell.phase in ("F", "F+SG"):
            lo = mid
        else:
            hi = mid
    alpha_star = 0.5 * (lo + hi)
    boundary_ok = abs(alpha_star - 0.175) <= 0.02
    # full 60x60 grid: no retrieval at alpha >= 1.05
    diagram = meanfield.scan_phase_diagram(
        np.linspace(0.02, 1.2, 60), np.linspace(0.2, 12, 60)
    )
    high_load = [
        cell
        for cell in diagram.cells
        if cell.params.alpha >= 1.05 and cell.phase in ("F", "F+SG")
    ]
    capacity_ok = not high_load
    elapsed = time.monotonic() - start
    ok = overlap_ok and boundary_ok and capacity_ok and elapsed < 300.0
    verdict(
        capsys,
        10,
        ok,
        f"m(alpha=0.1, Jt=1) = {m_at_limit:.5f} (want > 0.9: "
        f"{'ok' if overlap_ok else 'FAIL'}); alpha* = {alpha_star:.3f} "
        f"(want 0.175 +/- 0.02); retrieval cells at alpha >= 1.05: "
        f"{len(high_load)}; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_thermo_checkpoints(capsys):
    hot = thermo.potentials(0.001, 0, 10**7)
    hot_ok = abs(hot.D_eff - 2.0 / 3.0) <= 0.01
    cold = thermo.potentials(1e5, 100, 1000)
    cold_ok = abs(cold.D_eff - 0.1) <= 1e-3
    point = thermo.potentials(1e4, 80_000, 8_000_000)
    d_ok = abs(point.D_eff - 0.018) <= 0.002
    p_implied = point.Z_ratio
    p_ok = abs(p_implied - 3.4e-4) <= 0.2 * 3.4e-4
    scan = thermo.scan_transition(0.01, 10**4, list(np.logspace(-2, 5, 29)))
    b_cr = scan.b_crossover
    b_ok = b_cr is not None and 0.03 <= b_cr <= 0.3
    tuned = thermo.tune(0.01, 0.9911, 8_000_000)
    t_rep_ok = abs(tuned.T_repeat - 3000) <= 0.3 * 3000
    t_amp_ok = abs(tuned.T_amplified - 54) <= 0.3 * 54
    ok = hot_ok and cold_ok and d_ok and p_ok and b_ok and t_rep_ok and t_amp_ok
    verdict(
        capsys,
        11,
        ok,
        f"D(b->0) = {hot.D_eff:.4f}; D(large b) = {cold.D_eff:.4f}; "
        f"D(1e4) = {point.D_eff:.6f} ({'ok' if d_ok else 'FAIL'}); "
        f"implied P = {p_implied:.3e} vs 3.4e-4 ({'ok' if p_ok else 'FAIL'}); "
        f"b_cr = {b_cr:.3f} vs [0.03, 0.3] ({'ok' if b_ok else 'FAIL'}); "
        f"T = {tuned.T_repeat}/{tuned.T_amplified} vs 3000/54 "
        f"({'ok' if t_rep_ok and t_amp_ok else 'FAIL'})",
    )
    assert ok


def test_criterion_12_classical_baseline(capsys):
    table = classical.capacity_experiment_seeded(
        500, (0.05, 0.2, 0.25), trials=20, corruption=0.05, seed=1012
    )
    low, mid, high = table.rows
    ok = low.mean_overlap > mid.mean_overlap and high.mean_overlap < 0.5
    verdict(
        capsys,
        12,
        ok,
        f"n=500 overlaps: {low.mean_overlap:.3f} (a=0.05) > "
        f"{mid.mean_overlap:.3f} (a=0.2); {high.mean_overlap:.3f} (a=0.25) < 0.5",
    )
    assert ok


def test_criterion_13_cli_determinism(capsys, tmp_path):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("0000\n0111\n1001\n")
    commands = {
        "retrieve": [
            "retrieve", "--patterns", str(patterns), "--input", "0011",
            "--corrupt", "1", "--b", "2", "--T", "5", "--seed", "99",
        ],
        "classical": [
            "classical", "--n", "60", "--alpha-grid", "0.05,0.2",
            "--trials", "5", "--seed", "99",
        ],
        "phase": [
            "phase", "--alpha-grid", "0.05,0.5", "--jt-grid", "0.5,1,9",
        ],
    }
    multithread = {
        "classical": ["--workers", "4"],
        "phase": ["--workers", "4"],
    }
    ok = True
    for name, argv in commands.items():
        outputs = []
        variants = [argv, argv]
        if name in multithread:
            variants.append(argv + multithread[name])
        for i, variant in enumerate(variants):
            out = tmp_path / f"{name}-{i}.out"
            code = cli.main(variant + ["--out", str(out)])
            ok = ok and code == 0
            outputs.append(out.read_bytes())
        ok = ok and all(o == outputs[0] for o in outputs)
    verdict(
        capsys,
        13,
        ok,
        "seeded CLI commands byte-identical across runs and worker counts",
    )
    assert ok
