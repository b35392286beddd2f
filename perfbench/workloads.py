"""The benchmark's three workloads: seeded inputs, one round of operations, checks.

A workload is built from ``--seed`` alone, then runs the same fixed list of
operations once per round, as a list of named steps that ``run.py`` times
one by one.  Every call into qamem goes through a module
attribute (``retrieval.retrieve``, not a name bound at import) so that the
traced run sees it.  ``check`` compares the first round's outputs with
``oracles``; every later round must reproduce the first round's summary
exactly, since each round repeats the same seeded operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from qamem import classical, cli, memory, meanfield, retrieval, thermo
from qamem.patterns import Pattern, PatternSet

import oracles as orc


def random_strings(rng, p: int, n: int) -> list[str]:
    """p distinct uniformly random n-bit strings."""
    keys = rng.choice(2**n, size=p, replace=False)
    return ["".join("1" if (int(k) >> j) & 1 else "0" for j in range(n)) for k in keys]


def flip(rng, s: str, k: int) -> str:
    """s with k distinct random positions flipped."""
    chars = list(s)
    for j in rng.choice(len(s), size=k, replace=False):
        chars[j] = "1" if chars[j] == "0" else "0"
    return "".join(chars)


def pattern_set(strings) -> PatternSet:
    return PatternSet(tuple(Pattern.from_string(s) for s in strings))


def aligned(probs: dict, strings) -> list[float]:
    """Probabilities of a {Pattern: prob} map in the order of strings."""
    by_str = {str(pat): q for pat, q in probs.items()}
    return [by_str.get(s, 0.0) for s in strings]


# ===================================================================== circuit


class Circuit:
    """A few large gate-level jobs: the simulator's per-amplitude cost dominates."""

    # (n, p) of the memory built by the operator route
    BIG = (12, 128)
    # (n, p) stored by both routes and compared
    PAIR = (9, 64)
    # (n, p, b, flipped input bits) for simulate_distribution
    SIM = (10, 128, 3, 2)
    # (n, p, b, iterations, count) for amplitude_amplify
    AMP = (6, 16, 4, 1, 2)
    # The cost of amplification depends on the stored set and its order
    # (490k to 770k amplitude updates per job over random sets), so its
    # memories are fixed, drawn from this seed, and --seed relabels their bit
    # positions: a relabelling leaves every support size, and so the work,
    # unchanged, while the inputs still differ from seed to seed.
    AMP_BASE_SEED = 2015
    LAYERS = ("simulator", "memory", "retrieval")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.big = random_strings(rng, self.BIG[1], self.BIG[0])
        self.pair = random_strings(rng, self.PAIR[1], self.PAIR[0])
        n, p, self.sim_b, k = self.SIM
        self.sim = random_strings(rng, p, n)
        self.sim_input = flip(rng, self.sim[0], k)
        n, p, self.amp_b, self.amp_j, count = self.AMP
        base = np.random.default_rng(self.AMP_BASE_SEED)
        self.amp = []
        for _ in range(count):
            strings = random_strings(base, p, n)
            x = flip(base, strings[0], 1)
            perm = rng.permutation(n)
            self.amp.append((["".join(s[j] for j in perm) for s in strings], "".join(x[j] for j in perm)))
        self.big_set = pattern_set(self.big)
        self.pair_set = pattern_set(self.pair)
        self.sim_set = pattern_set(self.sim)
        self.amp_sets = [(pattern_set(s), Pattern.from_string(x)) for s, x in self.amp]
        self.ops_per_round = 4 + len(self.amp)

    def steps(self):
        sim_input = Pattern.from_string(self.sim_input)
        return [
            ("big", lambda: memory.build_memory_operator(self.big_set)),
            ("pair_op", lambda: memory.build_memory_operator(self.pair_set)),
            ("pair_seq", lambda: memory.store_sequential(self.pair_set)),
            ("sim", lambda: retrieval.simulate_distribution(self.sim_set, sim_input, self.sim_b)),
        ] + [
            (f"amp{i}", lambda ps=ps, x=x: retrieval.amplitude_amplify(ps, x, self.amp_b, self.amp_j))
            for i, (ps, x) in enumerate(self.amp_sets)
        ]

    def _amp(self, out):
        return [out[f"amp{i}"] for i in range(len(self.amp_sets))]

    def summary(self, out):
        return (
            [(k, repr(a)) for k, a in sorted(out["big"].final_state.amps.items())],
            [(k, repr(a)) for k, a in sorted(out["pair_seq"].amps.items())],
            repr(out["sim"].p_rec),
            [repr(r.success_probability) for r in self._amp(out)],
        )

    def check(self, ck: orc.Checks, out) -> None:
        n, p = self.BIG
        big = out["big"]
        orc.check_gate_count(ck, "operator route", p, n, big.gate_count)
        orc.check_gate_count(ck, "operator circuit", p, n, len(big.circuit.gates))
        # layout memory (n) | utility (2): a stored pattern with utility 00 has key = value
        orc.check_memory_state(ck, "operator route", orc.bits(self.big), big.final_state.amps)
        orc.check_norm(ck, "operator route", big.final_state.amps.values())

        n = self.PAIR[0]
        P = orc.bits(self.pair)
        op_amps = out["pair_op"].final_state.amps
        orc.check_memory_state(ck, "operator route (pair)", P, op_amps)
        # layout pattern (n) | utility (2) | memory (n); the pattern register
        # holds the last stored pattern, utility is 00 on every stored branch
        seq = out["pair_seq"].amps
        low = (1 << (n + 2)) - 1
        last = int((P[-1].astype(np.int64) << np.arange(n)).sum())
        seq_amps = {}
        for key, a in seq.items():
            value = key >> (n + 2) if key & low == last else -1 - key
            seq_amps[value] = seq_amps.get(value, 0.0) + a
        orc.check_memory_state(ck, "sequential route", P, seq_amps)
        orc.check_norm(ck, "sequential route", seq.values())
        worst = max(abs(seq_amps.get(v, 0.0) - op_amps.get(v, 0.0)) for v in set(seq_amps) | set(op_amps))
        ck.close(worst, 0.0, orc.TOL, "sequential vs operator route amplitudes")

        sim = out["sim"]
        P = orc.bits(self.sim)
        x = orc.bits([self.sim_input])[0]
        orc.check_law(ck, "simulate_distribution", P, x, self.sim_b, sim.p_rec, aligned(sim.probs, self.sim))
        ck.true(set(map(str, sim.probs)) <= set(self.sim), "simulate_distribution outputs a non-stored pattern")

        for (strings, x), run in zip(self.amp, self._amp(out)):
            p_rec, _ = orc.retrieval_law(orc.bits(strings), orc.bits([x])[0], self.amp_b)
            orc.check_amplification(ck, "amplitude_amplify", p_rec, self.amp_j, run.success_probability)
            orc.check_norm(ck, "amplified state", run.state.amps.values())


# ===================================================================== queries


class Queries:
    """A seeded retrieval session: per-call overhead, parsing and JSON emission."""

    # (n, p) of the small memories
    SMALL = ((5, 4), (6, 5), (4, 3), (7, 6))
    # Monte-Carlo pairs: (memory, flipped input bits, b, T, runs)
    MC = ((0, 1, 2, 2, 200), (1, 2, 1, 3, 200), (2, 1, 3, 1, 200))
    # direct amplify-mode queries: (memory, b, T)
    AMPLIFY = ((0, 2, 2), (1, 1, 2), (3, 2, 1))
    # (n, p) of the large pattern file
    BIG = (32, 2000)
    LAYERS = ("cli", "patterns", "retrieval", "simulator", "memory")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.small = [random_strings(rng, p, n) for n, p in self.SMALL]
        self.files = []
        for i, strings in enumerate(self.small):
            path = workdir / f"small{i}.txt"
            path.write_text("".join(s + "\n" for s in strings), encoding="utf-8")
            self.files.append(str(path))
        self.small_sets = [pattern_set(s) for s in self.small]

        self.mc = []
        for mem, k, b, T, runs in self.MC:
            x = flip(rng, self.small[mem][int(rng.integers(len(self.small[mem])))], k)
            self.mc.append((mem, x, b, T, runs, int(rng.integers(2**63))))
        self.amplify = []
        for mem, b, T in self.AMPLIFY:
            x = flip(rng, self.small[mem][0], 1)
            self.amplify.append((mem, x, b, T, int(rng.integers(2**63))))

        n, p = self.BIG
        self.big = random_strings(rng, p, n)
        big_path = workdir / "big.txt"
        big_path.write_text("".join(s + "\n" for s in self.big), encoding="utf-8")

        # CLI requests: (argv, memory index or None)
        self.requests = []
        for i in range(10):
            mem = i % len(self.small)
            x = self.small[mem][int(rng.integers(len(self.small[mem])))]
            argv = ["retrieve", "--patterns", self.files[mem], "--input", x, "--corrupt", "1",
                    "--b", str(1 + i % 3), "--T", str(1 + i % 4), "--seed", str(int(rng.integers(2**63)))]
            self.requests.append((argv, mem))
        for i in range(2):
            mem = 1 + i
            n = len(self.small[mem][0])
            known = sorted(int(j) for j in rng.choice(n, size=n - 1, replace=False))
            argv = ["retrieve", "--patterns", self.files[mem], "--input", self.small[mem][0],
                    "--mask", ",".join(map(str, known)), "--b", "2", "--T", "3",
                    "--seed", str(int(rng.integers(2**63)))]
            self.requests.append((argv, mem))
        for i in range(2):
            mem = 2 * i
            argv = ["retrieve", "--patterns", self.files[mem], "--input", self.small[mem][1], "--corrupt", "1",
                    "--mode", "amplify", "--b", "2", "--T", "2", "--seed", str(int(rng.integers(2**63)))]
            self.requests.append((argv, mem))
        # the first request again: seeded output must be byte-identical
        self.requests.append(self.requests[0])
        self.big_input = flip(rng, self.big[int(rng.integers(p))], 3)
        self.requests.append((["distribution", "--patterns", str(big_path), "--input", self.big_input, "--b", "3"], None))
        self.requests.append((["store", "--dry-run", "--patterns", str(big_path)], None))
        self.ops_per_round = len(self.requests) + sum(m[4] for m in self.mc) + len(self.amplify)

    @staticmethod
    def _request(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _mc(self, mem, x, b, T, runs, seed):
        rng = np.random.default_rng(seed)
        config = retrieval.RetrievalConfig(b=b, T=T)
        ps, inp = self.small_sets[mem], Pattern.from_string(x)
        return [retrieval.retrieve(ps, inp, config, rng) for _ in range(runs)]

    def _amplified(self):
        out = []
        for mem, x, b, T, s in self.amplify:
            config = retrieval.RetrievalConfig(b=b, T=T, mode="amplitude_amplify")
            out.append(retrieval.retrieve(self.small_sets[mem], Pattern.from_string(x), config, np.random.default_rng(s)))
        return out

    def steps(self):
        small, (distribution, _), (store, _) = self.requests[:-2], *self.requests[-2:]
        return [
            ("cli_small", lambda: [self._request(argv) for argv, _ in small]),
            ("cli_distribution", lambda: self._request(distribution)),
            ("cli_store", lambda: self._request(store)),
        ] + [(f"mc{i}", lambda m=m: self._mc(*m)) for i, m in enumerate(self.mc)] + [("amp", self._amplified)]

    def _cli(self, out):
        return out["cli_small"] + [out["cli_distribution"], out["cli_store"]]

    def _mc_out(self, out):
        return [out[f"mc{i}"] for i in range(len(self.mc))]

    @staticmethod
    def _report(r):
        return (r.recognized, r.attempts, None if r.output is None else str(r.output))

    def summary(self, out):
        return (
            self._cli(out),
            [[self._report(r) for r in reports] for reports in self._mc_out(out)],
            [self._report(r) for r in out["amp"]],
        )

    def _check_report(self, ck, what, strings, x, b, T, report, mask=None):
        P, xb = orc.bits(strings), orc.bits([x])[0]
        orc.check_law(ck, what, P, xb, b, report["p_rec"], report["probs"], mask)
        out = report["output"]
        ck.true(out is None or out in strings, f"{what}: output {out} is not a stored pattern")
        ck.true(1 <= report["attempts"] <= T, f"{what}: attempts {report['attempts']} outside [1, {T}]")
        ck.true((out is not None) == report["recognized"], f"{what}: recognized flag and output disagree")

    def check(self, ck: orc.Checks, out) -> None:
        cli_out = self._cli(out)
        for (argv, mem), (code, text) in zip(self.requests, cli_out):
            what = "qamem " + " ".join(a for a in argv if "/" not in a)
            ck.true(code == 0, f"{what}: exit {code}")
            if code != 0:
                continue
            if argv[0] == "retrieve":
                doc = json.loads(text)
                opts = dict(zip(argv[1::2], argv[2::2]))
                mask = set(map(int, opts["--mask"].split(","))) if "--mask" in opts else None
                strings = self.small[mem]
                ck.true([d["pattern"] for d in doc["distribution"]] == sorted(strings), f"{what}: distribution support")
                report = {
                    "p_rec": doc["p_rec"],
                    "probs": [{d["pattern"]: d["prob"] for d in doc["distribution"]}[s] for s in strings],
                    "output": doc["output"],
                    "attempts": doc["attempts"],
                    "recognized": doc["recognized"],
                }
                self._check_report(ck, what, strings, doc["input"], int(opts["--b"]), int(opts["--T"]), report, mask)
            elif argv[0] == "distribution":
                doc = json.loads(text)
                probs = {d["pattern"]: d["prob"] for d in doc["distribution"]}
                P, x = orc.bits(self.big), orc.bits([self.big_input])[0]
                orc.check_law(ck, what, P, x, 3, doc["p_rec"], [probs.get(s, math.nan) for s in self.big])
            else:
                n, p = self.BIG
                ck.true(text == f"gates: {p * (2 * n + 3) + 1}\n", f"{what}: printed {text!r}")
        ck.true(cli_out[0] == cli_out[len(self.requests) - 3], "repeated seeded request is not byte-identical")

        for (mem, x, b, T, runs, _), reports in zip(self.mc, self._mc_out(out)):
            strings = self.small[mem]
            what = f"Monte-Carlo retrieve memory {mem} b={b} T={T}"
            counts = Counter(str(r.output) for r in reports if r.recognized)
            for r in reports[:1] + [r for r in reports if r.recognized][:1]:
                self._check_report(ck, what, strings, x, b, T, self._api_report(r, strings))
            for r in reports:
                ck.true(r.output is None or str(r.output) in strings, f"{what}: output {r.output} not stored")
                ck.true(1 <= r.attempts <= T, f"{what}: attempts {r.attempts}")
            p_rec, probs = orc.retrieval_law(orc.bits(strings), orc.bits([x])[0], b)
            recognized = sum(r.recognized for r in reports)
            orc.check_monte_carlo(ck, what, runs, recognized, [counts[s] for s in strings], p_rec, T, probs)

        for (mem, x, b, T, _), r in zip(self.amplify, out["amp"]):
            strings = self.small[mem]
            self._check_report(ck, f"amplified retrieve memory {mem}", strings, x, b, T, self._api_report(r, strings))

    @staticmethod
    def _api_report(r, strings):
        return {
            "p_rec": r.analytic_p_rec,
            "probs": aligned(r.analytic_dist, strings),
            "output": None if r.output is None else str(r.output),
            "attempts": r.attempts,
            "recognized": r.recognized,
        }


# ===================================================================== analytics


class Analytics:
    """Closed-form and mean-field objects: thermo, meanfield and classical work."""

    TUNE_EPSILON = 0.05
    # nu in [0.91, 0.918) keeps the tuned b in (64, 128], so tune makes the
    # same number of potentials evaluations for every seed
    TUNE_NU = (0.91, 0.918)
    N = 1_000_000
    SCAN_B = tuple(np.logspace(-1, 4, 10))
    PHASE = 24  # cells per axis
    SINGLE = 30  # solve_single points in (0, 1], plus pi/4
    # n, alphas, trials, corruption.  The loadings below 0.1 are 0.05 and
    # 0.075: at 0.1 and n = 400, 4% of trials end below overlap 0.99 (with
    # exact integer fields too), so the mean of 8 misses 0.99 on some seeds.
    CAPACITY = (400, (0.05, 0.075, 0.25), 8, 0.05)
    HOPFIELD = ((200, 20), (200, 12))  # (n, p) of the nets run directly
    LAYERS = ("thermo", "meanfield", "classical")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.tune_args = (self.TUNE_EPSILON, float(rng.uniform(*self.TUNE_NU)), self.N + int(rng.integers(50_000)))
        self.scan_args = (float(rng.uniform(0.01, 0.03)), self.N + int(rng.integers(50_000)), self.SCAN_B)
        self.alpha_grid = np.linspace(float(rng.uniform(0.02, 0.03)), 1.2, self.PHASE)
        self.jt_grid = np.linspace(float(rng.uniform(0.2, 0.25)), 12.0, self.PHASE)
        jts = []
        while len(jts) < self.SINGLE:
            jt = float(rng.uniform(0.05, 1.0))
            if abs(jt - 0.5) > 0.02:  # the bifurcation point itself is ill-conditioned
                jts.append(jt)
        self.single = jts + [math.pi / 4]
        self.capacity_seed = int(rng.integers(2**63))
        self.nets = []
        for n, p in self.HOPFIELD:
            xi = rng.choice([-1, 1], size=(p, n))
            start = xi[0].copy()
            start[rng.choice(n, size=n // 20, replace=False)] *= -1
            strings = ["".join("1" if v > 0 else "0" for v in row) for row in xi]
            self.nets.append((xi, pattern_set(strings), start, int(rng.integers(2**63))))
        self.ops_per_round = 4 + len(self.single) + 2 * len(self.nets)

    def _nets(self):
        out = []
        for xi, ps, start, s in self.nets:
            net = classical.hebb(ps)
            out.append((net, classical.update_async(net, start, np.random.default_rng(s))))
        return out

    def steps(self):
        n, alphas, trials, corruption = self.CAPACITY
        return [
            ("tune", lambda: thermo.tune(*self.tune_args)),
            ("scan", lambda: thermo.scan_transition(*self.scan_args)),
            ("phase", lambda: meanfield.scan_phase_diagram(self.alpha_grid, self.jt_grid)),
            ("single", lambda: [meanfield.solve_single(jt) for jt in self.single]),
            ("capacity", lambda: classical.capacity_experiment_seeded(n, alphas, trials, corruption, self.capacity_seed)),
            ("nets", self._nets),
        ]

    def summary(self, out):
        return (
            repr(out["tune"]),
            out["scan"].to_csv(),
            out["phase"].to_csv(),
            repr(out["single"]),
            out["capacity"].to_csv(),
            [(s.tolist(), ok) for _, (s, ok) in out["nets"]],
        )

    def check(self, ck: orc.Checks, out) -> None:
        eps, nu, n = self.tune_args
        t = out["tune"]
        orc.check_tune(ck, f"tune({eps}, {nu}, {n})", eps, nu, n, t.b, t.T_repeat, t.T_amplified, t.achieved_D)

        d_over_n, n, _ = self.scan_args
        points = [(pt.b, pt.Z_ratio, pt.D_eff) for pt in out["scan"].points]
        ck.true(len(points) == len(self.SCAN_B), "scan_transition point count")
        orc.check_scan(ck, f"scan_transition({d_over_n}, {n})", round(d_over_n * n), n, points)

        solved = 0
        for cell in out["phase"].cells:
            sol = cell.retrieval_solution()
            if sol is not None:
                solved += 1
                a, jt = cell.params.alpha, cell.params.Jt
                orc.check_meanfield_solution(ck, f"phase cell alpha={a:g} Jt={jt:g}", a, jt, sol.m, sol.r)
        ck.true(solved > 0, "phase diagram has no converged retrieval solution")

        for jt, roots in zip(self.single, out["single"]):
            orc.check_single_pattern(ck, f"solve_single({jt})", jt, roots)

        rows = [(row.alpha, row.mean_overlap) for row in out["capacity"].rows]
        orc.check_capacity(ck, "capacity_experiment_seeded", rows)

        for (xi, _, _, _), (net, (s, converged)) in zip(self.nets, out["nets"]):
            orc.check_hopfield_weights(ck, "hebb", xi, net.weights)
            if converged:
                orc.check_hopfield_stable(ck, "update_async", xi, s)


WORKLOADS = {"circuit": Circuit, "queries": Queries, "analytics": Analytics}
