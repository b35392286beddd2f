import gc
import itertools
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qamem import retrieval
from qamem.patterns import (
    Mask,
    Pattern,
    PatternError,
    PatternSet,
    hamming,
    hamming_masked,
)
from qamem.retrieval import (
    RetrievalConfig,
    RetrievalError,
    amplify_iteration_gates,
    amplify_preparation_gates,
    amplitude_amplify,
    analytic_distribution,
    complexity_estimate,
    optimal_iterations,
    preparation_circuit,
    prepare_final_state,
    recognition_lower_bound,
    retrieval_layout,
    retrieval_round_circuit,
    retrieve,
    round_gate_count,
    simulate_distribution,
)
from qamem.simulator import (
    Circuit,
    SparseState,
    apply_circuit,
    basis_state,
    flip0_gate,
    measure_section,
    postselect,
    section_marginal,
)


def P(s):
    return Pattern.from_string(s)


def S(*strings):
    return PatternSet(tuple(P(s) for s in strings))


def random_set(rng, max_n=6, max_p=8):
    n = int(rng.integers(2, max_n + 1))
    p = int(rng.integers(1, min(max_p, 2**n) + 1))
    keys = rng.choice(2**n, size=p, replace=False)
    return PatternSet(
        tuple(Pattern(tuple((int(k) >> j) & 1 for j in range(n))) for k in keys)
    )


def random_input(rng, n):
    return Pattern(tuple(int(b) for b in rng.integers(0, 2, size=n)))


def grover_circuit(pattern_set, x, b, mask=None):
    """The amplify preparation A and one Grover iteration as gates: the
    reflection S of the all-zeros control subspace, A^-1, the reflection
    S0 about |0...0>, then A.  The iteration Q = -A S0 A^-1 S is this
    circuit followed by a sign flip."""
    layout = retrieval_layout(pattern_set.n, b, use_input_register=False)
    prep = preparation_circuit(pattern_set, x, layout, mask)
    flips = Circuit(
        (flip0_gate(layout.qubits("control")), flip0_gate(range(layout.total))), layout
    )
    return prep, flips[:1] + prep.inverse() + flips[1:] + prep


def gate_level_amplify(pattern_set, x, b, iterations, mask=None):
    """The state after ``iterations`` Grover iterations, run gate by gate."""
    prep, grover = grover_circuit(pattern_set, x, b, mask)
    layout = prep.layout
    state = apply_circuit(basis_state(layout, [0] * layout.total), prep)
    for _ in range(iterations):
        state = apply_circuit(state, grover)
        state = SparseState.from_arrays(layout, state.key_array, -state.amp_array)
    return state


class TestAnalyticDistribution:
    def test_exact_match_dominates(self):
        dist = analytic_distribution(S("000", "111"), P("000"), b=1)
        assert dist.p_rec == pytest.approx(0.5)
        assert dist.probs[P("000")] == pytest.approx(1.0)
        assert dist.probs[P("111")] == pytest.approx(0.0)

    def test_intermediate_input(self):
        dist = analytic_distribution(S("000", "111"), P("100"), b=1)
        assert dist.probs[P("000")] == pytest.approx(0.75)
        assert dist.probs[P("111")] == pytest.approx(0.25)
        assert dist.p_rec == pytest.approx(0.5)

    def test_full_set_single_round(self):
        # With every basis state stored, one round recognizes with
        # probability 1/2 regardless of the input.
        ps = PatternSet(
            tuple(Pattern(bits) for bits in itertools.product((0, 1), repeat=3))
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            dist = analytic_distribution(ps, random_input(rng, 3), b=1)
            assert dist.p_rec == pytest.approx(0.5, abs=1e-12)

    def test_complement_input_has_exactly_zero_weight(self):
        # d = n puts the branch at cos(pi/2) = 0, which round-off would make
        # 6e-17; both forms must give exactly zero there
        ps, inp = S("01"), P("10")
        assert analytic_distribution(ps, inp, b=2).p_rec == 0.0
        assert simulate_distribution(ps, inp, b=2).p_rec == 0.0
        dist = analytic_distribution(S("01", "00"), inp, b=2)
        assert dist.probs[P("01")] == 0.0 and dist.probs[P("00")] == 1.0
        assert analytic_distribution(ps, inp, b=0).p_rec == 1.0

    def test_b_zero_uniform(self):
        dist = analytic_distribution(S("01", "10", "11"), P("00"), b=0)
        assert dist.p_rec == pytest.approx(1.0)
        for prob in dist.probs.values():
            assert prob == pytest.approx(1 / 3)

    def test_z_is_p_times_p_rec(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ps = random_set(rng)
            dist = analytic_distribution(ps, random_input(rng, ps.n), 2)
            assert dist.Z == pytest.approx(ps.p * dist.p_rec, abs=1e-12)
            assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_concentration_in_b(self):
        ps = S("0000", "1100", "1111")
        inp = P("0001")
        last = 0.0
        for b in (1, 4, 16, 64):
            prob = analytic_distribution(ps, inp, b).probs[P("0000")]
            assert prob >= last
            last = prob
        assert last == pytest.approx(1.0, abs=1e-6)

    def test_tied_nearest_split_evenly(self):
        ps = S("000", "011")
        dist = analytic_distribution(ps, P("001"), b=50)
        assert dist.probs[P("000")] == pytest.approx(0.5, abs=1e-12)
        assert dist.probs[P("011")] == pytest.approx(0.5, abs=1e-12)


class TestRoundCircuit:
    def test_gate_counts(self):
        layout = retrieval_layout(4, 2)
        circuit = retrieval_round_circuit(P("0101"), layout, 0)
        assert len(circuit) == round_gate_count(4) == 6 * 4 + 2
        layout2 = retrieval_layout(4, 2, use_input_register=False)
        circuit2 = retrieval_round_circuit(P("0101"), layout2, 0)
        assert len(circuit2) == round_gate_count(4, False) == 4 * 4 + 2

    def test_exact_input_never_excites_control(self):
        ps = S("1011")
        config = RetrievalConfig(b=1)
        state = prepare_final_state(ps, P("1011"), config)
        for key in state.amps:
            assert state.section_value(key, "control") == 0

    def test_control_index_range(self):
        layout = retrieval_layout(3, 1)
        with pytest.raises(RetrievalError):
            retrieval_round_circuit(P("000"), layout, 1)

    def test_preparation_input_length_checked(self):
        layout = retrieval_layout(4, 1)
        with pytest.raises(RetrievalError, match="input length does not match stored patterns"):
            preparation_circuit(S("0011"), P("01"), layout)


class TestCircuitVsFormula:
    def test_small_exhaustive(self):
        pats3 = [Pattern(bits) for bits in itertools.product((0, 1), repeat=3)]
        rng = np.random.default_rng(7)
        for p in (1, 2, 3):
            for combo in itertools.combinations(pats3, p):
                ps = PatternSet(combo)
                inp = random_input(rng, 3)
                for b in (1, 2):
                    sim = simulate_distribution(ps, inp, b)
                    ana = analytic_distribution(ps, inp, b)
                    assert sim.p_rec == pytest.approx(ana.p_rec, abs=1e-9)
                    if ana.p_rec < 1e-12:
                        # Conditional distribution undefined when the
                        # recognition probability vanishes.
                        continue
                    for pat in ps:
                        assert sim.probs.get(pat, 0.0) == pytest.approx(
                            ana.probs[pat], abs=1e-9
                        )

    def test_random_larger(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            ps = random_set(rng, max_n=5, max_p=6)
            inp = random_input(rng, ps.n)
            b = int(rng.integers(1, 4))
            sim = simulate_distribution(ps, inp, b)
            ana = analytic_distribution(ps, inp, b)
            assert sim.p_rec == pytest.approx(ana.p_rec, abs=1e-9)
            for pat in ps:
                assert sim.probs.get(pat, 0.0) == pytest.approx(
                    ana.probs[pat], abs=1e-9
                )

    def test_input_as_operator_variant(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ps = random_set(rng, max_n=4, max_p=4)
            inp = random_input(rng, ps.n)
            sim = simulate_distribution(ps, inp, 2, use_input_register=False)
            ana = analytic_distribution(ps, inp, 2)
            assert sim.p_rec == pytest.approx(ana.p_rec, abs=1e-9)

    def test_no_spurious_patterns_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ps = random_set(rng, max_n=4, max_p=4)
            sim = simulate_distribution(ps, random_input(rng, ps.n), 2)
            stored = set(ps)
            for pat, prob in sim.probs.items():
                if pat not in stored:
                    assert prob < 1e-12


class TestMasked:
    def test_masked_distances(self):
        ps = S("0000", "1111")
        mask = Mask.of(0, 1)
        dist = analytic_distribution(ps, P("0011"), b=1, mask=mask)
        # masked distances: 0 vs 2 out of n=4
        w0 = math.cos(0) ** 2
        w1 = math.cos(math.pi * 2 / 8) ** 2
        assert dist.probs[P("0000")] == pytest.approx(w0 / (w0 + w1))

    def test_full_mask_equals_unmasked(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ps = random_set(rng, max_n=5, max_p=5)
            inp = random_input(rng, ps.n)
            full = Mask.of(*range(ps.n))
            a = analytic_distribution(ps, inp, 2, mask=full)
            b = analytic_distribution(ps, inp, 2)
            assert a.p_rec == pytest.approx(b.p_rec, abs=1e-12)

    def test_masked_circuit_matches_formula(self):
        ps = S("0000", "1010", "1111")
        mask = Mask.of(1, 3)
        inp = P("1001")
        sim = simulate_distribution(ps, inp, 2, mask=mask)
        ana = analytic_distribution(ps, inp, 2, mask=mask)
        assert sim.p_rec == pytest.approx(ana.p_rec, abs=1e-9)
        for pat in ps:
            assert sim.probs.get(pat, 0.0) == pytest.approx(
                ana.probs[pat], abs=1e-9
            )


def sampling_table(pattern_set, x, config):
    """The memoised sampling table that retrieve draws from."""
    return retrieval._prepared(pattern_set, x, config)[1]


def loop_distribution(pattern_set, x, b, mask=None):
    """The closed form as one Python loop over the stored patterns: the
    per-pair Hamming distance, then cos^{2b} with an exact zero at d = n."""
    n, p = pattern_set.n, pattern_set.p
    if mask is None:
        distances = [hamming(x, pat) for pat in pattern_set]
    else:
        distances = [hamming_masked(x, pat, mask) for pat in pattern_set]
    weights = [
        0.0 if d == n and b > 0 else math.cos(math.pi * d / (2 * n)) ** (2 * b)
        for d in distances
    ]
    Z = sum(weights)
    if Z > 0:
        probs = {pat: w / Z for pat, w in zip(pattern_set, weights)}
    else:
        probs = {pat: 0.0 for pat in pattern_set}
    return Z / p, Z, probs


class TestBitMatrixClosedForm:
    """The bit-matrix closed form equals the per-pattern loop bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 12),
        b=st.integers(0, 4),
        masked=st.booleans(),
        far=st.booleans(),
    )
    def test_matches_loop_exactly(self, data, n, b, masked, far):
        keys = data.draw(
            st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=40, unique=True)
        )
        ps = PatternSet(tuple(Pattern.from_key(k, n) for k in keys))
        if far:  # some stored pattern at distance n
            x = ps[data.draw(st.integers(0, ps.p - 1))].complement()
        else:
            x = Pattern.from_key(data.draw(st.integers(0, 2**n - 1)), n)
        mask = None
        if masked:
            mask = Mask(frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        dist = analytic_distribution(ps, x, b, mask)
        p_rec, Z, probs = loop_distribution(ps, x, b, mask)
        assert dist.p_rec == p_rec and dist.Z == Z
        assert list(dist.probs.items()) == list(probs.items())
        assert dist.prob_array.tolist() == list(probs.values())

    def test_input_and_mask_checked(self):
        ps = S("010", "111")
        with pytest.raises(PatternError, match="length mismatch: 2 != 3"):
            analytic_distribution(ps, P("01"), 1)
        with pytest.raises(PatternError, match="out of range"):
            analytic_distribution(ps, P("011"), 1, Mask.of(0, 3))
        with pytest.raises(RetrievalError, match="b must be >= 0"):
            analytic_distribution(ps, P("011"), -1)

    def test_b_past_float_range_refused(self):
        """cos^{2b} takes 2b as a float: a larger b is refused, and the
        message does not echo it."""
        ps = S("0000", "0011")
        for b in (10**400, int(9e307)):
            with pytest.raises(RetrievalError) as info:
                analytic_distribution(ps, P("0001"), b)
            assert str(info.value) == "b too large: the exponent 2b exceeds the float range"
        largest = int(sys.float_info.max) // 2
        assert analytic_distribution(ps, P("0011"), largest).p_rec == 0.5

    def test_law_is_shared_and_read_only(self):
        """Every report of one query carries the same memoised law."""
        ps, x = S("0110", "1011", "0001"), P("0111")
        calls = []
        real = retrieval.analytic_distribution

        def counted(*args):
            calls.append(args)
            return real(*args)

        config = RetrievalConfig(b=2, T=2)
        rng = np.random.default_rng(4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "analytic_distribution", counted)
            reports = [retrieve(ps, x, config, rng) for _ in range(30)]
        assert len(calls) == 1
        law = reports[0].analytic
        assert all(r.analytic.prob_array is law.prob_array for r in reports)
        assert all(r.analytic.support is ps for r in reports)
        assert reports[-1].analytic_dist == loop_distribution(ps, x, 2)[2]
        with pytest.raises(TypeError):
            reports[0].analytic_dist[P("0110")] = 1.0
        with pytest.raises(ValueError):
            law.prob_array[0] = 1.0
        simulated = simulate_distribution(ps, x, 2)
        with pytest.raises(ValueError):
            simulated.prob_array[0] = 1.0

    @pytest.mark.parametrize("mode", ["repeat_measure", "amplitude_amplify"])
    def test_memo_dies_with_its_set(self, mode):
        """The per-set memo keeps neither the set nor its closed form alive."""
        ps = S("0110", "1011", "0001")
        retrieve(ps, P("0111"), RetrievalConfig(b=2, mode=mode), np.random.default_rng(0))
        assert ps in retrieval._LAST_TABLE
        ref = weakref.ref(ps)
        del ps
        gc.collect()
        assert ref() is None
        assert len(retrieval._LAST_TABLE) == 0


class TestLowerBound:
    def test_single_pattern_zero(self):
        assert recognition_lower_bound(1, 4, 2)[0] == 0.0

    def test_b_zero(self):
        bound, _ = recognition_lower_bound(5, 4, 0)
        assert bound == pytest.approx(4 / 5)

    def test_validation(self):
        with pytest.raises(RetrievalError, match="need p >= 1 and n >= 2"):
            recognition_lower_bound(0, 4, 1)

    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(12)
        worst_gap = math.inf
        for _ in range(1000):
            ps = random_set(rng)
            b = int(rng.integers(0, 4))
            dist = analytic_distribution(ps, random_input(rng, ps.n), b)
            bound, _ = recognition_lower_bound(ps.p, ps.n, b)
            assert dist.p_rec >= bound - 1e-12
            worst_gap = min(worst_gap, dist.p_rec - bound)
        assert worst_gap >= -1e-12


class TestRetrieve:
    def test_single_pattern_always_recognized(self):
        ps = S("0110")
        config = RetrievalConfig(b=3, T=1)
        report = retrieve(ps, P("0110"), config, np.random.default_rng(0))
        assert report.recognized and report.attempts == 1
        assert report.output == P("0110")

    def test_geometric_recognition_frequency(self):
        ps = S("000", "111")
        config = RetrievalConfig(b=1, T=10)
        hits = 0
        rng = np.random.default_rng(100)
        for _ in range(2000):
            if retrieve(ps, P("000"), config, rng).recognized:
                hits += 1
        want = 1 - 0.5**10
        assert hits / 2000 == pytest.approx(want, abs=0.02)

    def test_conditional_output_frequencies(self):
        ps = S("000", "111")
        config = RetrievalConfig(b=1, T=20)
        counts = {P("000"): 0, P("111"): 0}
        rng = np.random.default_rng(101)
        for _ in range(4000):
            report = retrieve(ps, P("100"), config, rng)
            if report.recognized:
                counts[report.output] += 1
        total = sum(counts.values())
        assert counts[P("000")] / total == pytest.approx(0.75, abs=0.03)

    def test_outputs_always_stored(self):
        rng = np.random.default_rng(102)
        ps = S("0011", "1100", "0110")
        stored = set(ps)
        config = RetrievalConfig(b=2, T=5)
        for _ in range(300):
            report = retrieve(ps, random_input(rng, 4), config, rng)
            if report.recognized:
                assert report.output in stored

    def test_amplified_mode_runs(self):
        ps = S("000", "111")
        config = RetrievalConfig(b=1, T=20, mode="amplitude_amplify")
        report = retrieve(ps, P("000"), config, np.random.default_rng(5))
        assert report.recognized
        assert report.output in set(ps)

    def test_never_recognized(self):
        """The complement of the only stored pattern: the control-0 branch
        is pruned, so no attempt is recognized and amplify mode refuses."""
        ps, x = S("01"), P("10")
        config = RetrievalConfig(b=1, T=3)
        assert sampling_table(ps, x, config) == retrieval.SamplingTable(0.0, (), ())
        report = retrieve(ps, x, config, np.random.default_rng(0))
        assert (report.recognized, report.attempts, report.output) == (False, 3, None)
        amplify = RetrievalConfig(b=1, T=3, mode="amplitude_amplify")
        with pytest.raises(RetrievalError, match="cannot amplify zero success probability"):
            retrieve(ps, x, amplify, np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(RetrievalError):
            RetrievalConfig(b=0)
        with pytest.raises(RetrievalError):
            RetrievalConfig(mode="nope")


def per_call_retrieve(ps, inp, config, rng):
    """Reference protocol: prepare the state, measure the control, then the memory."""
    if config.mode == "amplitude_amplify":
        p_rec = analytic_distribution(ps, inp, config.b, config.mask).p_rec
        j = optimal_iterations(p_rec)
        state = amplitude_amplify(ps, inp, config.b, j, config.mask).state
    else:
        state = prepare_final_state(ps, inp, config)
    p_zero = section_marginal(state, "control").get(0, 0.0)
    for attempt in range(1, config.T + 1):
        if rng.random() < p_zero:
            _, collapsed = postselect(state, "control", 0)
            value, _ = measure_section(collapsed, "memory", rng)
            return True, attempt, Pattern.from_key(value, ps.n)
    return False, config.T, None


class TestPreparedSampling:
    def test_same_draws_as_per_call_protocol(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(40):
            ps = random_set(rng, 5, 6)
            inp = random_input(rng, ps.n)
            mode = ("repeat_measure", "amplitude_amplify")[int(rng.integers(2))]
            mask = None
            if rng.integers(2):
                mask = Mask(frozenset(int(j) for j in rng.choice(ps.n, size=ps.n - 1, replace=False)))
            b = int(rng.integers(1, 4))
            p_rec = analytic_distribution(ps, inp, b, mask).p_rec
            if mode == "amplitude_amplify" and p_rec < 0.02:  # keeps iterations <= 5
                continue
            config = RetrievalConfig(b=b, T=int(rng.integers(1, 4)), mode=mode, mask=mask)
            seed = int(rng.integers(2**32))
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                report = retrieve(ps, inp, config, fast)
                got = (report.recognized, report.attempts, report.output)
                assert got == per_call_retrieve(ps, inp, config, slow)
                checked += 1
        assert checked >= 150

    def test_state_prepared_once_per_query(self, monkeypatch):
        ps, inp = S("0110", "1011"), P("0111")
        retrieve(S("01", "10"), P("00"), RetrievalConfig(), np.random.default_rng(0))
        calls = []
        real = retrieval.prepare_final_state

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(retrieval, "prepare_final_state", counted)
        rng = np.random.default_rng(1)
        for T in (1, 3, 1):  # T does not enter the state
            for _ in range(20):
                retrieve(ps, inp, RetrievalConfig(b=2, T=T), rng)
        assert len(calls) == 1
        for config, x in [
            (RetrievalConfig(b=3), inp),
            (RetrievalConfig(b=3), P("0110")),
            (RetrievalConfig(b=3, mask=Mask.of(0, 1)), P("0110")),
            (RetrievalConfig(b=3, mask=Mask.of(0, 1), use_input_register=False), P("0110")),
        ]:
            retrieve(ps, x, config, rng)
            retrieve(ps, x, config, rng)
        assert len(calls) == 5
        # the mode does not enter the state: amplify mode rotates p_zero of
        # the same table; p_rec = 0.064 here, amplified 3 times
        repeat = sampling_table(ps, P("0000"), RetrievalConfig(b=3))
        amplified = sampling_table(
            ps, P("0000"), RetrievalConfig(b=3, mode="amplitude_amplify")
        )
        assert len(calls) == 6
        assert amplified.p_zero > repeat.p_zero

    def test_amplify_table_is_repeat_table_rotated(self):
        """Amplify mode reads the repeat-mode state: the same memory law,
        bit for bit, and p_zero moved by the rotation law."""
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(60):
            ps = random_set(rng, 5, 6)
            inp = random_input(rng, ps.n)
            mask = None
            if rng.integers(2):
                mask = Mask(frozenset(int(j) for j in rng.choice(ps.n, size=ps.n - 1, replace=False)))
            b = int(rng.integers(1, 4))
            use_input_register = bool(rng.integers(2))
            p_rec = analytic_distribution(ps, inp, b, mask).p_rec
            if p_rec == 0:
                continue
            repeat = sampling_table(
                ps, inp, RetrievalConfig(b=b, mask=mask, use_input_register=use_input_register)
            )
            amplified = sampling_table(ps, inp, RetrievalConfig(
                b=b, mode="amplitude_amplify", mask=mask, use_input_register=use_input_register
            ))
            assert (amplified.values, amplified.cdf) == (repeat.values, repeat.cdf)
            theta = math.asin(math.sqrt(min(repeat.p_zero, 1.0)))
            j = optimal_iterations(p_rec)
            assert amplified.p_zero == math.sin((2 * j + 1) * theta) ** 2
            checked += 1
        assert checked >= 40

    def test_amplify_below_postselection_floor_refused(self):
        """p_rec = sin^16(pi/40) = 2.06e-18 > 0 would be amplified to almost
        sure recognition, but its branch is below postselect's floor."""
        ps, inp = PatternSet((P("0" * 20),)), P("1" * 19 + "0")
        config = RetrievalConfig(b=8, mode="amplitude_amplify")
        with pytest.raises(RetrievalError, match="cannot amplify p_rec = 2.06e-18: the recognized branch is below"):
            retrieve(ps, inp, config, np.random.default_rng(0))
        # repeat mode reads the same state as never recognized
        report = retrieve(ps, inp, RetrievalConfig(b=8, T=2), np.random.default_rng(0))
        assert (report.recognized, report.attempts) == (False, 2)


class TestWideLayouts:
    """Retrieval layouts on both sides of the 63-qubit int64 key limit."""

    @pytest.mark.parametrize(
        "n, b, use_input_register, width, dtype",
        [
            (30, 1, True, 63, np.int64),
            (30, 2, True, 64, object),
            (32, 3, True, 69, object),
            (32, 3, False, 37, np.int64),
        ],
    )
    def test_gate_level_matches_closed_form(self, n, b, use_input_register, width, dtype):
        rng = np.random.default_rng(1000 + width)
        ps = PatternSet(
            tuple(Pattern(tuple(int(v) for v in row)) for row in rng.integers(0, 2, size=(4, n)))
        )
        bits = list(ps[0].bits)
        for j in rng.choice(n, size=3, replace=False):
            bits[j] ^= 1
        inp = Pattern(tuple(bits))
        layout = retrieval_layout(n, b, use_input_register)
        assert layout.total == width
        assert layout.key_dtype == np.dtype(dtype)

        ana = analytic_distribution(ps, inp, b)
        sim = simulate_distribution(ps, inp, b, use_input_register=use_input_register)
        assert abs(sim.p_rec - ana.p_rec) < 1e-12
        assert set(sim.probs) == set(ps)
        for pat in ps:
            assert abs(sim.probs[pat] - ana.probs[pat]) < 1e-12

        config = RetrievalConfig(b=b, T=4, use_input_register=use_input_register)
        table = sampling_table(ps, inp, config)
        assert abs(table.p_zero - ana.p_rec) < 1e-12
        probs = np.diff((0.0,) + table.cdf)
        want = [ana.probs[Pattern.from_key(v, n)] for v in table.values]
        assert np.max(np.abs(probs - want)) < 1e-12
        assert sorted(table.values) == sorted(pat.as_key() for pat in ps)
        rng = np.random.default_rng(width)
        for _ in range(20):
            report = retrieve(ps, inp, config, rng)
            assert report.output is None or report.output in set(ps)
            assert report.analytic_p_rec == ana.p_rec


class TestAmplification:
    def test_gate_counts_match_circuits(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ps = random_set(rng, max_n=5, max_p=4)
            b = int(rng.integers(1, 4))
            prep, grover = grover_circuit(ps, random_input(rng, ps.n), b)
            assert len(prep) == amplify_preparation_gates(ps.p, ps.n, b)
            assert amplify_iteration_gates(ps.p, ps.n, b) == len(grover) == 2 * len(prep) + 2

    def test_success_follows_rotation_law(self):
        ps = S("000", "111")
        inp = P("000")  # p_rec = 1/2, theta = pi/4
        for j in range(4):
            run = amplitude_amplify(ps, inp, 1, j)
            want = math.sin((2 * j + 1) * math.pi / 4) ** 2
            assert run.success_probability == pytest.approx(want, abs=1e-9)

    def test_rotation_law_generic(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            ps = random_set(rng, max_n=4, max_p=4)
            inp = random_input(rng, ps.n)
            b = int(rng.integers(1, 3))
            p_rec = analytic_distribution(ps, inp, b).p_rec
            if p_rec < 1e-9:
                continue
            theta = math.asin(math.sqrt(min(p_rec, 1.0)))
            for j in (0, 1, 2):
                run = amplitude_amplify(ps, inp, b, j)
                want = math.sin((2 * j + 1) * theta) ** 2
                assert run.success_probability == pytest.approx(want, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 4),
        b=st.integers(1, 3),
        j=st.integers(0, 2),
    )
    def test_masked_amplification_matches_closed_form(self, data, n, b, j):
        """Grover iterations rotate within the span of the good and bad
        components, so the masked success probability follows the rotation
        law and the post-selected memory keeps the masked closed form."""
        keys = data.draw(
            st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=4, unique=True)
        )
        ps = PatternSet(tuple(Pattern.from_key(k, n) for k in keys))
        inp = Pattern.from_key(data.draw(st.integers(0, 2**n - 1)), n)
        mask = Mask(frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        ana = analytic_distribution(ps, inp, b, mask)
        assume(ana.p_rec > 1e-6)
        theta = math.asin(math.sqrt(min(ana.p_rec, 1.0)))

        def check_memory(probs):
            for pat in ps:
                assert probs.get(pat.as_key(), 0.0) == pytest.approx(
                    ana.probs[pat], abs=1e-9
                )

        run = amplitude_amplify(ps, inp, b, j, mask)
        want = math.sin((2 * j + 1) * theta) ** 2
        assert run.success_probability == pytest.approx(want, abs=1e-9)
        if want > 1e-3:
            _, good = postselect(run.state, "control", 0)
            check_memory(section_marginal(good, "memory"))

        # retrieve's amplify mode samples from the optimally amplified state
        config = RetrievalConfig(b=b, mode="amplitude_amplify", mask=mask)
        table = sampling_table(ps, inp, config)
        best = math.sin((2 * optimal_iterations(ana.p_rec) + 1) * theta) ** 2
        assert table.p_zero == pytest.approx(best, abs=1e-9)
        check_memory(dict(zip(table.values, np.diff((0.0,) + table.cdf))))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 5),
        b=st.integers(1, 3),
        j=st.integers(0, 4),
        masked=st.booleans(),
    )
    def test_matches_gate_level_circuit(self, data, n, b, j, masked):
        """The reflection about the prepared state is the Grover iteration:
        every amplitude agrees with the gate-level run to 1e-12, on the
        prepared state's keys."""
        keys = data.draw(
            st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=min(6, 2**n), unique=True)
        )
        ps = PatternSet(tuple(Pattern.from_key(k, n) for k in keys))
        inp = Pattern.from_key(data.draw(st.integers(0, 2**n - 1)), n)
        mask = None
        if masked:
            mask = Mask(frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        run = amplitude_amplify(ps, inp, b, j, mask)
        want = gate_level_amplify(ps, inp, b, j, mask).amps
        got = run.state.amps
        assert max(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want)) <= 1e-12
        config = RetrievalConfig(b=b, mask=mask, use_input_register=False)
        prepared = prepare_final_state(ps, inp, config)
        assert run.state.key_array.tolist() == prepared.key_array.tolist()

    def test_prepares_once_for_any_iterations(self, monkeypatch):
        ps, inp = S("0110", "1011", "0001"), P("0111")
        calls = []
        real = retrieval.apply_circuit

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(retrieval, "apply_circuit", counted)
        for j in (0, 1, 5, 40):
            calls.clear()
            amplitude_amplify(ps, inp, 2, j)
            assert len(calls) == 1

    def test_negative_iterations_refused(self):
        with pytest.raises(RetrievalError, match="iterations must be >= 0"):
            amplitude_amplify(S("01"), P("01"), 1, -1)

    def test_optimal_iterations(self):
        assert optimal_iterations(1.0) == 0
        assert optimal_iterations(0.5) in (0, 1)
        theta = math.asin(math.sqrt(0.01))
        assert optimal_iterations(0.01) == math.floor(math.pi / (4 * theta))

    def test_iterations_scale_inverse_sqrt(self):
        # iterations to reach 0.9 success ~ 1/sqrt(P) within a factor 2
        def iters_to_09(p_rec):
            theta = math.asin(math.sqrt(p_rec))
            for j in range(10000):
                if math.sin((2 * j + 1) * theta) ** 2 >= 0.9:
                    return j + 1  # count at least one application
            raise AssertionError("rotation never reached 0.9")

        refs = {p: iters_to_09(p) for p in (0.1, 0.02, 0.002)}
        base = refs[0.1] * math.sqrt(0.1)
        for p, j in refs.items():
            scaled = j * math.sqrt(p)
            assert scaled / base < 2 and base / scaled < 2


class TestComplexity:
    def test_repeat_example(self):
        # memory circuit 1*(2*2+3)+1 = 8 rows, one round 6*2+2 = 14 rows
        assert complexity_estimate(1, 2, 1, 1) == 22

    def test_matches_built_circuits(self):
        """Repeat mode runs the preparation T times; amplify mode's circuit
        runs it once, then T Grover iterations of the gate-level circuit."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            ps = random_set(rng, max_n=5, max_p=4)
            inp = random_input(rng, ps.n)
            b, T = int(rng.integers(1, 4)), int(rng.integers(0, 4))
            prep = preparation_circuit(ps, inp, retrieval_layout(ps.n, b))
            assert complexity_estimate(ps.p, ps.n, b, T) == T * len(prep)
            prep, grover = grover_circuit(ps, inp, b)
            got = complexity_estimate(ps.p, ps.n, b, T, mode="amplitude_amplify")
            assert got == len(prep) + T * len(grover)

    def test_unknown_mode_refused(self):
        with pytest.raises(RetrievalError, match="unknown mode 'x'"):
            complexity_estimate(1, 2, 1, 1, mode="x")

    def test_amplify_preparation_only(self):
        got = complexity_estimate(2, 3, 2, 0, mode="amplitude_amplify")
        assert got == 2 * (2 * 3 + 3) + 2 * (4 * 3 + 2) + 1

    def test_monotone(self):
        base = complexity_estimate(2, 3, 2, 4)
        assert complexity_estimate(3, 3, 2, 4) > base
        assert complexity_estimate(2, 4, 2, 4) > base
        assert complexity_estimate(2, 3, 3, 4) > base
        assert complexity_estimate(2, 3, 2, 5) > base
