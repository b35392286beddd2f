import itertools
import math

import numpy as np
import pytest

from gates import overlap
from qamem.memory import (
    MEMORY_AMPLITUDE_TOL,
    build_dual_state,
    build_memory_circuit,
    build_memory_operator,
    check_memory_contract,
    memory_gate_count,
    memory_layout,
    memory_register_amplitudes,
    sequential_circuit,
    store_sequential,
)
from qamem.patterns import Pattern, PatternSet
from qamem.retrieval import retrieval_layout
from qamem.simulator import (
    KIND,
    RegisterLayout,
    SimulatorError,
    SparseState,
    apply_circuit,
    basis_state,
)


def all_sets(n, max_p):
    pats = [Pattern(bits) for bits in itertools.product((0, 1), repeat=n)]
    for p in range(1, max_p + 1):
        for combo in itertools.combinations(pats, p):
            yield PatternSet(combo)


def random_set(rng, max_n=6, max_p=8):
    n = int(rng.integers(2, max_n + 1))
    p = int(rng.integers(1, min(max_p, 2**n) + 1))
    keys = rng.choice(2**n, size=p, replace=False)
    return PatternSet(
        tuple(Pattern(tuple((int(k) >> j) & 1 for j in range(n))) for k in keys)
    )


def check_memory_amplitudes(amps, pattern_set, tol=1e-10):
    expected = 1.0 / math.sqrt(pattern_set.p)
    stored = set(pattern_set)
    for pat in stored:
        assert abs(amps.get(pat, 0.0) - expected) < tol
    for pat, amp in amps.items():
        if pat not in stored:
            assert abs(amp) < 1e-12


class TestGateCount:
    @pytest.mark.parametrize("p,n,want", [(1, 2, 8), (4, 3, 37), (6, 5, 79)])
    def test_formula(self, p, n, want):
        assert memory_gate_count(p, n) == want

    def test_circuit_length_matches(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ps = random_set(rng)
            circuit = build_memory_circuit(ps)
            assert len(circuit) == memory_gate_count(ps.p, ps.n)


class TestCircuitLayout:
    def test_rows_on_the_given_registers(self):
        """On a wider layout the rows are those of the default layout with
        every qubit moved by the memory register's offset, bit for bit."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            ps = random_set(rng)
            offset = int(rng.integers(0, 70))
            layout = RegisterLayout(
                (("input", offset), ("memory", ps.n), ("utility", 2), ("control", 2))
            )
            for alternate_signs in (False, True):
                base = build_memory_circuit(ps, alternate_signs)
                moved = build_memory_circuit(ps, alternate_signs, layout)
                assert base.layout == memory_layout(ps.n) and moved.layout == layout
                for column in ("tmask", "cmask", "cwant"):
                    got, want = getattr(moved, column), getattr(base, column)
                    assert got.dtype == layout.key_dtype
                    assert got.tolist() == [m << offset for m in want.tolist()]
                for column in ("kind", "param"):
                    assert getattr(moved, column).tobytes() == getattr(base, column).tobytes()

    @pytest.mark.parametrize("n", [61, 62, 63, 64, 100])
    def test_nxor_keys_past_63_qubits(self, n):
        """The NXOR rows want each pattern's key on the memory register (bit
        j on memory qubit j), on either side of the int64 key limit."""
        rng = np.random.default_rng(n)
        ps = PatternSet(tuple(Pattern(tuple(row)) for row in rng.integers(0, 2, (9, n)).tolist()))
        for layout in (memory_layout(n), retrieval_layout(n, 3)):
            circuit = build_memory_circuit(ps, layout=layout)
            want = [int(str(pat)[::-1], 2) << layout.offset("memory") for pat in ps.patterns]
            nxor = circuit.kind == KIND["NXOR"]
            assert circuit.cwant.dtype == layout.key_dtype
            assert circuit.cwant[nxor].tolist() == want

    def test_any_register_order(self):
        """The rows read every qubit from the layout: utility first, with a
        gap before the memory register, prepares the same memory state."""
        ps = PatternSet(tuple(Pattern.from_string(s) for s in ("0110", "1011", "0001")))
        layout = RegisterLayout((("utility", 2), ("pad", 3), ("memory", 4)))
        circuit = build_memory_circuit(ps, layout=layout)
        state = apply_circuit(basis_state(layout, [0] * layout.total), circuit)
        check_memory_contract(state, ps)
        assert not state.section_values("pad").any()

    @pytest.mark.parametrize(
        "sections, match",
        [
            ((("memory", 4), ("utility", 2)), r"memory, utility widths must be \(3, 2\), got \(4, 2\)"),
            ((("memory", 3), ("utility", 1)), r"memory, utility widths must be \(3, 2\), got \(3, 1\)"),
            ((("memory", 3),), "no section named 'utility'"),
        ],
    )
    def test_layout_widths_checked(self, sections, match):
        ps = PatternSet((Pattern.from_string("011"),))
        with pytest.raises(SimulatorError, match=match):
            build_memory_circuit(ps, layout=RegisterLayout(sections))


class TestMemoryOperator:
    def test_exhaustive_small(self):
        for ps in all_sets(3, 4):
            build = build_memory_operator(ps)  # asserts amplitudes internally
            check_memory_amplitudes(build.memory_amplitudes(), ps)

    def test_utility_register_clean(self):
        for ps in all_sets(2, 3):
            state = build_memory_operator(ps).final_state
            stored = state.section_values("utility") == 0
            mass = sum(abs(a) ** 2 for a in state.amp_array[stored].tolist())
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            ps = random_set(rng)
            check_memory_amplitudes(build_memory_operator(ps).memory_amplitudes(), ps)

    def test_single_pattern(self):
        ps = PatternSet((Pattern.from_string("101"),))
        amps = build_memory_operator(ps).memory_amplitudes()
        assert abs(amps[Pattern.from_string("101")] - 1.0) < 1e-12


def dict_contract_check(state, pattern_set):
    """The amplitude contract check as a loop over a {Pattern: amplitude}
    dict: the oracle of check_memory_contract, error texts included."""
    expected = 1.0 / math.sqrt(pattern_set.p)
    amps = memory_register_amplitudes(state)
    for pat in pattern_set:
        got = amps.pop(pat, 0.0)
        if abs(got - expected) > MEMORY_AMPLITUDE_TOL:
            raise AssertionError(f"memory amplitude {got} for {pat} deviates from {expected}")
    if any(abs(a) > MEMORY_AMPLITUDE_TOL for a in amps.values()):
        raise AssertionError("memory state has amplitude on a non-stored pattern")


def contract_outcome(check, state, pattern_set):
    try:
        check(state, pattern_set)
    except AssertionError as err:
        return str(err)
    return None


# offsets on either side of the tolerance, on one stored amplitude or a stray one
OFFSETS = (2e-10, -2e-10, 2e-10j, 5e-11, -5e-11j)


class TestContractCheck:
    """check_memory_contract on arrays raises what the dict loop raises."""

    @staticmethod
    def perturbed(ps, change):
        """The memory state of ps with its {key: amplitude} dict changed."""
        state = build_memory_operator(ps).final_state
        amps = dict(state.amps)
        change(amps)
        return SparseState(state.layout, amps)

    @staticmethod
    def sets():
        rng = np.random.default_rng(7)
        yield PatternSet((Pattern.from_string("101"),))
        for _ in range(6):
            yield random_set(rng)
        # a 64-qubit memory layout: object keys
        yield PatternSet(tuple(Pattern.from_key(k, 62) for k in (0, 2**61 + 5, 2**40 - 1)))

    def assert_same(self, state, ps):
        want = contract_outcome(dict_contract_check, state, ps)
        assert contract_outcome(check_memory_contract, state, ps) == want
        return want

    def test_built_states_pass(self):
        for ps in self.sets():
            state = build_memory_operator(ps).final_state
            assert self.assert_same(state, ps) is None

    def test_stored_amplitude_off(self):
        for ps in self.sets():
            for k in {0, ps.p // 2, ps.p - 1}:
                key = ps[k].as_key()
                for offset in OFFSETS:
                    def change(amps):
                        amps[key] += offset
                    got = self.assert_same(self.perturbed(ps, change), ps)
                    if abs(offset) > MEMORY_AMPLITUDE_TOL:
                        assert f" for {ps[k]} deviates from " in got
                    else:
                        assert got is None
                def drop(amps):
                    del amps[key]
                assert "memory amplitude 0.0 for" in self.assert_same(self.perturbed(ps, drop), ps)

    def test_stray_key(self):
        for ps in self.sets():
            n = ps.n
            stray = min({pat.as_key() ^ 1 for pat in ps} - {pat.as_key() for pat in ps}, default=None)
            if stray is None:  # every n-bit pattern is stored
                continue
            for offset in OFFSETS:
                for utility in (0, 1, 3):
                    def change(amps):
                        amps[stray | utility << n] = offset
                    got = self.assert_same(self.perturbed(ps, change), ps)
                    if utility or abs(offset) < MEMORY_AMPLITUDE_TOL:
                        assert got is None
                    else:
                        assert got == "memory state has amplitude on a non-stored pattern"

    def test_stored_deviation_reported_before_stray(self):
        ps = PatternSet(tuple(Pattern.from_string(s) for s in ("011", "101", "110")))
        def change(amps):
            amps[0] = 1.0
            amps[ps[2].as_key()] += 2e-10
            amps[ps[1].as_key()] -= 3e-10
        got = self.assert_same(self.perturbed(ps, change), ps)
        assert got.startswith("memory amplitude ") and " for 101 deviates from " in got


class TestSequentialRoute:
    def test_single_pattern(self):
        ps = PatternSet((Pattern.from_string("101"),))
        amps = memory_register_amplitudes(store_sequential(ps))
        assert abs(amps[Pattern.from_string("101")] - 1.0) < 1e-12

    def test_two_patterns(self):
        ps = PatternSet((Pattern.from_string("00"), Pattern.from_string("11")))
        amps = memory_register_amplitudes(store_sequential(ps))
        root_half = 1 / math.sqrt(2)
        assert abs(amps[Pattern.from_string("00")] - root_half) < 1e-10
        assert abs(amps[Pattern.from_string("11")] - root_half) < 1e-10

    def test_intermediate_amplitude_split(self):
        # After round i, stored branches hold 1/sqrt(p) each and the
        # processing branch (second utility qubit still set) holds
        # sqrt((p-i)/p) of the amplitude.
        ps = PatternSet(
            tuple(Pattern.from_string(s) for s in ("000", "011", "110"))
        )
        # one snapshot per loading round, at the block ends, as store_sequential starts
        circuit, ends = sequential_circuit(ps)
        snap = basis_state(circuit.layout, list(ps[0].bits) + [0, 1] + [0] * ps.n)
        p = ps.p
        for i, (start, end) in enumerate(zip([0, *ends], ends), start=1):
            snap = apply_circuit(snap, circuit[start:end])
            utility = snap.section_values("utility").tolist()
            amps = snap.amp_array.tolist()
            processing = sum(abs(a) ** 2 for a, u in zip(amps, utility) if u == 2)  # u2 set
            assert processing == pytest.approx((p - i) / p, abs=1e-10)
            stored = [a for a, u in zip(amps, utility) if u == 0]
            assert len(stored) == i
            for amp in stored:
                assert abs(amp - 1 / math.sqrt(p)) < 1e-10

    def test_agrees_with_operator_route(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ps = random_set(rng, max_n=5, max_p=6)
            seq = memory_register_amplitudes(store_sequential(ps))
            op = build_memory_operator(ps).memory_amplitudes()
            for pat in ps:
                assert abs(seq[pat] - op[pat]) < 1e-10

    def test_exhaustive_small(self):
        for ps in all_sets(3, 3):
            check_memory_amplitudes(
                memory_register_amplitudes(store_sequential(ps)), ps
            )


class TestDualState:
    def test_alternating_signs(self):
        ps = PatternSet(
            tuple(Pattern.from_string(s) for s in ("000", "011", "101"))
        )
        dual = build_dual_state(ps)
        n = ps.n
        expected = 1 / math.sqrt(ps.p)
        entries = list(zip(
            dual.amp_array.tolist(),
            dual.section_values("utility").tolist(),
            dual.section_values("memory").tolist(),
        ))
        for i, pat in enumerate(ps, start=1):
            sign = 1.0 if i % 2 == 1 else -1.0
            amp = None
            for a, utility, memory in entries:
                if utility == 0 and memory == pat.as_key():
                    amp = a
            assert amp is not None
            assert abs(amp - sign * expected) < 1e-10

    def test_overlap_with_memory_even_p(self):
        for ps in all_sets(3, 2):
            if ps.p != 2:
                continue
            d = build_dual_state(ps)
            m = build_memory_operator(ps).final_state
            assert abs(overlap(d, m)) < 1e-12

    def test_overlap_with_memory_odd_p(self):
        pats = [Pattern(bits) for bits in itertools.product((0, 1), repeat=3)]
        for combo in itertools.combinations(pats, 3):
            ps = PatternSet(combo)
            d = build_dual_state(ps)
            m = build_memory_operator(ps).final_state
            assert overlap(d, m).real == pytest.approx(1 / 3, abs=1e-12)

    def test_single_pattern_equals_memory(self):
        ps = PatternSet((Pattern.from_string("10"),))
        d = build_dual_state(ps)
        m = build_memory_operator(ps).final_state
        assert abs(overlap(d, m) - 1.0) < 1e-12


class TestLayout:
    def test_sections(self):
        layout = memory_layout(4)
        assert layout.width("memory") == 4
        assert layout.width("utility") == 2
