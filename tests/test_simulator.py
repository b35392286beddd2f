import functools
import itertools
import math
import sys
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import gate_unitary, random_state, run_dense, to_vector
from gates import (
    cs_gate,
    gate_matrix,
    h_gate,
    not_gate,
    nxor_gate,
    overlap,
    phase0_gate,
    roty_gate,
    toffoli_gate,
    xor_gate,
    zero_flip,
)
from qamem import simulator
from qamem.memory import build_memory_circuit, memory_gate_count, sequential_circuit, sequential_layout
from qamem.patterns import Mask, Pattern, PatternSet
from qamem.retrieval import (
    amplify_preparation_gates,
    complexity_estimate,
    preparation_circuit,
    retrieval_layout,
    retrieval_round_circuit,
    round_gate_count,
)
from qamem.simulator import (
    FUSED_CELLS,
    KIND,
    KINDS,
    PRUNE_THRESHOLD,
    Circuit,
    Gate,
    RegisterLayout,
    SimulatorError,
    SparseState,
    apply,
    apply_circuit,
    basis_state,
    measure_section,
    postselect,
    section_marginal,
    _PRUNE_WINDOW,
    _QUARTER_TOP,
    _step,
)


def flat_layout(n):
    return RegisterLayout((("q", n),))


def random_gate(n, rng):
    qubits = list(rng.permutation(n))
    kind = rng.integers(0, 9)
    if n < 3 and kind in (3, 4):
        kind = 2
    if kind == 0:
        return not_gate(qubits[0])
    if kind == 1:
        return h_gate(qubits[0])
    if kind == 2:
        return xor_gate(qubits[0], qubits[1])
    if kind == 3:
        return toffoli_gate(qubits[0], qubits[1], qubits[2])
    if kind == 4:
        k = int(rng.integers(1, n))
        pol = tuple(int(v) for v in rng.integers(0, 2, size=k))
        return nxor_gate(qubits[:k], qubits[k], polarity=pol)
    if kind == 5:
        return cs_gate(int(rng.integers(1, 6)), qubits[0], qubits[1],
                       inverse=bool(rng.integers(0, 2)))
    if kind == 6:
        ctl = qubits[1] if rng.integers(0, 2) else None
        return phase0_gate(float(rng.uniform(-3, 3)), qubits[0], control=ctl)
    if kind == 7:
        ctl = qubits[1] if rng.integers(0, 2) else None
        return roty_gate(float(rng.uniform(-3, 3)), qubits[0], control=ctl)
    k = int(rng.integers(1, n + 1))
    return zero_flip(qubits[:k])


def random_sparse(n, rng, terms=5):
    keys = rng.choice(1 << n, size=min(terms, 1 << n), replace=False)
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return SparseState(flat_layout(n), {int(k): complex(a) for k, a in zip(keys, amps)})


class TestLayout:
    def test_offsets_and_widths(self):
        layout = RegisterLayout((("a", 2), ("b", 3), ("c", 1)))
        assert layout.total == 6
        assert layout.offset("b") == 2
        assert list(layout.qubits("c")) == [5]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulatorError):
            RegisterLayout((("a", 1), ("a", 2)))

    def test_negative_width_and_unknown_name_rejected(self):
        with pytest.raises(SimulatorError, match="section widths must be >= 0"):
            RegisterLayout((("a", -1),))
        with pytest.raises(SimulatorError, match="no section named 'missing'"):
            flat_layout(2).offset("missing")
        with pytest.raises(SimulatorError, match="section widths must be integers"):
            RegisterLayout((("a", 2.5),))

    def test_zero_width_section_allowed(self):
        layout = RegisterLayout((("input", 0), ("memory", 3)))
        assert layout.total == 3
        assert list(layout.qubits("input")) == []


class TestBasisState:
    def test_examples(self):
        s = basis_state(flat_layout(2), "00")
        assert s.amps == {0: 1.0 + 0.0j}
        s = basis_state(flat_layout(1), "1")
        assert s.amps == {1: 1.0 + 0.0j}

    def test_norm_one(self):
        s = basis_state(flat_layout(4), "1011")
        assert abs(s.norm() - 1.0) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(SimulatorError):
            basis_state(flat_layout(3), "10")
        with pytest.raises(SimulatorError, match="bits must be 0/1"):
            basis_state(flat_layout(2), [2, 0])
        for one in (1.0, np.float64(1.0)):  # as in a Pattern, 1.0 is not a bit
            with pytest.raises(SimulatorError, match="bits must be 0/1"):
                basis_state(flat_layout(2), [one, 0])

    @pytest.mark.parametrize("bits", ["0a0", "0 1", "012", "\u0660\u0661\u0660"])
    def test_string_of_other_characters(self, bits):
        """Only the characters 0 and 1 are bits; int() would take Arabic-Indic
        digits and turn the rest into a ValueError of its own."""
        with pytest.raises(SimulatorError, match="bits must be 0/1"):
            basis_state(flat_layout(3), bits)


class TestSingleGates:
    def test_hadamard(self):
        s = apply(basis_state(flat_layout(1), "0"), h_gate(0))
        root_half = 1 / math.sqrt(2)
        assert abs(s.amps[0] - root_half) < 1e-15
        assert abs(s.amps[1] - root_half) < 1e-15

    def test_xor(self):
        s = apply(basis_state(flat_layout(2), "11"), xor_gate(0, 1))
        assert set(s.amps) == {1}  # qubit1 cleared, qubit0 kept

    def test_cs1_matrix_action(self):
        # control set, target |0>: S^1 = [[0,1],[-1,0]] sends |0> to -|1>
        s = apply(basis_state(flat_layout(2), "10"), cs_gate(1, 0, 1))
        assert set(s.amps) == {3}
        assert abs(s.amps[3] + 1.0) < 1e-15

    def test_roty_half_turn_sets_target(self):
        s = apply(basis_state(flat_layout(1), "0"), roty_gate(math.pi / 2, 0))
        assert set(s.amps) == {1}
        assert abs(s.amps[1] - 1.0) < 1e-15

    def test_phase0_only_zero_component(self):
        s = apply(basis_state(flat_layout(1), "0"), phase0_gate(0.7, 0))
        assert abs(s.amps[0] - np.exp(0.7j)) < 1e-15
        s = apply(basis_state(flat_layout(1), "1"), phase0_gate(0.7, 0))
        assert s.amps[1] == 1.0 + 0.0j

    def test_zero_flip_is_one_phase0_row(self):
        # the first qubit is the target, the others controls that hold 0
        assert zero_flip((0, 1)) == Gate("PHASE0", (0,), (1,), math.pi, (0,))
        s = random_sparse(3, np.random.default_rng(0))
        flipped = apply(s, zero_flip([0, 1]))
        for key, amp in s.amps.items():
            want = -amp if key & 0b011 == 0 else amp
            assert abs(flipped.amps[key] - want) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(SimulatorError):
            apply(basis_state(flat_layout(1), "0"), not_gate(3))
        with pytest.raises(SimulatorError):
            not_gate(-1)
        with pytest.raises(SimulatorError):
            toffoli_gate(0, 0, 1)

    def test_cs_requires_parameter(self):
        with pytest.raises(SimulatorError):
            cs_gate(0, 0, 1)

    def test_cs_rejects_non_integer_parameter(self):
        for bad in (1.5, -2.5, 3.0, None, 10**400):
            with pytest.raises(SimulatorError):
                Gate("CS", (1,), (0,), param=bad)
        with pytest.raises(SimulatorError):
            cs_gate(1.5, 0, 1)
        assert cs_gate(np.int64(3), 0, 1).inverse().param == -3

    @pytest.mark.parametrize(
        "kind, controls, param",
        [
            ("PHASE0", (), None),
            ("PHASE0", (1,), math.inf),
            ("ROTY", (), None),
            ("ROTY", (1,), math.nan),
            ("ROTY", (), "0.5"),
            ("H", (), 3.0),
            ("NOT", (), 0),
            ("NXOR", (1,), math.nan),
            ("CS", (1,), 2.5),
        ],
    )
    def test_parameter_rules(self, kind, controls, param):
        """CS, PHASE0 and ROTY need a finite real parameter and the other
        kinds take none: a Gate and a table row fail the same check."""
        with pytest.raises(SimulatorError):
            Gate(kind, (0,), controls, param)
        # a table column holds NaN for "no parameter"
        if param is None or isinstance(param, (int, float)) and not math.isnan(param):
            cmask = [2 if controls else 0]
            with pytest.raises(SimulatorError):
                Circuit.from_masks(flat_layout(2), [KIND[kind]], [1], cmask, cmask, [param])

    @pytest.mark.parametrize(
        "targets, controls, kind",
        [((0, 1), (), "NOT"), ((), (), "H"), ((), (1,), "XOR"), ((0,), (0,), "XOR")],
    )
    def test_row_shape_rules(self, targets, controls, kind):
        """Every gate has one target, and no qubit appears twice in a row."""
        with pytest.raises(SimulatorError):
            Gate(kind, targets, controls)

    def test_kind_qubits_and_polarity_checked(self):
        with pytest.raises(SimulatorError, match="unknown gate kind 'BOGUS'"):
            Gate("BOGUS", (0,))
        with pytest.raises(SimulatorError, match="qubit indices must be integers"):
            Gate("NOT", (0.5,))
        with pytest.raises(SimulatorError, match="polarity length must match controls"):
            Gate("XOR", (1,), (0,), polarity=(1, 0))

    def test_table_rows_are_checked(self):
        layout = flat_layout(3)
        for target, control in ((0, 0), (3, 0)):
            with pytest.raises(SimulatorError):
                Circuit((Gate("XOR", (target,), (control,)),), layout)
        with pytest.raises(SimulatorError, match="unknown gate kind code"):
            Circuit.from_masks(layout, [len(KIND)], [1], [0], [0])


class TestNxorTruthTable:
    @pytest.mark.parametrize("n_controls", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n_controls):
        n = n_controls + 1
        for pol in itertools.product((0, 1), repeat=n_controls):
            gate = nxor_gate(range(n_controls), n_controls, polarity=pol)
            for bits in itertools.product((0, 1), repeat=n):
                s = apply(basis_state(flat_layout(n), bits), gate)
                (key,) = s.amps
                fires = all(b == want for b, want in zip(bits, pol))
                expected = list(bits)
                if fires:
                    expected[n_controls] ^= 1
                want_key = sum(b << j for j, b in enumerate(expected))
                assert key == want_key

    def test_default_polarity_all_ones(self):
        gate = nxor_gate([0, 1], 2)
        assert gate == nxor_gate([0, 1], 2, polarity=(1, 1)) == nxor_gate([0, 1], 2, [1, 1])
        assert gate.polarity == (1, 1)
        s = apply(basis_state(flat_layout(3), "110"), gate)
        assert set(s.amps) == {0b111}


class TestCircuit:
    @pytest.mark.parametrize("rows", [3, np.int64(0), [0, 1], (slice(None),)])
    def test_rows_only_by_slice(self, rows):
        """A circuit takes a slice of its rows and refuses any other index."""
        circuit = Circuit((not_gate(0), h_gate(1), not_gate(1), not_gate(0)), flat_layout(2))
        assert circuit[1:3].gates == circuit.gates[1:3]
        with pytest.raises(SimulatorError, match="slice"):
            circuit[rows]

    def test_empty_identity(self):
        s = random_sparse(3, np.random.default_rng(1))
        out = apply_circuit(s, Circuit((), flat_layout(3)))
        assert out.amps == s.amps

    def test_double_not_identity(self):
        s = basis_state(flat_layout(1), "0")
        out = apply_circuit(s, Circuit((not_gate(0), not_gate(0)), flat_layout(1)))
        assert out.amps == s.amps

    def test_double_hadamard_identity(self):
        s = basis_state(flat_layout(1), "1")
        out = apply_circuit(s, Circuit((h_gate(0), h_gate(0)), flat_layout(1)))
        assert abs(out.amps[1] - 1.0) < 1e-12
        assert abs(out.amps.get(0, 0.0)) < 1e-12

    def test_concat_and_len(self):
        c1 = Circuit((not_gate(0),), flat_layout(2))
        c2 = Circuit((h_gate(1),), flat_layout(2))
        assert len(c1 + c2) == 2

    def test_gate_out_of_layout_rejected(self):
        with pytest.raises(SimulatorError):
            Circuit((not_gate(5),), flat_layout(2))

    def test_layouts_must_match(self):
        a = basis_state(flat_layout(2), "00")
        b = basis_state(RegisterLayout((("r", 2),)), "00")
        with pytest.raises(SimulatorError, match="circuit layout does not match state layout"):
            apply_circuit(a, Circuit((), b.layout))
        with pytest.raises(SimulatorError, match="layout mismatch in overlap"):
            overlap(a, b)


class TestUnitarity:
    N = 6

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            state = random_sparse(self.N, rng)
            for _ in range(15):
                state = apply(state, random_gate(self.N, rng))
            assert abs(state.norm() - 1.0) < 1e-10

    def test_gate_inverse_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            gate = random_gate(self.N, rng)
            state = random_sparse(self.N, rng)
            back = apply(apply(state, gate), gate.inverse())
            vec0, vec1 = to_vector(state), to_vector(back)
            assert np.max(np.abs(vec0 - vec1)) < 1e-12

    def test_circuit_inverse(self):
        rng = np.random.default_rng(13)
        gates = tuple(random_gate(self.N, rng) for _ in range(10))
        circuit = Circuit(gates, flat_layout(self.N))
        state = random_sparse(self.N, rng)
        back = apply_circuit(apply_circuit(state, circuit), circuit.inverse())
        assert np.max(np.abs(to_vector(state) - to_vector(back))) < 1e-11


class TestDenseCrossCheck:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_random_circuits_agree(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            layout = flat_layout(n)
            gates = tuple(random_gate(n, rng) for _ in range(12))
            circuit = Circuit(gates, layout)
            sparse = apply_circuit(basis_state(layout, [0] * n), circuit)
            dense = run_dense(circuit)
            assert np.max(np.abs(to_vector(sparse) - dense)) < 1e-12

    def test_dense_oracle_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = gate_unitary(random_gate(4, rng), 4)
            assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


class TestMeasurement:
    def bell(self):
        layout = RegisterLayout((("a", 1), ("b", 1)))
        c = Circuit((h_gate(0), xor_gate(0, 1)), layout)
        return apply_circuit(basis_state(layout, "00"), c)

    def test_marginal(self):
        probs = section_marginal(self.bell(), "a")
        assert abs(probs[0] - 0.5) < 1e-12
        assert abs(probs[1] - 0.5) < 1e-12

    def test_measure_basis_state_certain(self):
        layout = flat_layout(3)
        s = basis_state(layout, "101")
        value, collapsed = measure_section(s, "q", np.random.default_rng(0))
        assert value == 0b101
        assert collapsed.amps == s.amps

    def test_measure_frequencies(self):
        rng = np.random.default_rng(42)
        state = self.bell()
        ones = sum(measure_section(state, "a", rng)[0] for _ in range(10_000))
        assert abs(ones / 10_000 - 0.5) < 0.02

    def test_post_measurement_normalized(self):
        rng = np.random.default_rng(1)
        _, collapsed = measure_section(self.bell(), "a", rng)
        assert abs(collapsed.norm() - 1.0) < 1e-10

    def test_measure_deterministic_for_seed(self):
        outcomes = [
            measure_section(self.bell(), "b", np.random.default_rng(77))[0]
            for _ in range(5)
        ]
        assert len(set(outcomes)) == 1

    def test_measure_empty_state(self):
        state = SparseState(RegisterLayout((("a", 2),)), {})
        with pytest.raises(SimulatorError, match="no amplitudes"):
            measure_section(state, "a", np.random.default_rng(0))


class TestPostselect:
    def test_identity_on_basis(self):
        s = basis_state(flat_layout(2), "10")
        prob, cond = postselect(s, "q", "10")
        assert prob == pytest.approx(1.0)
        assert cond.amps == s.amps

    def test_bell_half(self):
        layout = RegisterLayout((("a", 1), ("b", 1)))
        c = Circuit((h_gate(0), xor_gate(0, 1)), layout)
        state = apply_circuit(basis_state(layout, "00"), c)
        prob, cond = postselect(state, "a", 0)
        assert prob == pytest.approx(0.5)
        assert set(cond.amps) == {0}

    def test_complementary_probabilities(self):
        rng = np.random.default_rng(9)
        state = random_sparse(4, rng)
        p0, _ = postselect(state, "q", 0b0000)
        total = sum(
            postselect(state, "q", v)[0] for v in range(16)
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        assert p0 <= 1.0

    def test_impossible_returns_none(self):
        s = basis_state(flat_layout(2), "00")
        prob, cond = postselect(s, "q", 0b11)
        assert prob == 0.0
        assert cond is None

    @pytest.mark.parametrize("value", ["011", "1", ""])
    def test_string_of_wrong_width(self, value):
        """A string value gives every qubit of the section, no more, no less."""
        s = basis_state(RegisterLayout((("a", 2), ("b", 1))), "110")
        with pytest.raises(SimulatorError, match="expected 2 bits for 'a'"):
            postselect(s, "a", value)

    def test_string_of_other_characters(self):
        s = basis_state(flat_layout(2), "10")
        with pytest.raises(SimulatorError, match="bits must be 0/1"):
            postselect(s, "q", "1x")

    @pytest.mark.parametrize("value", [5, -3, 4])
    def test_integer_out_of_range(self, value):
        """An integer value names an outcome of the section: 0..2^w - 1."""
        s = basis_state(RegisterLayout((("a", 2),)), "10")
        with pytest.raises(SimulatorError, match=f"value {value} out of range for 2-qubit section 'a'"):
            postselect(s, "a", value)

    def test_integer_in_range(self):
        s = basis_state(RegisterLayout((("a", 2),)), "10")
        assert [postselect(s, "a", v)[0] for v in range(4)] == [0.0, 1.0, 0.0, 0.0]
        assert postselect(s, "a", 1)[1].amps == s.amps
        assert all(postselect(s, "a", v)[1] is None for v in (0, 2, 3))

    @pytest.mark.parametrize("value", [1.5, 1.0, np.float64(1.0), None, 1j])
    def test_value_not_an_integer(self, value):
        """A value that is not an integer names no outcome: 1.5 read as a
        valid outcome of probability 0, and 1.0 as 1."""
        s = basis_state(RegisterLayout((("a", 2),)), "10")
        with pytest.raises(SimulatorError, match=f"value .* for section 'a' is not an integer"):
            postselect(s, "a", value)

    def test_integral_values(self):
        """Any integral value names an outcome: a bool reads as 0 or 1."""
        s = basis_state(RegisterLayout((("a", 2),)), "10")
        assert postselect(s, "a", True)[0] == postselect(s, "a", np.int64(1))[0] == 1.0
        assert postselect(s, "a", False) == (0.0, None)


class TestOverlap:
    def test_self_overlap(self):
        s = random_sparse(4, np.random.default_rng(2))
        assert overlap(s, s) == pytest.approx(1.0)

    def test_orthogonal_basis(self):
        a = basis_state(flat_layout(2), "01")
        b = basis_state(flat_layout(2), "10")
        assert overlap(a, b) == 0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = random_sparse(3, rng), random_sparse(3, rng)
        assert overlap(a, b) == pytest.approx(overlap(b, a).conjugate())


def reference_apply(amps: dict, gate: Gate) -> dict:
    """One gate on a {key: amplitude} dict, key by key, with Python ints."""
    def active(key):
        return all((key >> c) & 1 == v for c, v in zip(gate.controls, gate.polarity))

    out: dict[int, complex] = {}
    (t,) = gate.targets
    if gate.kind in ("NOT", "XOR", "TOFFOLI", "NXOR"):
        return {k ^ (1 << t) if active(k) else k: a for k, a in amps.items()}
    matrix = gate_matrix(gate)
    for k, a in amps.items():
        if not active(k):
            out[k] = out.get(k, 0.0) + a
            continue
        bit = (k >> t) & 1
        for new_bit in (0, 1):
            new_key = (k & ~(1 << t)) | (new_bit << t)
            out[new_key] = out.get(new_key, 0.0) + matrix[new_bit][bit] * a
    return {k: a for k, a in out.items() if abs(a) >= 1e-12}


class TestKeyWidth:
    """Layouts past 63 qubits keep exact Python-int keys."""

    @pytest.mark.parametrize("n, dtype", [(1, np.int64), (63, np.int64), (64, object), (70, object)])
    def test_key_dtype_follows_layout_width(self, n, dtype):
        layout = flat_layout(n)
        assert layout.key_dtype == np.dtype(dtype)
        top = (1 << n) - 1
        state = apply(basis_state(layout, [1] * n), not_gate(n - 1))
        assert state.key_array.dtype == np.dtype(dtype)
        assert state.amps == {top ^ (1 << (n - 1)): 1.0 + 0.0j}

    def test_numpy_qubit_indices_past_bit_62(self):
        layout = flat_layout(70)
        gate = xor_gate(np.int64(66), np.int64(68))
        state = apply(basis_state(layout, [0] * 66 + [1, 0, 0, 0]), gate)
        assert state.amps == {(1 << 66) | (1 << 68): 1.0 + 0.0j}
        # numpy bits too: an int64 bit shifted past bit 63 would read as 0
        assert basis_state(layout, [np.int64(0)] * 69 + [np.int64(1)]).amps == {1 << 69: 1.0 + 0.0j}

    def test_each_gate_kind_on_70_qubits(self):
        n = 70
        layout = flat_layout(n)
        keys = [
            (1 << 69) | (1 << 66) | (1 << 64) | 5,
            (1 << 69) | (1 << 65) | (1 << 63),
            (1 << 68) | (1 << 66) | (1 << 64) | (1 << 62),
            3,
        ]
        amps = np.array([0.5, -0.5j, 0.5, 0.5 + 0.0j])
        state = SparseState(layout, dict(zip(keys, amps.tolist())))
        gates = [
            not_gate(69),
            h_gate(66),
            xor_gate(69, 64),
            toffoli_gate(69, 66, 63),
            nxor_gate([69, 65, 0], 64, polarity=(1, 1, 0)),
            cs_gate(3, 69, 66),
            cs_gate(2, 64, 1, inverse=True),
            phase0_gate(0.7, 65),
            phase0_gate(-0.4, 67, control=66),
            roty_gate(1.1, 68, control=64),
            roty_gate(0.0, 68),
            zero_flip([69, 68, 1]),
        ]
        for gate in gates:
            got = apply(state, gate)
            want = reference_apply(dict(state.amps), gate)
            assert set(got.amps) == set(want), gate.dump()
            for key, amp in want.items():
                assert abs(got.amps[key] - amp) < 1e-15, gate.dump()
            assert all(type(k) is int for k in got.amps)
            assert all(type(a) is complex for a in got.amps.values())
            state = got
        assert abs(state.norm() - 1.0) < 1e-12

    def test_sections_past_bit_63(self):
        layout = RegisterLayout((("low", 62), ("mid", 4), ("high", 4)))
        bits = [0] * 62 + [1, 0, 1, 1] + [1, 1, 0, 1]
        state = basis_state(layout, bits)
        state = apply(state, h_gate(69))
        assert section_marginal(state, "mid") == {0b1101: pytest.approx(1.0)}
        high = section_marginal(state, "high")
        assert set(high) == {0b0011, 0b1011}
        prob, cond = postselect(state, "high", 0b1011)
        assert prob == pytest.approx(0.5)
        assert set(cond.amps) == {(0b1101 << 62) | (0b1011 << 66)}


class TestAmplitudeView:
    @pytest.mark.parametrize("total", [2, 70])
    def test_mapping_keys_within_layout(self, total):
        """A mapping's keys are the layout's basis states: a negative key or
        one with a bit past the last qubit is refused, on int64 and object
        keys alike."""
        layout = flat_layout(total)
        top = (1 << total) - 1
        assert SparseState(layout, {0: 1.0, top: 1.0}).key_array.tolist() == [0, top]
        for key in (top + 1, 1 << total + 1, -1):
            with pytest.raises(SimulatorError, match=f"state keys must lie in 0..2\\^{total} - 1"):
                SparseState(layout, {0: 1.0, key: 1.0})
        with pytest.raises(SimulatorError, match="state keys must be integers"):
            SparseState(layout, {1.5: 1.0})

    def test_read_only_mapping_of_python_values(self):
        state = apply(basis_state(flat_layout(3), "010"), h_gate(0))
        assert isinstance(state.amps, Mapping)
        assert len(state.amps) == 2
        assert all(type(k) is int for k in state.amps)
        assert all(type(a) is complex for a in state.amps.values())
        with pytest.raises(TypeError):
            state.amps[0] = 1.0
        with pytest.raises(ValueError):
            state.amp_array[0] = 1.0

    def test_matches_key_loop_on_random_circuits(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = random_sparse(6, rng, terms=8)
            amps = dict(state.amps)
            for _ in range(12):
                gate = random_gate(6, rng)
                state = apply(state, gate)
                amps = reference_apply(amps, gate)
                assert set(state.amps) == set(amps)
                for key, amp in amps.items():
                    assert abs(state.amps[key] - amp) < 1e-14


# sin of a nonzero integer is irrational: products with it round, as they
# do on the amplitudes of real circuits
GENERIC = st.integers(1, 2**20).map(math.sin)
GENERIC_ANGLES = GENERIC.map(lambda x: 3.2 * x)
ANGLES = st.floats(-3.2, 3.2, allow_nan=False) | GENERIC_ANGLES
MIXING = ("H", "CS", "ROTY")
# a run of gates sharing one control condition: mixing gates, permutation
# gates, controlled phases and the identity ROTY(0)
RUN_KINDS = MIXING + ("ROTY0", "PHASE0", "NXOR", "NOT")


def draw_polarity(draw, size):
    return tuple(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))


def draw_gate(draw, kind, target, controls=(), polarity=None, angles=ANGLES):
    param = None
    if kind == "CS":
        param = draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
    elif kind in ("ROTY", "PHASE0"):
        param = draw(angles)
    elif kind == "ROTY0":
        kind, param = "ROTY", draw(st.sampled_from((0.0, -0.0)))
    elif kind == "LOAD":  # a memory loader's rotation: one key stays one key
        kind, param = "ROTY", draw(st.sampled_from((math.pi / 2, -math.pi / 2)))
    return Gate(kind, (target,), controls, param, polarity)


def shifted_gate(gate: Gate, offset: int) -> Gate:
    return Gate(
        gate.kind,
        tuple(t + offset for t in gate.targets),
        tuple(c + offset for c in gate.controls),
        gate.param,
        gate.polarity,
    )


def transformed(draw, circuit: Circuit, gates):
    """The circuit as drawn, inverted, or cut and put together again, with
    the same done Gate by Gate: (table, reference gates)."""
    form = draw(st.sampled_from(("gates", "inverse", "cut")))
    if form == "inverse":
        return circuit.inverse(), [g.inverse() for g in reversed(gates)]
    if form == "cut":
        cut = draw(st.integers(0, len(circuit)))
        return circuit[:cut] + circuit[cut:], list(gates)
    return circuit, list(gates)


@st.composite
def runs_of_gates(draw):
    """(state, table, reference gates): runs of gates that share a control
    condition, apart or between single gates, on a state whose keys all
    satisfy the first run's condition, only some of them do, or exactly one
    does, placed last (where a memory block's CS row leaves it) or before
    the last.  Wide layouts have object keys and use qubits past bit 63.
    The table is the circuit of the drawn gates, or its inverse or cut and
    rejoined copy (see :func:`transformed`); the reference gates are
    built to match Gate by Gate."""
    wide = draw(st.booleans())
    n = draw(st.integers(64, 70)) if wide else draw(st.integers(3, 7))
    pool = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=5, unique=True))
    pool.append(n - 1)
    gates, conditions = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            q = draw(st.sampled_from(pool))
            kind = draw(st.sampled_from(("H", "ROTY", "NOT", "PHASE0", "zero flip")))
            if kind == "zero flip":
                gates.append(zero_flip(draw(st.sets(st.sampled_from(pool), min_size=1))))
            else:
                gates.append(draw_gate(draw, kind, q))
        controls = tuple(draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=len(pool) - 1, unique=True
        )))
        polarity = draw_polarity(draw, len(controls))
        conditions.append((controls, polarity))
        targets = [q for q in pool if q not in controls]
        kinds = [draw(st.sampled_from(MIXING))]
        kinds += draw(st.lists(st.sampled_from(RUN_KINDS), max_size=5))
        for kind in kinds:
            target = draw(st.sampled_from(targets))
            gates.append(draw_gate(draw, kind, target, controls, polarity))
    circuit, reference = transformed(draw, Circuit(tuple(gates), flat_layout(n)), gates)
    keys = draw(st.lists(
        st.lists(st.sampled_from(pool), unique=True).map(lambda bits: sum(1 << q for q in bits)),
        min_size=1, max_size=12,
    ))
    controls, polarity = conditions[0]
    cmask = sum(1 << c for c in controls)
    cwant = sum(v << c for c, v in zip(controls, polarity))
    active = draw(st.sampled_from(("all", "some", "one last", "one not last")))
    if active == "all":  # every key active in the first run
        keys = [(k & ~cmask) | cwant for k in keys]
    elif active != "some":  # one key active, the others idle
        miss = cwant ^ (1 << controls[0])
        keys = [(k & ~cmask) | miss for k in keys[1:]] + [(keys[0] & ~cmask) | cwant]
        if active == "one not last" and len(keys) > 1:
            keys.insert(draw(st.integers(0, len(keys) - 2)), keys.pop())
    keys = list(dict.fromkeys(keys))
    amps = [complex(draw(ANGLES), draw(ANGLES)) for _ in keys]
    return SparseState(circuit.layout, dict(zip(keys, amps))), circuit, reference


# Gate-by-Gate builders of the package's circuits: the tables that
# qamem.memory and qamem.retrieval write from the bit matrix must equal them


def memory_gates(ps, alternate_signs=False):
    n, p = ps.n, ps.p
    u1, u2 = n, n + 1
    gates = [not_gate(u2)]
    for i, pat in enumerate(ps, start=1):
        loader = [roty_gate(math.pi / 2 * b, q, control=u2) for q, b in enumerate(pat.bits)]
        gates += loader
        gates.append(xor_gate(u2, u1))
        gates.append(cs_gate(p + 1 - i, u1, u2, inverse=alternate_signs and i % 2 == 0))
        gates.append(nxor_gate(range(n), u1, polarity=pat.bits))
        gates += [g.inverse() for g in loader]
    return gates


def sequential_blocks(ps):
    """One gate list per pattern: the register rewrite, then its loading."""
    n, p = ps.n, ps.p
    preg, (u1, u2), mem = range(n), (n, n + 1), range(n + 2, 2 * n + 2)
    blocks = []
    for i, pat in enumerate(ps, start=1):
        flips = [] if i == 1 else [
            not_gate(preg[j]) for j in range(n) if ps[i - 2].bits[j] != pat.bits[j]
        ]
        compute = [toffoli_gate(preg[j], u2, mem[j]) for j in range(n)]
        for j in range(n):
            compute += [xor_gate(preg[j], mem[j]), not_gate(mem[j])]
        split = [nxor_gate(mem, u1), cs_gate(p + 1 - i, u1, u2), nxor_gate(mem, u1)]
        blocks.append(flips + compute + split + [g.inverse() for g in reversed(compute)])
    return blocks


def round_gates(x, layout, c, mask):
    n = layout.width("memory")
    mem, inp = list(layout.qubits("memory")), list(layout.qubits("input"))
    control = layout.offset("control") + c
    theta = math.pi / (2 * n)
    phase_qubits = mem if mask is None else [mem[j] for j in range(n) if j in mask.known]
    if inp:
        dress = []
        for j in range(n):
            dress += [xor_gate(inp[j], mem[j]), not_gate(mem[j])]
    else:
        dress = [roty_gate(math.pi / 2 * (1 - x.bits[j]), mem[j]) for j in range(n)]
    kernel = [phase0_gate(theta, q) for q in phase_qubits]
    kernel += [phase0_gate(-2 * theta, q, control=control) for q in phase_qubits]
    undress = [g.inverse() for g in reversed(dress)]
    return [h_gate(control), *dress, *kernel, *undress, h_gate(control)]


@st.composite
def builder_tables(draw):
    """(table, reference gates): a circuit that qamem.memory or
    qamem.retrieval writes from a random pattern set, and the same circuit
    built Gate by Gate.  Retrieval layouts with an input register and
    n = 30..32 have 63 to 70 qubits."""
    which = draw(st.sampled_from(("memory", "dual", "sequential", "round", "preparation")))
    wide = which in ("round", "preparation") and draw(st.booleans())
    n = draw(st.integers(30, 32)) if wide else draw(st.integers(1, 6))
    p = draw(st.integers(1, min(5, 2**n)))
    keys = draw(st.lists(st.integers(0, 2**n - 1), min_size=p, max_size=p, unique=True))
    ps = PatternSet(tuple(Pattern.from_key(k, n) for k in keys))
    if which in ("memory", "dual"):
        dual = which == "dual"
        return build_memory_circuit(ps, alternate_signs=dual), memory_gates(ps, dual)
    if which == "sequential":
        table, ends = sequential_circuit(ps)
        blocks = sequential_blocks(ps)
        assert ends == list(itertools.accumulate(map(len, blocks)))
        assert table.layout == sequential_layout(n)
        return table, [g for block in blocks for g in block]
    x = Pattern.from_key(draw(st.integers(0, 2**n - 1)), n)
    b = draw(st.integers(1, 4))
    layout = retrieval_layout(n, b, use_input_register=wide or draw(st.booleans()))
    mask = None
    if draw(st.booleans()):
        mask = Mask(frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    if which == "round":
        c = draw(st.integers(0, b - 1))
        return retrieval_round_circuit(x, layout, c, mask), round_gates(x, layout, c, mask)
    offset = layout.offset("memory")
    gates = [shifted_gate(g, offset) for g in memory_gates(ps)]
    for c in range(b):
        gates += round_gates(x, layout, c, mask)
    return preparation_circuit(ps, x, layout, mask), gates


def assert_same_rows(table: Circuit, reference) -> None:
    """Row for row: kind, targets, controls, polarity and the parameter,
    its type and sign of zero included; and the kernel program of the
    table has the masks of the reference gates other than ROTY(0), the
    identity, as Python ints."""
    assert len(table) == len(reference)
    for got, want in zip(table.gates, reference):
        # a row's gate skips the check; the checked constructor accepts it
        assert Gate(got.kind, got.targets, got.controls, got.param, got.polarity) == got
        assert (got.kind, got.targets, got.controls, got.polarity) == (
            want.kind, tuple(want.targets), tuple(want.controls), want.polarity
        )
        assert type(got.param) is type(want.param) and repr(got.param) == repr(want.param)
    code, tmask, cmask, cwant, operand, run_end, _, _ = table._program()
    fresh = Circuit(tuple(reference), table.layout)._program()
    assert (code, run_end) == (fresh[0], fresh[5])
    acting = [g for g in reference if not (g.kind == "ROTY" and g.param == 0)]
    assert len(code) == len(acting)
    for r, gate in enumerate(acting):
        masks = (tmask[r], cmask[r], cwant[r])
        assert all(type(m) is int for m in masks)
        assert masks == (
            sum(1 << t for t in gate.targets),
            sum(1 << c for c in gate.controls),
            sum(v << c for c, v in zip(gate.controls, gate.polarity)),
        )
        if gate.kind in ("PHASE0", "H", "CS", "ROTY"):
            assert canonical(operand[r]) == canonical(oracle_operand(gate))
        else:
            assert operand[r] is None


def oracle_operand(gate):
    """The program operand of a PHASE0 or mixing gate, read from the dense
    oracle's matrix: the phase of a PHASE0, else the matrix's columns as
    Python complex values and the underflow floor over its smallest
    nonzero entry (see the simulator's module docstring)."""
    matrix = gate_matrix(gate)
    if gate.kind == "PHASE0":
        return complex(matrix[0, 0])
    columns = tuple(map(tuple, matrix.T.tolist()))
    return columns, sys.float_info.min / min(abs(m) for m in matrix.ravel().tolist() if m)


def reference_run(keys, amps, program):
    """The kernel loop on arrays alone: one control split per run of rows
    and every row through ``_step``, with no single-key path and no fused
    segments."""
    code, tmask, cmask, cwant, operand, run_end, _, _ = program
    i = 0
    while i < len(code):
        j = run_end[i]
        if not j:
            keys, amps = _step(keys, amps, code[i], tmask[i], operand[i], cmask[i], cwant[i])
            i += 1
            continue
        active = (keys & cmask[i]) == cwant[i]
        idle_keys, idle_amps = keys[~active], amps[~active]
        keys, amps = keys[active], amps[active]
        for r in range(i, j):
            keys, amps = _step(keys, amps, code[r], tmask[r], operand[r], 0, 0)
        keys, amps = np.concatenate((idle_keys, keys)), np.concatenate((idle_amps, amps))
        i = j
    return keys, amps


def assert_matches_array_loop(state, circuit):
    """apply_circuit gives reference_run's keys, key dtype and amplitude bits."""
    got = apply_circuit(state, circuit)
    keys, amps = reference_run(state.key_array, state.amp_array, circuit._program())
    assert got.key_array.dtype == keys.dtype == state.layout.key_dtype
    assert got.key_array.tolist() == keys.tolist()
    assert got.amp_array.tobytes() == amps.tobytes()


# amplitude parts: signed zeros, and parts small enough that a product with
# a matrix entry underflows
TINY_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300)


@st.composite
def single_key_amplitude(draw, matrix, column):
    """An amplitude for the one active key: plain, with signed-zero or tiny
    parts, or sized so that the first mixing row's branch through a nonzero
    entry of ``column`` lands within a few ulps of PRUNE_THRESHOLD, where
    possible on a size that abs() and np.abs put on opposite sides of it."""
    mode = draw(st.sampled_from(("plain", "parts", "threshold")))
    if mode == "plain":
        return complex(draw(GENERIC_ANGLES), draw(GENERIC_ANGLES))
    if mode == "parts":
        parts = (draw(st.sampled_from(TINY_PARTS)), draw(ANGLES))
        return complex(*(parts if draw(st.booleans()) else parts[::-1]))
    entries = [] if matrix is None else [m for m in (matrix[0][column], matrix[1][column]) if m]
    if not entries:
        return complex(draw(ANGLES), draw(ANGLES))
    entry, phase = draw(st.sampled_from(entries)), draw(GENERIC)
    sizes = [PRUNE_THRESHOLD * (1 + k * 2.0**-52) / abs(entry) for k in range(-2, 3)]
    amps = [complex(size * math.sqrt(1 - phase * phase), size * phase) for size in sizes]
    for amp in amps:
        branch = amp * complex(entry)
        if (abs(branch) >= PRUNE_THRESHOLD) != (np.abs(branch) >= PRUNE_THRESHOLD):
            return amp
    return draw(st.sampled_from(amps))


@st.composite
def single_key_runs(draw):
    """(state, circuit): runs of gates that share a control condition, the
    first of which starts on exactly one active key among idle keys; the
    later runs start on whatever the earlier ones leave, and single gates
    (zero flips among them) may sit between runs.  Wide layouts have
    object keys and use qubits past bit 63."""
    wide = draw(st.booleans())
    n = draw(st.integers(64, 70)) if wide else draw(st.integers(3, 7))
    pool = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=5, unique=True))
    pool.append(n - 1)
    gates, conditions = [], []
    for run in range(draw(st.integers(1, 3))):
        if run and draw(st.booleans()):
            kind = draw(st.sampled_from(("H", "ROTY", "NOT", "PHASE0", "zero flip")))
            if kind == "zero flip":
                gates.append(zero_flip(draw(st.sets(st.sampled_from(pool), min_size=1))))
            else:
                gates.append(draw_gate(draw, kind, draw(st.sampled_from(pool))))
        controls = tuple(draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=len(pool) - 1, unique=True
        )))
        polarity = draw_polarity(draw, len(controls))
        conditions.append((controls, polarity))
        targets = [q for q in pool if q not in controls]
        # loader rotations keep one key one key, so the rows after them,
        # PHASE0 among them, meet the scalar path
        kinds = [draw(st.sampled_from(MIXING + ("LOAD", "LOAD")))]
        kinds += draw(st.lists(st.sampled_from(RUN_KINDS + ("LOAD", "LOAD", "PHASE0")), max_size=8))
        for kind in kinds:
            target = draw(st.sampled_from(targets))
            gates.append(draw_gate(draw, kind, target, controls, polarity, GENERIC_ANGLES))
    controls, polarity = conditions[0]
    cmask = sum(1 << c for c in controls)
    cwant = sum(v << c for c, v in zip(controls, polarity))
    key_bits = st.lists(st.sampled_from(pool), unique=True).map(lambda bits: sum(1 << q for q in bits))
    active = (draw(key_bits) & ~cmask) | cwant
    idle = [k for k in draw(st.lists(key_bits, max_size=6)) if k & cmask != cwant]
    first = gates[0]
    matrix = None if first.kind == "ROTY" and first.param == 0 else gate_matrix(first)
    amp = draw(single_key_amplitude(matrix, (active >> first.targets[0]) & 1))
    amps = {k: complex(draw(ANGLES), draw(ANGLES)) for k in idle}
    amps[active] = amp
    circuit = Circuit(tuple(gates), flat_layout(n))
    return SparseState(circuit.layout, amps), circuit


@st.composite
def scalar_stretches(draw):
    """(state, circuit): stretches of several runs that the scalar path may
    follow past the end of its first run.  The first run starts on one
    active key, the only one with its flag qubit set, among idle keys (or
    none).  Its rows, and the pieces after it, mix:

    * runs on the flag, or on data qubits that some idle keys may meet;
    * permutations on the flag or on data qubits, and NXORs on several data
      qubits, the wanted value drawn from an idle key, from the active key
      or at random, all decided by the idle keys' projections;
    * uncontrolled rows, PHASE0 rows and ROTY(0) rows.

    The active key's amplitude may have parts at the underflow floor or put
    the first mixing row's branch in the prune window.  Wide layouts have
    object keys and use qubits past bit 63."""
    wide = draw(st.booleans())
    n = draw(st.integers(64, 70)) if wide else draw(st.integers(5, 8))
    data = draw(st.lists(st.integers(0, n - 2), min_size=4, max_size=5, unique=True))
    flag = n - 1
    key_bits = st.lists(st.sampled_from(data), unique=True).map(lambda bits: sum(1 << q for q in bits))
    active = draw(key_bits) | 1 << flag
    idle = draw(st.lists(key_bits, max_size=6, unique=True))

    def condition():
        controls = tuple(draw(st.lists(st.sampled_from(data), max_size=2, unique=True)))
        polarity = draw_polarity(draw, len(controls))
        if draw(st.booleans()):
            controls, polarity = (flag, *controls), (1, *polarity)
        if not controls:
            controls, polarity = (flag,), (draw(st.integers(0, 1)),)
        return controls, polarity

    def run(controls, polarity, first):
        targets = [q for q in data if q not in controls]
        kinds = [first] + draw(st.lists(st.sampled_from(RUN_KINDS + ("LOAD", "LOAD")), max_size=5))
        return [
            draw_gate(draw, kind, draw(st.sampled_from(targets)), controls, polarity, GENERIC_ANGLES)
            for kind in kinds
        ]

    gates = run((flag,), (1,), draw(st.sampled_from(MIXING + ("LOAD", "LOAD"))))
    for _ in range(draw(st.integers(1, 6))):
        pieces = ("run", "run", "nxor", "nxor", "flip", "uncontrolled", "PHASE0", "ROTY0")
        piece = draw(st.sampled_from(pieces))
        if piece == "run":
            gates += run(*condition(), draw(st.sampled_from(MIXING + ("LOAD",))))
        elif piece == "nxor":
            qubits = st.lists(st.sampled_from(data), min_size=3, max_size=len(data), unique=True)
            target, *controls = draw(qubits)
            source = draw(st.sampled_from(("idle", "active", "random")))
            if source == "random" or source == "idle" and not idle:
                polarity = draw_polarity(draw, len(controls))
            else:
                key = draw(st.sampled_from(idle)) if source == "idle" else active
                polarity = tuple((key >> c) & 1 for c in controls)
            gates.append(nxor_gate(controls, target, polarity=polarity))
        elif piece == "flip":
            controls, polarity = condition()
            target = draw(st.sampled_from([q for q in data if q not in controls]))
            gates.append(nxor_gate(controls, target, polarity=polarity))
        elif piece == "uncontrolled":
            kind = draw(st.sampled_from(("NOT", "H", "ROTY", "LOAD")))
            gates.append(draw_gate(draw, kind, draw(st.sampled_from(data))))
        elif piece == "PHASE0":
            controls = () if draw(st.booleans()) else condition()[0]
            targets = [q for q in data if q not in controls]
            gates.append(draw_gate(draw, "PHASE0", draw(st.sampled_from(targets)), controls))
        else:
            controls, polarity = condition()
            targets = [q for q in data if q not in controls]
            gates.append(draw_gate(draw, "ROTY0", draw(st.sampled_from(targets)), controls, polarity))
    first = gates[0]
    matrix = None if first.kind == "ROTY" and first.param == 0 else gate_matrix(first)
    amps = {k: complex(draw(ANGLES), draw(ANGLES)) for k in idle}
    amps[active] = draw(single_key_amplitude(matrix, (active >> first.targets[0]) & 1))
    circuit = Circuit(tuple(gates), flat_layout(n))
    return SparseState(circuit.layout, amps), circuit


class TestRunKernel:
    """apply_circuit splits the keys once per run of gates with one control
    condition; the result is the gate-by-gate one, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=runs_of_gates())
    def test_circuit_matches_folded_apply(self, case):
        state, circuit, reference = case
        got = apply_circuit(state, circuit)
        want = state
        for gate in reference:
            before, want = want, apply(want, gate)
            # only a mixing gate that is not the identity moves keys: the
            # others keep every key in its place
            if gate.kind == "PHASE0" or gate.kind == "ROTY" and gate.param == 0:
                assert want.key_array.tolist() == before.key_array.tolist()
            elif gate.kind not in MIXING:
                assert want.key_array.tolist() == list(reference_apply(dict(before.amps), gate))
        assert got.key_array.dtype == want.key_array.dtype == state.layout.key_dtype
        assert got.key_array.tolist() == want.key_array.tolist()
        assert got.amp_array.tobytes() == want.amp_array.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(case=single_key_runs())
    def test_single_key_runs_match_array_loop(self, case):
        """A run that starts on one active key runs on Python scalars; the
        result is the array loop's, key order, dtype and bits included."""
        state, circuit = case
        program = circuit._program()
        assert np.count_nonzero((state.key_array & program[2][0]) == program[3][0]) == 1
        assert_matches_array_loop(state, circuit)

    @settings(max_examples=300, deadline=None)
    @given(case=scalar_stretches())
    def test_scalar_stretches_match_array_loop(self, case):
        """The scalar path follows the rows past a run's end while they miss
        the idle keys, and leaves where they may not; the result is the
        array loop's, key order, dtype and bits included."""
        assert_matches_array_loop(*case)

    @pytest.mark.parametrize("offset", [0, 64])
    def test_parked_keys_join_the_projections(self, offset):
        """A tail key that a later run finds idle joins the projections
        already taken on a control mask, so the NXOR that then meets it
        sends the path back to the arrays."""
        d0, d1, d2, s, z, flag = (q + offset for q in range(6))
        data = (d0, d1, d2)
        gates = (
            Gate("H", (s,), (flag,)),  # the tail: s = 0 and s = 1
            nxor_gate(data, z, polarity=(0, 1, 0)),  # no idle key projects to 010
            roty_gate(math.pi / 2, d1, control=s),  # the s = 0 key goes idle
            nxor_gate(data, z, polarity=(1, 0, 0)),  # and this row meets it
        )
        circuit = Circuit(gates, flat_layout(offset + 6))
        amps = {0: 0.5, 1 << d0 | 1 << d1: 0.5j, 1 << flag | 1 << d0: -0.5 - 0.5j}
        state = SparseState(circuit.layout, amps)
        assert_matches_array_loop(state, circuit)
        assert 1 << flag | 1 << d0 | 1 << z in apply_circuit(state, circuit).amps

    @pytest.mark.parametrize("alternate_signs", [False, True])
    def test_memory_circuit_runs_on_scalars(self, monkeypatch, alternate_signs):
        """The memory circuit runs on scalars from its first loader to its
        end: the stored branches' projections show that its NXORs miss them
        on the memory register, and every other row on the utility bits."""
        strings = ("1100", "0110", "1011", "0001", "1110", "0111")
        ps = PatternSet(tuple(Pattern.from_string(s) for s in strings))
        circuit = build_memory_circuit(ps, alternate_signs)
        state = basis_state(circuit.layout, [0] * circuit.layout.total)
        want = reference_run(state.key_array, state.amp_array, circuit._program())
        rows = []

        def counted_step(keys, amps, code, *rest):
            rows.append(code)
            return _step(keys, amps, code, *rest)

        monkeypatch.setattr(simulator, "_step", counted_step)
        got = apply_circuit(state, circuit)
        assert rows == [KIND["NOT"]]
        assert got.key_array.tolist() == want[0].tolist()
        assert got.amp_array.tobytes() == want[1].tobytes()

    def test_prune_decision_near_threshold_is_numpys(self):
        """Where abs() and np.abs round a branch to opposite sides of
        PRUNE_THRESHOLD, the single-key path keeps what the array loop keeps."""
        layout = flat_layout(3)
        circuit = Circuit((roty_gate(math.pi / 2, 0, control=2),), layout)
        rng = np.random.default_rng(3)
        split = 0
        for phase in rng.uniform(-math.pi, math.pi, 4000).tolist():
            amp = complex(PRUNE_THRESHOLD * math.cos(phase), PRUNE_THRESHOLD * math.sin(phase))
            if (abs(amp) >= PRUNE_THRESHOLD) == (np.abs(amp) >= PRUNE_THRESHOLD):
                continue
            split += 1
            # the active key holds target 1: its branch to target 0 is
            # -amp * -sin(pi/2) = amp, and the one to target 1 is pruned
            assert_matches_array_loop(SparseState(layout, {0b101: -amp, 0b010: 1.0}), circuit)
        assert split > 10

    @pytest.mark.parametrize("gate", [
        cs_gate(4, 2, 0), cs_gate(5, 2, 0, inverse=True), roty_gate(1.3, 0, 2), roty_gate(-2.0, 0, 2),
    ])
    def test_underflowing_products_match_array_loop(self, gate):
        """A product part that underflows to zero keeps the array loop's sign."""
        layout = flat_layout(3)
        circuit = Circuit((gate,), layout)
        for key, re, im in itertools.product((0b100, 0b101), (5e-324, -5e-324), (0.5, -0.5)):
            assert_matches_array_loop(SparseState(layout, {key: complex(re, im), 0b010: 1.0}), circuit)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_inverse_and_cut_match_fresh_gates(self, data):
        """Tables equal Gate-by-Gate circuits row for row: a table of drawn
        gates or of a builder, and its inverse and rejoined cut."""
        n = data.draw(st.integers(3, 70))
        qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        kind = data.draw(st.sampled_from(sorted(RUN_KINDS + ("XOR", "TOFFOLI", "zero flip"))))
        if kind == "zero flip":
            gate = zero_flip(qubits)
        elif kind in ("XOR", "TOFFOLI"):
            gate = Gate(kind, (qubits[0],), tuple(qubits[1 : 2 if kind == "XOR" else 3]))
        else:
            controls = tuple(qubits[1 : data.draw(st.integers(1, 3))])
            polarity = data.draw(st.sampled_from((None, tuple(c % 2 for c in controls))))
            gate = draw_gate(data.draw, kind, qubits[0], controls, polarity)
        param = -gate.param if gate.kind in ("CS", "PHASE0", "ROTY") else gate.param
        assert gate.inverse() == Gate(gate.kind, gate.targets, gate.controls, param, gate.polarity)
        assert gate.inverse().inverse() == gate

        source = data.draw(st.sampled_from(("gate", "runs", "builder")))
        if source == "gate":
            table, reference = Circuit((gate,), flat_layout(n)), [gate]
        elif source == "runs":
            _, table, reference = data.draw(runs_of_gates())
        else:
            table, reference = data.draw(builder_tables())
        assert_same_rows(table, reference)
        assert_same_rows(*transformed(data.draw, table, reference))

    def test_cs_matrices_are_gate_matrices(self):
        """A table's CS forms, built in one numpy pass over its CS rows,
        have the bits of the dense oracle's matrices; (i - 1) / i and
        1 - 1/i round apart at i = 7, 19, 27, 171, 219 and 567."""
        gates = [cs_gate(i, 0, 1, inverse=i % 3 == 0) for i in range(1, 600)]
        assert_same_rows(Circuit(tuple(gates), flat_layout(2)), gates)

    def test_join_refuses_other_layouts(self):
        circuit = Circuit((not_gate(1),), flat_layout(2))
        empty = Circuit((), flat_layout(4))
        assert empty.gates == ()
        with pytest.raises(SimulatorError, match="different layouts"):
            circuit + empty
        with pytest.raises(SimulatorError, match="no circuits to join"):
            Circuit.join(())


@st.composite
def with_identities(draw):
    """(state, table, plain, cuts): a drawn circuit (``plain``) of runs,
    scalar stretches or permutation segments, and ``table``, the same rows
    with ROTY(0.0) and ROTY(-0.0) rows put anywhere among them, often on
    the controls of the row they precede, so inside a run or between the
    rows of a segment; ``cuts`` are the rows of ``table`` that hold them."""
    state, plain = draw(st.one_of(
        runs_of_gates().map(lambda case: case[:2]),
        single_key_runs(),
        scalar_stretches(),
        permutation_segments(),
    ))
    n = plain.layout.total
    gates = list(plain.gates)
    cuts = []
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(gates)))
        if at < len(gates) and draw(st.booleans()):
            controls, polarity = gates[at].controls, gates[at].polarity
        else:
            controls = tuple(draw(st.lists(st.integers(0, n - 1), max_size=min(3, n - 1), unique=True)))
            polarity = draw_polarity(draw, len(controls))
        target = draw(st.sampled_from([q for q in range(n) if q not in controls]))
        angle = draw(st.sampled_from((0.0, -0.0)))
        gates.insert(at, Gate("ROTY", (target,), controls, angle, polarity))
        cuts = [c + (c >= at) for c in cuts] + [at]
    return state, Circuit(tuple(gates), plain.layout), plain, sorted(cuts)


class TestIdentityRows:
    """ROTY(0) stays in its circuit and out of the kernel's program."""

    @settings(max_examples=300, deadline=None)
    @given(case=with_identities())
    def test_identity_rows_change_nothing(self, case):
        """The table with identity rows gives the keys, key order and
        amplitude bits of the table without them, and of the table run in
        pieces cut at each identity row, where no run or segment reaches
        across one."""
        state, table, plain, cuts = case
        got = apply_circuit(state, table)
        pieces = state
        for begin, stop in zip([0, *cuts], [*cuts, len(table)]):
            pieces = apply_circuit(pieces, table[begin:stop])
        for want in (apply_circuit(state, plain), pieces):
            assert got.key_array.dtype == want.key_array.dtype == state.layout.key_dtype
            assert got.key_array.tolist() == want.key_array.tolist()
            assert got.amp_array.tobytes() == want.amp_array.tobytes()

    @pytest.mark.parametrize("which", ["memory", "dual", "round", "preparation", "amplify"])
    def test_builders_leave_identities_out_of_the_program(self, which):
        """Every builder's ROTY(0) rows are in its table and its gate
        counts, and none is in the program."""
        ps = PatternSet(tuple(Pattern.from_string(s) for s in ("0110", "1100", "1011", "0001")))
        x, (n, p, b) = Pattern.from_string("0100"), (4, 4, 2)
        if which in ("memory", "dual"):
            table, count = build_memory_circuit(ps, which == "dual"), memory_gate_count(p, n)
        elif which == "round":
            layout = retrieval_layout(n, b, use_input_register=False)
            table, count = retrieval_round_circuit(x, layout, 1, None), round_gate_count(n, False)
        elif which == "preparation":
            table = preparation_circuit(ps, x, retrieval_layout(n, b), None)
            count = complexity_estimate(p, n, b, 1)
        else:
            table = preparation_circuit(ps, x, retrieval_layout(n, b, use_input_register=False), None)
            count = amplify_preparation_gates(p, n, b)
        assert len(table) == len(table.gates) == count
        identity = (table.kind == KIND["ROTY"]) & (table.param == 0)
        assert np.count_nonzero(identity) > 0
        code, _, _, _, operand, _, _, _ = table._program()
        assert code == table.kind[~identity].tolist()
        for c, form in zip(code, operand):
            if c == KIND["ROTY"]:
                assert not np.array_equal(np.array(form[0]).T, np.eye(2))


def around(size):
    """Five sizes a few ulps apart, centred on ``size``."""
    return [size * (1 + k * 2.0**-52) for k in range(-2, 3)]


# sizes of the one key's amplitude at the bounds of the signed-flip check:
# both edges of the prune window, and around _QUARTER_TOP and above it,
# where from about 1.6e4 on a quarter turn keeps its branch through cos(pi/2)
QUARTER_SIZES = (*around(_PRUNE_WINDOW[0]), *around(_PRUNE_WINDOW[1]), *around(_QUARTER_TOP), 2e4, 1e5)


@st.composite
def quarter_stretches(draw):
    """(state, circuit): stretches of quarter turns, ROTY(+-pi/2) of mixed
    signs on a few targets, so that one target is often turned twice, met
    on one key: the first run's, on the flag qubit, with idle keys or none;
    stretches on other conditions past that run, which idle keys may meet;
    uncontrolled ones; and single rows of other kinds between them.  The
    key's amplitude is plain, has signed-zero or tiny parts, or has a size
    from QUARTER_SIZES.  Wide layouts have object keys and use qubits past
    bit 63."""
    wide = draw(st.booleans())
    n = draw(st.integers(64, 70)) if wide else draw(st.integers(5, 8))
    data = draw(st.lists(st.integers(0, n - 2), min_size=3, max_size=5, unique=True))
    flag = n - 1
    key_bits = st.lists(st.sampled_from(data), unique=True).map(lambda bits: sum(1 << q for q in bits))
    active = draw(key_bits) | 1 << flag
    idle = draw(st.lists(key_bits, max_size=4, unique=True)) if draw(st.booleans()) else []

    def stretch(controls=(), polarity=()):
        targets = [q for q in data if q not in controls]
        return [
            draw_gate(draw, "LOAD", draw(st.sampled_from(targets)), controls, polarity)
            for _ in range(draw(st.integers(1, 6)))
        ]

    gates = stretch((flag,), (1,))
    for _ in range(draw(st.integers(0, 4))):
        piece = draw(st.sampled_from(("controlled", "controlled", "uncontrolled", "flag", "single")))
        if piece == "controlled":
            controls = tuple(draw(st.lists(st.sampled_from(data), min_size=1, max_size=2, unique=True)))
            if draw(st.booleans()):
                controls += (flag,)
            gates += stretch(controls, draw_polarity(draw, len(controls)))
        elif piece == "uncontrolled":
            gates += stretch()
        elif piece == "flag":  # a permutation row, then the flag's stretch again
            gates.append(draw_gate(draw, "NOT", draw(st.sampled_from(data)), (flag,), (1,)))
            gates += stretch((flag,), (1,))
        else:
            kind = draw(st.sampled_from(("NOT", "H", "ROTY", "ROTY0", "PHASE0")))
            gates.append(draw_gate(draw, kind, draw(st.sampled_from(data))))
    mode = draw(st.sampled_from(("plain", "parts", "size")))
    if mode == "plain":
        amp = complex(draw(GENERIC_ANGLES), draw(GENERIC_ANGLES))
    elif mode == "parts":
        parts = (draw(st.sampled_from(TINY_PARTS)), draw(ANGLES))
        amp = complex(*(parts if draw(st.booleans()) else parts[::-1]))
    else:
        size, phase = draw(st.sampled_from(QUARTER_SIZES)), draw(GENERIC)
        parts = draw(st.sampled_from((
            (size, draw(st.sampled_from((0.0, -0.0)))),  # abs() is the size itself
            (size * math.sqrt(1 - phase * phase), size * phase),
        )))
        signs = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))))
        amp = complex(*(sign * part for sign, part in zip(signs, parts)))
    amps = {k: complex(draw(ANGLES), draw(ANGLES)) for k in idle}
    amps[active] = amp
    circuit = Circuit(tuple(gates), flat_layout(n))
    return SparseState(circuit.layout, amps), circuit


class TestQuarterStretches:
    """A stretch of quarter turns on one key runs as signed flips."""

    @settings(max_examples=400, deadline=None)
    @given(case=quarter_stretches())
    def test_quarter_stretches_match_array_loop(self, case):
        """The result is the array loop's, key order, dtype and amplitude
        bits included, signed zeros among them."""
        assert_matches_array_loop(*case)

    def test_stretch_sizes(self):
        """A stretch ends at a row that is no quarter turn or has another
        condition; each quarter row holds the size of its stretch from it
        on, and rows that are no quarter turn hold 0."""
        turn = functools.partial(roty_gate, math.pi / 2)
        back = functools.partial(roty_gate, -math.pi / 2)
        gates = (
            turn(0, 4), back(1, 4), turn(0, 4), xor_gate(4, 2),  # one stretch, then a flip
            back(1, 4), Gate("ROTY", (0,), (4,), math.pi / 2, (0,)),  # another polarity
            turn(1), back(2), roty_gate(0.0, 3), turn(1), h_gate(2), turn(3, 4),
        )
        stretch = Circuit(gates, flat_layout(5))._program()[7]
        assert stretch == [3, 2, 1, 0, 1, 1, 3, 2, 1, 0, 1]

    @pytest.mark.parametrize("wide", [False, True])
    def test_large_amplitudes_run_row_by_row(self, wide):
        """Above _QUARTER_TOP a quarter turn's branch through cos(pi/2) may
        be kept; such an amplitude takes the row-by-row path and ends as
        the array loop's does: each turn keeps a branch of size 6e-12 beside
        the idle key, and each later turn prunes its branch of that."""
        offset = 64 if wide else 0
        flag = offset + 3
        gates = tuple(roty_gate(math.pi / 2, offset + q, control=flag) for q in range(3))
        circuit = Circuit(gates, flat_layout(offset + 4))
        state = SparseState(circuit.layout, {1 << flag: 1e5 + 0j, 1 << offset: 0.5})
        assert_matches_array_loop(state, circuit)
        assert len(apply_circuit(state, circuit).key_array) == 1 + 4


# arity of each permutation kind; NXOR takes any number of controls
FLIP_QUBITS = {"NOT": 1, "XOR": 2, "TOFFOLI": 3, "NXOR": None}


def draw_flips(draw, pool):
    """A stretch of permutation gates on a few qubits, so that targets
    repeat and later controls often read an earlier target."""
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(sorted(FLIP_QUBITS)))
        size = FLIP_QUBITS[kind] or draw(st.integers(1, len(pool)))
        target, *controls = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
        polarity = None
        if kind == "NXOR":
            polarity = draw_polarity(draw, len(controls))
        gates.append(Gate(kind, (target,), tuple(controls), polarity=polarity))
    return gates


@st.composite
def permutation_segments(draw):
    """(state, circuit): stretches of permutation gates, with runs of gates
    that share a control condition, PHASE0 rows and zero flips between
    them.  Wide layouts have object keys and use qubits past bit 63; a
    large state has FUSED_CELLS // 2 + 1 keys, too many for any segment to
    run fused."""
    size = draw(st.sampled_from(("narrow", "narrow", "wide", "large")))
    n = {"narrow": (3, 7), "wide": (64, 70), "large": (16, 18)}[size]
    n = draw(st.integers(*n))
    pool = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=4, unique=True))
    pool.append(n - 1)
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        piece = draw(st.sampled_from(("flips", "flips", "run", "PHASE0", "zero flip")))
        if piece == "flips":
            gates += draw_flips(draw, pool)
        elif piece == "run":
            controls = tuple(draw(st.lists(
                st.sampled_from(pool), min_size=1, max_size=len(pool) - 1, unique=True
            )))
            polarity = draw_polarity(draw, len(controls))
            targets = [q for q in pool if q not in controls]
            kinds = [draw(st.sampled_from(MIXING))] + draw(st.lists(st.sampled_from(RUN_KINDS), max_size=3))
            for kind in kinds:
                gates.append(draw_gate(draw, kind, draw(st.sampled_from(targets)), controls, polarity))
        elif piece == "PHASE0":
            target, *controls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
            gates.append(draw_gate(draw, "PHASE0", target, tuple(controls)))
        else:
            gates.append(zero_flip(draw(st.sets(st.sampled_from(pool), min_size=1))))
    circuit = Circuit(tuple(gates), flat_layout(n))
    if size == "large":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        count = FUSED_CELLS // 2 + 1
        keys = rng.choice(2**n, size=count, replace=False)
        amps = rng.normal(size=count) + 1j * rng.normal(size=count)
        return SparseState.from_arrays(circuit.layout, keys, amps), circuit
    keys = draw(st.lists(
        st.lists(st.sampled_from(pool), unique=True).map(lambda bits: sum(1 << q for q in bits)),
        min_size=1, max_size=12, unique=True,
    ))
    amps = [complex(draw(ANGLES), draw(ANGLES)) for _ in keys]
    return SparseState(circuit.layout, dict(zip(keys, amps))), circuit


class TestFusedSegments:
    """Outside the runs, a segment of permutation rows runs as one XOR
    step; the keys are the ones row-by-row flipping gives."""

    @settings(max_examples=300, deadline=None)
    @given(case=permutation_segments())
    def test_fused_kernel_matches_row_by_row(self, case):
        assert_matches_array_loop(*case)

    def test_segment_rule(self):
        """A segment ends before a row whose control an earlier row of it
        targets; a target flipped twice stays in it, and a single row makes
        no segment."""
        gates = (
            xor_gate(0, 1), not_gate(1), nxor_gate((0, 2), 3, polarity=(0, 1)),  # one segment
            toffoli_gate(1, 2, 4), not_gate(0),  # qubit 1 was targeted: a new one
            h_gate(2), xor_gate(0, 4),  # a mixing row, then a single row
        )
        segment = Circuit(gates, flat_layout(5))._program()[6]
        assert [(r, s[0]) for r, s in enumerate(segment) if s is not None] == [(0, 3), (3, 5)]
        _, t, c, w = segment[0]
        assert t.shape == c.shape == w.shape == (3, 1)
        assert (t.ravel().tolist(), c.ravel().tolist(), w.ravel().tolist()) == (
            [0b10, 0b10, 0b1000], [0b1, 0, 0b101], [0b1, 0, 0b100]
        )

    def test_only_rows_outside_runs_fuse(self):
        """Permutation rows inside a run stay in the run; the rows of its
        control condition before its first mixing row may fuse, and so may
        the rows after it."""
        gates = (
            xor_gate(0, 1), not_gate(2),
            Gate("TOFFOLI", (1,), (0, 3)), Gate("TOFFOLI", (2,), (0, 3)),  # before the run
            Gate("CS", (1,), (0, 3), 2), Gate("TOFFOLI", (2,), (0, 3)),  # the run
            not_gate(1), not_gate(2),
        )
        program = Circuit(gates, flat_layout(4))._program()
        assert program[5][4] == 6
        assert [(r, s[0]) for r, s in enumerate(program[6]) if s is not None] == [(0, 4), (6, 8)]

    def test_sequential_loader_fuses_all_but_nxor_and_cs(self):
        """Every row of the sequential loader but the first NXOR and the CS
        of each pattern runs in a fused segment."""
        ps = PatternSet(tuple(Pattern.from_string(s) for s in ("0110", "1100", "1011", "0001")))
        circuit, _ = sequential_circuit(ps)
        segment = circuit._program()[6]
        assert sum(s[0] - r for r, s in enumerate(segment) if s is not None) == len(circuit) - 2 * ps.p

    @pytest.mark.parametrize("count, fused", [(FUSED_CELLS // 3, True), (FUSED_CELLS // 3 + 1, False)])
    def test_segments_fuse_up_to_the_cap(self, monkeypatch, count, fused):
        """A segment of k rows on m keys runs as one step while k * m is at
        most FUSED_CELLS, and row by row above it."""
        layout = flat_layout(18)
        circuit = Circuit((xor_gate(0, 1), not_gate(1), nxor_gate((0, 2), 3, polarity=(0, 1))), layout)
        rng = np.random.default_rng(5)
        state = SparseState.from_arrays(
            layout, rng.choice(2**18, size=count, replace=False), rng.normal(size=count) + 0j
        )
        want = reference_run(state.key_array, state.amp_array, circuit._program())
        rows = []

        def counted_step(keys, amps, code, *rest):
            rows.append(code)
            return _step(keys, amps, code, *rest)

        monkeypatch.setattr(simulator, "_step", counted_step)
        got = apply_circuit(state, circuit)
        assert len(rows) == (0 if fused else 3)
        assert got.key_array.tolist() == want[0].tolist()
        assert got.amp_array.tobytes() == want[1].tobytes()


# The index form of gate tables: what Circuit held before its rows were
# masks, kept here as the reference that the mask check and the compiled
# program must agree with.
PARAM_KINDS = ("PHASE0", "CS", "ROTY")


def index_columns(gates):
    """(kind, qubits, param, polarity) of gates: the target and then the
    controls of each row, padded with -1, and the polarity padded with 1."""
    width = max((1 + len(g.controls) for g in gates), default=1)
    qubits = [[*g.targets, *g.controls] + [-1] * (width - 1 - len(g.controls)) for g in gates]
    polarity = [[1, *g.polarity] + [1] * (width - 1 - len(g.controls)) for g in gates]
    return (
        np.array([KIND[g.kind] for g in gates], dtype=np.int8),
        np.array(qubits, dtype=np.int64).reshape(-1, width),
        np.array([math.nan if g.param is None else float(g.param) for g in gates]),
        np.array(polarity, dtype=np.uint8).reshape(-1, width),
    )


def reference_check(layout, kind, qubits, param, polarity):
    """The index check: every row, then every qubit against the layout."""
    if (kind.view(np.uint8) >= len(KINDS)).any():
        raise SimulatorError("unknown gate kind code")
    ordered = np.sort(qubits, axis=1)
    if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, :-1] >= 0)).any():
        raise SimulatorError("overlapping target/control indices")
    needs = (kind == KIND["PHASE0"]) | (kind >= KIND["CS"])
    cs = kind == KIND["CS"]
    bad = (needs != ~np.isnan(param)) | (needs & ~np.isfinite(param))
    if cs.any():
        bad |= cs & ((np.abs(param) < 1) | (param != np.trunc(param)))
    if bad.any():
        r = int(bad.argmax())
        if cs[r]:
            raise SimulatorError("CS requires integer parameter i >= 1")
        if needs[r]:
            raise SimulatorError(f"{KINDS[kind[r]]} requires a finite real parameter")
        raise SimulatorError(f"{KINDS[kind[r]]} takes no parameter")
    n = layout.total
    if qubits.max(initial=-1) >= n:
        r = int((qubits >= n).any(axis=1).argmax())
        name, value = KINDS[kind[r]], float(param[r])
        target, *controls = [q for q in qubits[r].tolist() if q >= 0]
        shown = "" if name not in PARAM_KINDS else f"({int(value) if name == 'CS' else value:g})"
        ctrl = ",".join(str(c) for c in sorted(controls))
        raise SimulatorError(f"gate {name}{shown} {ctrl} -> {target} out of range for N={n}")


def reference_masks(layout, qubits, polarity):
    """Target, control and wanted mask columns of index rows, each row's
    qubits turned into bits and OR-reduced."""
    used = qubits >= 0
    if layout.key_dtype == object:
        bits = np.zeros(qubits.shape, dtype=object)
        bits[used] = [1 << q for q in qubits[used].tolist()]
    else:
        bits = np.left_shift(used, qubits, dtype=np.int64)
    controls = bits[:, 1:]
    return (
        bits[:, 0],
        np.bitwise_or.reduce(controls, axis=1),
        np.bitwise_or.reduce(controls * polarity[:, 1:], axis=1),
    )


def reference_program(layout, kind, qubits, param, polarity):
    """The kernel program derived from index columns (see
    Circuit._program): the rows other than ROTY(0), the identity."""
    keep = (kind != KIND["ROTY"]) | (param != 0)
    kind, qubits, param, polarity = kind[keep], qubits[keep], param[keep], polarity[keep]
    rows = len(kind)
    tmask, cmask, cwant = reference_masks(layout, qubits, polarity)
    mixing = (kind >= KIND["H"]) & ((kind != KIND["ROTY"]) | (param != 0))
    starts = mixing & (cmask != 0)
    run_end = np.zeros(rows, dtype=np.int64)
    visited = np.ones(rows, dtype=bool)
    if starts.any():
        change = (cmask[1:] != cmask[:-1]) | (cwant[1:] != cwant[:-1])
        ends = np.append(np.flatnonzero(change) + 1, rows)
        condition = np.searchsorted(ends, np.arange(rows), side="right")
        run_end = np.where(starts, ends[condition], 0)
        visited = np.maximum.accumulate(np.where(starts, condition, -1)) < condition
    code, targets, conditions = kind.tolist(), tmask.tolist(), cmask.tolist()
    flips = visited & (kind <= KIND["NXOR"])
    bounds = [0, *(np.flatnonzero(flips[1:] != flips[:-1]) + 1).tolist(), rows]
    segment = [None] * rows
    for begin, stop in zip(bounds, bounds[1:]):
        if stop - begin < 2 or not flips[begin]:
            continue
        cuts, flipped = [begin], 0
        for r in range(begin, stop):
            if conditions[r] & flipped:
                cuts.append(r)
                flipped = 0
            flipped |= targets[r]
        cuts.append(stop)
        for first, last in zip(cuts, cuts[1:]):
            if last - first > 1:
                span = slice(first, last)
                segment[first] = (last, tmask[span, None], cmask[span, None], cwant[span, None])
    values = param.tolist()
    operand = [None] * rows
    for r in np.flatnonzero(mixing | (kind == KIND["PHASE0"])).tolist():
        operand[r] = oracle_operand(SimpleNamespace(kind=KINDS[code[r]], param=values[r]))
    # the size of each quarter turn's stretch from it on, row by row from
    # the last: the next row ends it unless it is a quarter turn on the
    # same condition
    wants = cwant.tolist()
    quarter = [c == KIND["ROTY"] and abs(v) == math.pi / 2 for c, v in zip(code, values)]
    stretch = [0] * (rows + 1)
    for r in reversed(range(rows)):
        if quarter[r]:
            joined = r + 1 < rows and quarter[r + 1] and (conditions[r + 1], wants[r + 1]) == (conditions[r], wants[r])
            stretch[r] = 1 + stretch[r + 1] if joined else 1
    return code, targets, conditions, wants, operand, run_end.tolist(), segment, stretch[:rows]


def canonical(value):
    """A program part as nested tuples: types, dtypes, shapes and bytes
    (the digits of object arrays), so that equal means bit for bit."""
    if isinstance(value, np.ndarray):
        data = repr(value.tolist()) if value.dtype == object else value.tobytes()
        return ("array", str(value.dtype), value.shape, data)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    return (type(value).__name__, repr(value))


# each row: valid, or with one fault of these
ROW_FAULTS = ("duplicate", "target as control", "out of range", "param", "kind")


@st.composite
def index_tables(draw):
    """(layout, kind, qubits, param, polarity): index rows on an int64
    layout or on one past 63 qubits, narrow rows of one to three qubits and
    wide rows of up to 12, each valid or with one of ROW_FAULTS (a qubit
    past the layout may lie past bit 63 of an int64 layout)."""
    n = draw(st.integers(2, 63) | st.integers(64, 70))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, min(n, 3)) | st.integers(1, min(n, 12)))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        polarity = [1, *draw_polarity(draw, size - 1)]
        kind = draw(st.integers(0, len(KINDS) - 1))
        name = KINDS[kind]
        param = math.nan
        if name == "CS":
            param = float(draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))))
        elif name in PARAM_KINDS:
            param = draw(ANGLES)
        fault = draw(st.sampled_from((None, None, None) + ROW_FAULTS))
        at = draw(st.integers(0, size - 1))
        if fault == "duplicate" and size > 1:
            qubits[at] = qubits[(at + draw(st.integers(1, size - 1))) % size]
        elif fault == "target as control" and size > 1:
            qubits[max(at, 1)] = qubits[0]
        elif fault == "out of range":
            qubits[at] = draw(st.integers(n, n + 80))
        elif fault == "param":
            if name == "CS":
                param = draw(st.sampled_from((0.0, 0.5, -2.5, math.nan, math.inf)))
            elif name in PARAM_KINDS:
                param = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
            else:
                param = draw(ANGLES)
        elif fault == "kind":
            kind = draw(st.integers(len(KINDS), 127) | st.integers(-128, -1))
        rows.append((kind, qubits, param, polarity))
    width = max(len(q) for _, q, _, _ in rows)
    return (
        flat_layout(n),
        np.array([k for k, _, _, _ in rows], dtype=np.int8),
        np.array([q + [-1] * (width - len(q)) for _, q, _, _ in rows], dtype=np.int64),
        np.array([p for _, _, p, _ in rows]),
        np.array([v + [1] * (width - len(v)) for _, _, _, v in rows], dtype=np.uint8),
    )


def index_gate(code, qubits, param, polarity):
    """The Gate of one index row: a code past KINDS becomes the name
    "#code", a NaN parameter none and an integral CS parameter an int."""
    name = KINDS[code] if 0 <= code < len(KINDS) else f"#{code}"
    target, *controls = [q for q in qubits if q >= 0]
    if math.isnan(param):
        param = None
    elif name == "CS" and param.is_integer():
        param = int(param)
    return Gate(name, (target,), tuple(controls), param, tuple(polarity[1 : 1 + len(controls)]))


def refusal(build, *args):
    """The message a builder refuses its arguments with, or None."""
    try:
        build(*args)
    except SimulatorError as error:
        return str(error)
    return None


class TestMaskTables:
    """A table holds masks; its check and program are those the index form
    of the same rows gets."""

    @settings(max_examples=500, deadline=None)
    @given(case=index_tables())
    def test_mask_check_refuses_as_the_index_check(self, case):
        """Each row's Gate refuses exactly the rows the index check refuses,
        with its message, and Circuit(gates, layout) the tables; a valid
        table's masks are the index rows' bits, and its rows come back from
        their gates as the same columns."""
        layout, kind, qubits, param, polarity = case
        want = refusal(reference_check, *case)
        gates = []
        for r in range(len(kind)):
            # the row alone, on a layout that holds all its qubits
            row = (column[r : r + 1] for column in case[1:])
            row_want = refusal(reference_check, flat_layout(int(qubits[r].max()) + 1), *row)
            if row_want == "unknown gate kind code":
                row_want = f"unknown gate kind '#{kind[r]}'"
            args = int(kind[r]), qubits[r].tolist(), float(param[r]), polarity[r].tolist()
            assert refusal(lambda: gates.append(index_gate(*args))) == row_want
        if len(gates) < len(kind):
            assert want is not None
            return
        assert refusal(Circuit, tuple(gates), layout) == want
        if want is not None:
            return
        circuit = Circuit(tuple(gates), layout)
        assert circuit.kind.tolist() == kind.tolist()
        assert np.array_equal(circuit.param, param, equal_nan=True)
        masks = (circuit.tmask, circuit.cmask, circuit.cwant)
        for got, expected in zip(masks, reference_masks(layout, qubits, polarity)):
            assert got.dtype == expected.dtype == layout.key_dtype
            assert got.tolist() == expected.tolist()
        again = Circuit(circuit.gates, layout)
        assert again.gates == circuit.gates == tuple(gates)
        for column in ("kind", "tmask", "cmask", "cwant", "param"):
            got, expected = getattr(again, column), getattr(circuit, column)
            assert got.dtype == expected.dtype
            assert canonical(got) == canonical(expected)

    def test_messages(self):
        """The check's own messages, for rows that only masks can hold."""
        layout = flat_layout(4)
        ones = np.ones(1, dtype=np.int64)
        cases = [
            ((0b11, 0, 0), "a gate needs exactly one target"),
            ((0, 0, 0), "a gate needs exactly one target"),
            ((0b1, 0b11, 0b10), "overlapping target/control indices"),
            ((0b1, 0b10, 0b110), "wanted control values outside the controls"),
            ((0b1, 0b10000, 0), r"gate NOT 4 -> 0 out of range for N=4"),
        ]
        for masks, match in cases:
            with pytest.raises(SimulatorError, match=match):
                Circuit.from_masks(layout, [KIND["NOT"]], *(ones * m for m in masks))

    @pytest.mark.parametrize("job", [
        "memory", "dual", "sequential", "preparation", "masked", "rotations", "masked rotations", "wide",
    ])
    def test_program_equals_index_derivation(self, job):
        """The compiled program of each builder's table, at the benchmark's
        sizes, is the one derived from the index columns of the same
        circuit built Gate by Gate, bit for bit."""
        rng = np.random.default_rng(26)
        n, p = {"memory": (12, 128), "dual": (12, 128), "sequential": (9, 64), "wide": (31, 16)}.get(job, (10, 128))
        keys = rng.choice(2**n, size=p + 1, replace=False).tolist()
        ps = PatternSet(tuple(Pattern.from_key(k, n) for k in keys[:p]))
        x = Pattern.from_key(keys[p], n)
        if job in ("memory", "dual"):
            table, gates = build_memory_circuit(ps, job == "dual"), memory_gates(ps, job == "dual")
        elif job == "sequential":
            table, gates = sequential_circuit(ps)[0], [g for block in sequential_blocks(ps) for g in block]
        else:
            b = 2 if job == "wide" else 3
            mask = Mask.of(*range(0, n, 2)) if "masked" in job else None
            layout = retrieval_layout(n, b, use_input_register="rotations" not in job)
            offset = layout.offset("memory")
            table = preparation_circuit(ps, x, layout, mask)
            gates = [shifted_gate(g, offset) for g in memory_gates(ps)]
            for c in range(b):
                gates += round_gates(x, layout, c, mask)
        assert (job == "wide") == (table.layout.key_dtype == object)
        want = reference_program(table.layout, *index_columns(gates))
        assert canonical(table._program()) == canonical(want)
