"""Storage of pattern sets: sequential loading and the unitary memory operator.

Two independent construction routes are provided and cross-validate each
other:

* :func:`store_sequential` runs the three-register loading algorithm
  (pattern register, two utility qubits, memory register);
* :func:`build_memory_operator` builds the compact memory circuit acting on
  memory + utility only, whose gate count is exactly ``p*(2n+3) + 1``
  (each controlled pattern-loader counts as n controlled rotations, the
  per-pattern utility bookkeeping as 3 gates, plus one final NOT).

The per-pattern bookkeeping restores the first utility qubit with a
multi-controlled flip conditioned on the memory register holding the
pattern currently being processed; an unconditional flip would corrupt the
branches already stored.  The flip counts as one gate, the same unit-cost
convention used for the n-controlled NOT of the sequential route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .patterns import Pattern, PatternSet
from .simulator import (
    Circuit,
    RegisterLayout,
    SparseState,
    apply_circuit,
    basis_state,
    cs_gate,
    group_sum,
    not_gate,
    nxor_gate,
    roty_gate,
    toffoli_gate,
    xor_gate,
)

MEMORY_AMPLITUDE_TOL = 1e-10


def memory_layout(n: int) -> RegisterLayout:
    """Layout used by the memory operator: memory register plus 2 utility qubits."""
    return RegisterLayout((("memory", n), ("utility", 2)))


def memory_gate_count(p: int, n: int) -> int:
    return p * (2 * n + 3) + 1


def controlled_loader(pattern: Pattern, memory_qubits, control: int):
    """n controlled rotations taking |0...0> to the pattern when control is set.

    Rotation angle is pi/2 per set bit and 0 per clear bit; the zero-angle
    rotations are kept so the loader always contributes n gates.
    """
    return [
        roty_gate(math.pi / 2 * b, q, control=control)
        for q, b in zip(memory_qubits, pattern.bits)
    ]


def build_memory_circuit(
    pattern_set: PatternSet, alternate_signs: bool = False
) -> Circuit:
    """Circuit preparing the superposition of stored patterns from |0...0;00>.

    With ``alternate_signs`` the controlled rotations alternate with their
    inverses, preparing the alternating-sign companion state instead of the
    uniform one.
    """
    n, p = pattern_set.n, pattern_set.p
    layout = memory_layout(n)
    mem = list(layout.qubits("memory"))
    u1, u2 = layout.qubits("utility")

    gates = [not_gate(u2)]
    for i, pat in enumerate(pattern_set, start=1):
        loader = controlled_loader(pat, mem, u2)
        gates += loader
        gates.append(xor_gate(u2, u1))
        invert = alternate_signs and i % 2 == 0
        gates.append(cs_gate(p + 1 - i, u1, u2, inverse=invert))
        gates.append(nxor_gate(mem, u1, polarity=pat.bits))
        # the rotations share one control and have distinct targets, so
        # they commute: undo them in loading order
        gates += [g.inverse() for g in loader]
    return Circuit(tuple(gates), layout)


@dataclass(frozen=True)
class MemoryBuild:
    pattern_set: PatternSet
    circuit: Circuit
    gate_count: int
    final_state: SparseState

    def memory_amplitudes(self) -> dict[Pattern, complex]:
        """Amplitudes on the memory register for the utility = |00> component."""
        state, n = self.final_state, self.pattern_set.n
        stored = state.section_values("utility") == 0
        values = state.section_values("memory")[stored]
        return {
            Pattern.from_key(v, n): amp
            for v, amp in zip(values.tolist(), state.amp_array[stored].tolist())
        }


def build_memory_operator(pattern_set: PatternSet) -> MemoryBuild:
    """Build and execute the memory circuit; verifies the amplitude contract."""
    circuit = build_memory_circuit(pattern_set)
    state = basis_state(circuit.layout, [0] * circuit.layout.total)
    state = apply_circuit(state, circuit)
    build = MemoryBuild(pattern_set, circuit, len(circuit), state)

    expected = 1.0 / math.sqrt(pattern_set.p)
    amps = build.memory_amplitudes()
    for pat in pattern_set:
        got = amps.pop(pat, 0.0)
        if abs(got - expected) > MEMORY_AMPLITUDE_TOL:
            raise AssertionError(
                f"memory amplitude {got} for {pat} deviates from {expected}"
            )
    if any(abs(a) > MEMORY_AMPLITUDE_TOL for a in amps.values()):
        raise AssertionError("memory state has amplitude on a non-stored pattern")
    return build


def build_dual_state(pattern_set: PatternSet) -> SparseState:
    """Alternating-sign superposition: amplitudes (-1)^(i+1)/sqrt(p)."""
    circuit = build_memory_circuit(pattern_set, alternate_signs=True)
    state = basis_state(circuit.layout, [0] * circuit.layout.total)
    return apply_circuit(state, circuit)


def sequential_layout(n: int) -> RegisterLayout:
    return RegisterLayout((("pattern", n), ("utility", 2), ("memory", n)))


def store_sequential(
    pattern_set: PatternSet, record_intermediate: bool = False
):
    """Run the sequential storage algorithm, returning the final state.

    With ``record_intermediate`` also returns the per-pattern snapshots
    taken after each full loading round (before the pattern register is
    rewritten), for checking the stored/processing split amplitudes.
    """
    n, p = pattern_set.n, pattern_set.p
    layout = sequential_layout(n)
    preg = list(layout.qubits("pattern"))
    u1, u2 = layout.qubits("utility")
    mem = list(layout.qubits("memory"))

    first = pattern_set[0]
    state = basis_state(layout, list(first.bits) + [0, 1] + [0] * n)
    snapshots = []

    def run(gates, st):
        return apply_circuit(st, Circuit(tuple(gates), layout))

    for i, pat in enumerate(pattern_set, start=1):
        if i > 1:
            # rewrite the classical pattern register (not part of the count)
            prev = pattern_set[i - 2]
            flips = [
                not_gate(preg[j]) for j in range(n) if prev.bits[j] != pat.bits[j]
            ]
            state = run(flips, state)

        copy_in = [toffoli_gate(preg[j], u2, mem[j]) for j in range(n)]
        dress = []
        for j in range(n):
            dress.append(xor_gate(preg[j], mem[j]))
            dress.append(not_gate(mem[j]))
        compute = copy_in + dress
        split = [nxor_gate(mem, u1), cs_gate(p + 1 - i, u1, u2), nxor_gate(mem, u1)]
        uncompute = [g.inverse() for g in reversed(compute)]
        state = run(compute + split + uncompute, state)
        if record_intermediate:
            snapshots.append(state.copy())

    if record_intermediate:
        return state, snapshots
    return state


def memory_register_amplitudes(state: SparseState) -> dict[Pattern, complex]:
    """Memory-register amplitudes of a sequential-storage state (utility |00>)."""
    n = state.layout.width("memory")
    stored = state.section_values("utility") == 0
    values, amps = group_sum(
        state.section_values("memory")[stored], state.amp_array[stored]
    )
    return {
        Pattern.from_key(v, n): amp for v, amp in zip(values.tolist(), amps.tolist())
    }
