"""Storage of pattern sets: sequential loading and the unitary memory operator.

Two independent construction routes are provided and cross-validate each
other:

* :func:`store_sequential` runs the three-register loading algorithm
  (pattern register, two utility qubits, memory register);
* :func:`build_memory_operator` builds the compact memory circuit acting on
  memory + utility only, whose gate count is exactly ``p*(2n+3) + 1``
  (each controlled pattern-loader counts as n controlled rotations, the
  per-pattern utility bookkeeping as 3 gates, plus one initial NOT).

The per-pattern bookkeeping restores the first utility qubit with a
multi-controlled flip conditioned on the memory register holding the
pattern currently being processed; an unconditional flip would corrupt the
branches already stored.  The flip counts as one gate, the same unit-cost
convention used for the n-controlled NOT of the sequential route.

Both routes are one block of gate rows per pattern, and the blocks differ
only in parameters, wanted control values and (sequentially) which
register-rewrite flips fire.  So each circuit is written as a whole gate
table (see :class:`~qamem.simulator.Circuit`) with numpy from the pattern
set's bit matrix: the block's kind and mask columns tiled p times, and the
columns that vary filled from the bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .patterns import Pattern, PatternSet, patterns_from_keys
from .simulator import (
    KIND,
    Circuit,
    RegisterLayout,
    SimulatorError,
    SparseState,
    apply_circuit,
    basis_state,
    group_sum,
)

MEMORY_AMPLITUDE_TOL = 1e-10


def memory_layout(n: int) -> RegisterLayout:
    """Layout used by the memory operator: memory register plus 2 utility qubits."""
    return RegisterLayout((("memory", n), ("utility", 2)))


def memory_gate_count(p: int, n: int) -> int:
    return p * (2 * n + 3) + 1


def build_memory_circuit(
    pattern_set: PatternSet, alternate_signs: bool = False, layout: RegisterLayout | None = None
) -> Circuit:
    """Circuit preparing the superposition of stored patterns from |0...0;00>
    on the memory and utility registers of ``layout`` (:func:`memory_layout`
    by default).

    After one NOT on the second utility qubit, each pattern (row i of the
    bit matrix) contributes one block of 2n + 3 rows: its loader (n
    rotations on u2 of pi/2 per set bit and 0 per clear bit, so the loader
    always contributes n gates), XOR u2 -> u1, CS(p + 1 - i) u1 -> u2, the
    NXOR that flips u1 back where the memory register holds the pattern,
    and the loader undone.  The blocks differ only in the rotation angles,
    the CS parameter and the NXOR's wanted mask (the pattern's key shifted
    onto the memory register), so the table is one block tiled p times
    with those columns written from the bit matrix.

    With ``alternate_signs`` every second CS is inverted, preparing the
    alternating-sign companion state instead of the uniform one.
    """
    n, p = pattern_set.n, pattern_set.p
    layout = memory_layout(n) if layout is None else layout
    if (widths := (layout.width("memory"), layout.width("utility"))) != (n, 2):
        raise SimulatorError(f"memory, utility widths must be ({n}, 2), got {widths}")
    dtype = layout.key_dtype
    u1, u2 = layout.masks("utility").tolist()
    bits = pattern_set.bits
    rows = 2 * n + 3
    load, xor, cs, nxor, unload = slice(0, n), n, n + 1, n + 2, slice(n + 3, rows)
    strength = p - np.arange(p)
    if alternate_signs:
        strength[1::2] *= -1
    angle = math.pi / 2 * bits

    size = 1 + p * rows
    kind = np.full(size, KIND["ROTY"], dtype=np.int8)
    tmask = np.empty(size, dtype=dtype)
    cmask = np.full(size, u2, dtype=dtype)
    cwant = np.full(size, u2, dtype=dtype)
    param = np.full(size, math.nan)
    kind[0], tmask[0], cmask[0], cwant[0] = KIND["NOT"], u2, 0, 0
    # the p blocks as (p, rows) views of the columns
    K, T, C, W, A = (c[1:].reshape(p, rows) for c in (kind, tmask, cmask, cwant, param))
    K[:, [xor, cs, nxor]] = KIND["XOR"], KIND["CS"], KIND["NXOR"]
    # the rotations share one control and have distinct targets, so they
    # commute: undo them in loading order
    T[:, load] = T[:, unload] = layout.masks("memory")
    T[:, [xor, cs, nxor]] = u1, u2, u1
    C[:, cs] = W[:, cs] = u1
    # the NXOR wants the block's pattern on the memory register
    C[:, nxor] = ((1 << n) - 1) << layout.offset("memory")
    W[:, nxor] = np.left_shift(bits.astype(dtype), layout.qubits("memory")).sum(axis=1)
    A[:, load], A[:, cs], A[:, unload] = angle, strength, -angle
    return Circuit.from_masks(layout, kind, tmask, cmask, cwant, param)


@dataclass(frozen=True)
class MemoryBuild:
    pattern_set: PatternSet
    circuit: Circuit
    gate_count: int
    final_state: SparseState

    def memory_amplitudes(self) -> dict[Pattern, complex]:
        """Amplitudes on the memory register for the utility = |00> component."""
        return memory_register_amplitudes(self.final_state)


def build_memory_operator(pattern_set: PatternSet) -> MemoryBuild:
    """Build and execute the memory circuit; verifies the amplitude contract."""
    circuit = build_memory_circuit(pattern_set)
    state = basis_state(circuit.layout, [0] * circuit.layout.total)
    state = apply_circuit(state, circuit)
    check_memory_contract(state, pattern_set)
    return MemoryBuild(pattern_set, circuit, len(circuit), state)


def check_memory_contract(state: SparseState, pattern_set: PatternSet) -> None:
    """Check the amplitude contract of a memory state's utility = |00>
    component: 1/sqrt(p) on every stored pattern and nothing on any other,
    each within :data:`MEMORY_AMPLITUDE_TOL`.

    Raises ``AssertionError`` for the first stored pattern, in set order,
    that deviates, and then for a non-stored pattern.  The stored keys come
    from the bit matrix and are matched to the component's sorted values
    with one ``searchsorted``.
    """
    expected = 1.0 / math.sqrt(pattern_set.p)
    values, amps = _stored_component(state)
    weights = np.array([1 << j for j in range(pattern_set.n)], dtype=values.dtype)
    keys = pattern_set.bits.astype(values.dtype) @ weights
    at = np.searchsorted(values, keys)
    found = at < len(values)
    found[found] = values[at[found]] == keys[found]
    hit = at[found]
    got = np.zeros(len(keys), dtype=np.complex128)
    got[found] = amps[hit]
    deviates = np.flatnonzero(np.abs(got - expected) > MEMORY_AMPLITUDE_TOL)
    if len(deviates):
        k = deviates[0]
        amp = amps[at[k]].item() if found[k] else 0.0
        raise AssertionError(
            f"memory amplitude {amp} for {pattern_set.strings[k]} deviates from {expected}"
        )
    stray = np.ones(len(values), dtype=bool)
    stray[hit] = False
    if (np.abs(amps[stray]) > MEMORY_AMPLITUDE_TOL).any():
        raise AssertionError("memory state has amplitude on a non-stored pattern")


def build_dual_state(pattern_set: PatternSet) -> SparseState:
    """Alternating-sign superposition: amplitudes (-1)^(i+1)/sqrt(p)."""
    circuit = build_memory_circuit(pattern_set, alternate_signs=True)
    state = basis_state(circuit.layout, [0] * circuit.layout.total)
    return apply_circuit(state, circuit)


def sequential_layout(n: int) -> RegisterLayout:
    return RegisterLayout((("pattern", n), ("utility", 2), ("memory", n)))


def sequential_circuit(pattern_set: PatternSet) -> tuple[Circuit, list[int]]:
    """The sequential loading algorithm as one circuit, and the row where
    each pattern's block ends.

    Pattern i's block rewrites the classical pattern register from pattern
    i - 1 (a NOT on each bit that changes; not part of the gate count),
    copies the pattern into the memory register under u2 and dresses it
    (compute), splits off the stored branch with CS(p + 1 - i) between two
    NXORs that test for the all-ones dressed register, and uncomputes.
    Only the CS parameter and the rewrite flips change from block to
    block, so the table is one block tiled p times, with the flips that do
    not fire dropped.
    """
    n, p = pattern_set.n, pattern_set.p
    layout = sequential_layout(n)
    dtype = layout.key_dtype
    preg, mem = layout.masks("pattern"), layout.masks("memory")
    u1, u2 = layout.masks("utility").tolist()
    NOT, XOR, TOFFOLI, NXOR = (KIND[k] for k in ("NOT", "XOR", "TOFFOLI", "NXOR"))

    # compute: n TOFFOLIs preg[j], u2 -> mem[j], then XOR preg[j] -> mem[j]
    # and NOT mem[j] for each j; every compute gate is its own inverse
    compute_kind = np.concatenate((np.full(n, TOFFOLI), np.tile([XOR, NOT], n)))
    compute_target = np.concatenate((mem, np.repeat(mem, 2)))
    pairs = np.stack((preg, np.zeros(n, dtype)), axis=1).ravel()
    compute_control = np.concatenate((preg | u2, pairs))
    kind = np.concatenate(
        (np.full(n, NOT), compute_kind, [NXOR, KIND["CS"], NXOR], compute_kind[::-1])
    )
    # the split: NXOR on u1 wanting the all-ones memory register, CS u1 -> u2
    full = ((1 << n) - 1) << layout.offset("memory")
    split_target = np.array([u1, u2, u1], dtype=dtype)
    split_control = np.array([full, u1, full], dtype=dtype)
    tmask = np.concatenate((preg, compute_target, split_target, compute_target[::-1]))
    # every control must hold 1, so the wanted mask is the control mask
    cmask = np.concatenate(
        (np.zeros(n, dtype), compute_control, split_control, compute_control[::-1])
    )
    rows = len(kind)
    cs = 4 * n + 1

    param = np.full((p, rows), math.nan)
    param[:, cs] = p - np.arange(p)
    keep = np.ones((p, rows), dtype=bool)
    keep[0, :n] = False
    keep[1:, :n] = pattern_set.bits[1:] != pattern_set.bits[:-1]
    keep = keep.ravel()
    cmask = np.tile(cmask, p)[keep]
    circuit = Circuit.from_masks(
        layout, np.tile(kind, p)[keep], np.tile(tmask, p)[keep], cmask, cmask, param.ravel()[keep]
    )
    return circuit, np.cumsum(keep.reshape(p, rows).sum(axis=1)).tolist()


def store_sequential(pattern_set: PatternSet) -> SparseState:
    """Run the sequential storage algorithm, returning the final state."""
    n = pattern_set.n
    circuit, _ = sequential_circuit(pattern_set)
    state = basis_state(circuit.layout, list(pattern_set[0].bits) + [0, 1] + [0] * n)
    return apply_circuit(state, circuit)


def memory_register_amplitudes(state: SparseState) -> dict[Pattern, complex]:
    """Memory-register amplitudes of a storage state's utility = |00>
    component, keyed by pattern (equal keys summed)."""
    values, amps = _stored_component(state)
    return dict(zip(patterns_from_keys(values, state.layout.width("memory")), amps.tolist()))


def _stored_component(state: SparseState):
    """The memory register's distinct values in the utility = |00>
    component, ascending, and their amplitudes (equal keys summed)."""
    stored = state.section_values("utility") == 0
    return group_sum(state.section_values("memory")[stored], state.amp_array[stored])
