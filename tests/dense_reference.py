"""Dense statevector test oracle (independent of the sparse simulator).

Builds full 2^N unitaries for every gate kind from scratch and applies them
by plain matrix multiplication; capped at N <= 12 qubits.  Basis index
convention matches the package: qubit j lives at bit position j.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

MAX_QUBITS = 12


def _single_qubit_matrix(gate) -> np.ndarray:
    kind, param = gate.kind, gate.param
    if kind == "NOT":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "CS":
        i = abs(param)
        c, s = math.sqrt((i - 1) / i), 1 / math.sqrt(i)
        if param < 0:
            s = -s
        return np.array([[c, s], [-s, c]], dtype=complex)
    if kind == "ROTY":
        c, s = math.cos(param), math.sin(param)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "PHASE0":
        return np.array([[cmath.exp(1j * param), 0], [0, 1]], dtype=complex)
    raise ValueError(f"no single-qubit matrix for {kind}")


def gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Full 2^N x 2^N unitary of one gate."""
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"dense oracle capped at {MAX_QUBITS} qubits")
    dim = 1 << n_qubits
    u = np.zeros((dim, dim), dtype=complex)

    target = gate.targets[0]

    if gate.kind in ("XOR", "TOFFOLI", "NXOR"):
        mat = np.array([[0, 1], [1, 0]], dtype=complex)
    else:
        mat = _single_qubit_matrix(gate)

    tmask = 1 << target
    for k in range(dim):
        active = all(
            (k >> c) & 1 == want for c, want in zip(gate.controls, gate.polarity)
        )
        if not active:
            u[k, k] = 1.0
            continue
        tbit = (k >> target) & 1
        for new_tbit in (0, 1):
            amp = mat[new_tbit, tbit]
            if amp != 0:
                new_k = (k & ~tmask) | (new_tbit << target)
                u[new_k, k] += amp
    return u


def run_dense(circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply a circuit to a dense vector (defaults to |0...0>)."""
    n = circuit.layout.total
    vec = initial
    if vec is None:
        vec = np.zeros(1 << n, dtype=complex)
        vec[0] = 1.0
    for gate in circuit.gates:
        vec = gate_unitary(gate, n) @ vec
    return vec


def to_vector(state) -> np.ndarray:
    """Dense vector of a SparseState."""
    vec = np.zeros(1 << state.layout.total, dtype=complex)
    for key, amp in state.amps.items():
        vec[key] = amp
    return vec


def random_state(n_qubits: int, rng) -> np.ndarray:
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)
