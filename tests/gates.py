"""Gate builders, gate matrices and the state overlap for the test oracles."""
import math

import numpy as np

from dense_reference import _single_qubit_matrix
from qamem.simulator import Gate, SimulatorError, SparseState


def not_gate(target: int) -> Gate:
    return Gate("NOT", (target,))


def h_gate(target: int) -> Gate:
    return Gate("H", (target,))


def xor_gate(control: int, target: int) -> Gate:
    return Gate("XOR", (target,), (control,))


def toffoli_gate(c1: int, c2: int, target: int) -> Gate:
    return Gate("TOFFOLI", (target,), (c1, c2))


def nxor_gate(controls, target: int, polarity=None) -> Gate:
    return Gate("NXOR", (target,), tuple(controls), polarity=polarity)


def cs_gate(i: int, control: int, target: int, inverse: bool = False) -> Gate:
    g = Gate("CS", (target,), (control,), param=i)
    return g.inverse() if inverse else g


def phase0_gate(theta: float, target: int, control: int | None = None) -> Gate:
    controls = () if control is None else (control,)
    return Gate("PHASE0", (target,), controls, param=theta)


def roty_gate(angle: float, target: int, control: int | None = None) -> Gate:
    controls = () if control is None else (control,)
    return Gate("ROTY", (target,), controls, param=angle)


def zero_flip(qubits) -> Gate:
    """Sign flip of the all-zeros subspace of ``qubits`` as one
    ``PHASE0(pi)`` row: the first qubit is the target, and the others are
    controls that must hold 0.  Its factor e^{i pi} is -1 to within 1.3e-16."""
    target, *controls = qubits
    return Gate("PHASE0", (target,), tuple(controls), math.pi, (0,) * len(controls))


def gate_matrix(gate: Gate):
    """2x2 complex matrix of a mixing or PHASE0 gate (rows/cols ordered
    |0>, |1>), the dense oracle's."""
    return _single_qubit_matrix(gate)


def overlap(a: SparseState, b: SparseState) -> complex:
    """Inner product <a|b>."""
    if a.layout != b.layout:
        raise SimulatorError("layout mismatch in overlap")
    _, ia, ib = np.intersect1d(a.key_array, b.key_array, assume_unique=True, return_indices=True)
    return complex(np.sum(a.amp_array[ia].conj() * b.amp_array[ib]))
