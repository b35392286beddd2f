"""The sign flip of an all-zeros subspace as one gate, for the test oracles."""
import math

from qamem.simulator import Gate


def zero_flip(qubits) -> Gate:
    """Sign flip of the all-zeros subspace of ``qubits`` as one
    ``PHASE0(pi)`` row: the first qubit is the target, and the others are
    controls that must hold 0.  Its factor e^{i pi} is -1 to within 1.3e-16."""
    target, *controls = qubits
    return Gate("PHASE0", (target,), tuple(controls), math.pi, (0,) * len(controls))
