"""The gate kernel's output bytes on jobs of the benchmark's circuit sizes.

Each job is built from a fixed seed here, and its final state is reduced to
a SHA-256 digest of the key dtype, the keys and the amplitude bytes.  The
first four digests were recorded from the array kernel before the scalar
path followed rows past the end of a run, the alternating-sign memory state
and the 66-qubit preparation (object keys) from the kernel that still split
off a last active key with slices and proved idle keys by bit summaries,
the masked preparation with the input coded as rotations from the
kernel that still read its gate tables as qubit indices, and the amplified
state on the input register when ``amplitude_amplify`` moved to that
layout; a kernel change that moves one bit of one amplitude, or the order
of the keys, changes them.
"""
import hashlib

import numpy as np
import pytest

from qamem.memory import build_dual_state, build_memory_operator, store_sequential
from qamem.patterns import Mask, Pattern, PatternSet
from qamem.retrieval import amplitude_amplify, prepare_final_state
from qamem.simulator import SparseState


def pattern_set(seed, n, p):
    """p distinct random patterns of n bits and a random input."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**n, size=p + 1, replace=False).tolist()
    return PatternSet(tuple(Pattern.from_key(k, n) for k in keys[:p])), Pattern.from_key(keys[p], n)


def digest(state):
    keys = state.key_array
    h = hashlib.sha256(str(keys.dtype).encode())
    # an object array's bytes are pointers: hash its Python ints' digits
    h.update(repr(keys.tolist()).encode() if keys.dtype == object else keys.tobytes())
    h.update(state.amp_array.tobytes())
    return h.hexdigest()


def memory_operator():
    return build_memory_operator(pattern_set(1, 12, 128)[0]).final_state


def sequential():
    return store_sequential(pattern_set(2, 9, 64)[0])


def preparation():
    ps, x = pattern_set(3, 10, 128)
    return prepare_final_state(ps, x, 3)


def dual_state():
    return build_dual_state(pattern_set(5, 12, 128)[0])


def wide_preparation():
    ps, x = pattern_set(6, 31, 16)
    return prepare_final_state(ps, x, 2)


def masked_rotation_preparation():
    ps, x = pattern_set(7, 10, 128)
    return prepare_final_state(ps, x, 3, Mask.of(*range(0, 10, 2)), use_input_register=False)


def amplified():
    """The input-as-rotations preparation and one reflection about it, as
    ``amplitude_amplify`` ran it before it prepared with the input register."""
    ps, x = pattern_set(4, 6, 16)
    psi = prepare_final_state(ps, x, 4, use_input_register=False)
    flipped = np.where(psi.section_values("control") == 0, -psi.amp_array, psi.amp_array)
    amps = 2 * np.vdot(psi.amp_array, flipped) * psi.amp_array - flipped
    return SparseState.from_arrays(psi.layout, psi.key_array, amps)


def register_amplified():
    ps, x = pattern_set(4, 6, 16)
    return amplitude_amplify(ps, x, b=4, iterations=1).state


@pytest.mark.parametrize("job, want", [
    (memory_operator, "a4037d68b0141764635e7409ce2bd0026d740fcce42d8cc5f1c8666e6b015b29"),
    (sequential, "0ce0b782e28ea472083373273087e8b8ddfe78614f97a84f4eb19538de4b703b"),
    (preparation, "962be0d64e9977098f842261eff9c0771f199dc0f4ef18f200c16b526e590fb1"),
    (amplified, "3e33fa3a6b42dcc341b252928b2d08f673e1c03fd8ddca3118abf09b85ce5d67"),
    (register_amplified, "99fa8b9024ca6702d6e9669d194011c468086f14b29fd0716bd7ac632b4dc7d7"),
    (dual_state, "289ba0b89a8657ae2c78e41e9e091adb3fdd0645c3e722e970f992eee5a8c04f"),
    (wide_preparation, "22bc2cc22ba80dedf687043c730899dc8c8543d44b78412884b8a6c428a8c7a5"),
    (masked_rotation_preparation, "543d2172a4cc3057f91c757e9b3c8e3863aa877cfae22788fbac5e3ec5237b14"),
])
def test_final_state_bytes(job, want):
    assert digest(job()) == want
